"""AST lint over the source tree: project invariants as CI checks.

Seven invariants, each of which has silently broken (or nearly broken)
at least once in this repo's history and is cheap to enforce
mechanically:

1. **Chaos coverage** — every injection point declared via
   ``faults.declare(...)`` in ``src/`` must appear as a string literal
   somewhere in ``tests/chaos/``: a point no chaos test arms is a
   fault path that has never executed.
2. **Error taxonomy** — every exception class defined in
   ``src/repro/errors.py`` must have an entry in ``errors.RETRYABLE``
   (the client's retry policy is a total function over the taxonomy)
   and must be referenced by name somewhere under ``tests/`` (an error
   no test ever mentions is an untested contract).
3. **No bare excepts** — ``except:`` swallows ``KeyboardInterrupt``
   and ``SystemExit``; the narrowest-possible handler is repo policy.
4. **Durable renames** — any function that stages a write through a
   ``*.tmp`` path and publishes it with ``os.replace``/``os.rename``
   must ``fsync`` before the rename, otherwise a crash can leave the
   rename durable while the bytes are not (the storage layer's
   write-temp discipline, enforced everywhere it is imitated).
5. **SQL lowering totality** — the ``_LOWERS`` registry in
   ``src/repro/sql/lower.py`` must cover exactly the node classes in
   ``src/repro/sql/ast.py``'s ``NODE_CLASSES`` tuple, both ways: a
   node the lowering does not dispatch is a construct the parser can
   produce but the back half silently cannot handle (the mirror of
   the MIL interpreter's ``_OPS`` totality assertion).
6. **Pay-per-use fault simulation** — the serving path
   (``src/repro/server/`` and ``src/repro/monet/multiproc.py``) may
   construct a ``BufferManager`` or call ``set_manager`` only inside
   the per-task accounting helper ``_run_accounted``: a manager
   installed anywhere else makes every served request pay for a
   page-fault simulation nobody asked for.
7. **Canonical value walkers** — a shipped result is walked by four
   functions in three modules (the digest ``multiproc._feed``, the
   wire codec ``protocol.encode_value``/``decode_value``, the
   client's ``_bare_value``).  ``multiproc.CANONICAL_KINDS`` is the
   one registry of what such a value can be made of; every walker
   must name every kind (test for it, or look for its wire marker)
   unless :data:`VALUE_WALKERS` records that the walker's
   fall-through covers it — so a new kind cannot land handled by some
   walkers and silently mangled by the rest.

``run_selfcheck`` returns a list of findings (empty = clean tree);
``python -m repro.analysis --selfcheck`` exits non-zero on any.
"""

import ast
import os

from .verify import Finding

#: repository-relative directories the invariants are scoped to
SRC_DIR = "src"
TESTS_DIR = "tests"
CHAOS_DIR = os.path.join("tests", "chaos")
ERRORS_MODULE = os.path.join("src", "repro", "errors.py")


def repo_root(start=None):
    """The enclosing repository root (the directory holding ``src/``)."""
    here = os.path.abspath(start or os.path.dirname(__file__))
    while True:
        if os.path.isdir(os.path.join(here, SRC_DIR)) and \
                os.path.isfile(os.path.join(here, ERRORS_MODULE)):
            return here
        parent = os.path.dirname(here)
        if parent == here:
            raise RuntimeError("cannot locate the repository root "
                               "(no src/repro/errors.py above %r)"
                               % (start or __file__))
        here = parent


def _python_files(root, subdir):
    base = os.path.join(root, subdir)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _rel(root, path):
    return os.path.relpath(path, root)


def _string_constants(tree):
    return set(node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant)
               and isinstance(node.value, str))


# ----------------------------------------------------------------------
# invariant 1: chaos coverage of declared fault points
# ----------------------------------------------------------------------
def _declared_fault_points(root):
    """(point, file, line) for every ``faults.declare(...)`` literal."""
    points = []
    for path in _python_files(root, SRC_DIR):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            named = (isinstance(func, ast.Attribute)
                     and func.attr == "declare") or \
                    (isinstance(func, ast.Name)
                     and func.id == "declare")
            if not named:
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, str):
                    points.append((arg.value, _rel(root, path),
                                   node.lineno))
    return points


def check_chaos_coverage(root):
    armed = set()
    for path in _python_files(root, CHAOS_DIR):
        armed |= _string_constants(_parse(path))
    findings = []
    for point, rel, line in _declared_fault_points(root):
        if point not in armed:
            findings.append(Finding(
                "error", "unarmed-fault-point", None,
                "%s:%d declares fault point %r but no test in %s/ "
                "arms it" % (rel, line, point, CHAOS_DIR)))
    return findings


# ----------------------------------------------------------------------
# invariant 2: error taxonomy classified and tested
# ----------------------------------------------------------------------
def _error_classes(root):
    tree = _parse(os.path.join(root, ERRORS_MODULE))
    classes = []
    retryable = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            classes.append((node.name, node.lineno))
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
            if "RETRYABLE" in targets and \
                    isinstance(node.value, ast.Dict):
                retryable = set(
                    key.value for key in node.value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str))
    return classes, retryable


def _names_referenced_in_tests(root):
    names = set()
    for path in _python_files(root, TESTS_DIR):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                names.add(node.value)
    return names


def check_error_taxonomy(root):
    classes, retryable = _error_classes(root)
    referenced = _names_referenced_in_tests(root)
    findings = []
    for name, line in classes:
        if name not in retryable:
            findings.append(Finding(
                "error", "unclassified-error", None,
                "%s:%d defines %s without a RETRYABLE entry — the "
                "client retry policy must be total over the taxonomy"
                % (ERRORS_MODULE, line, name)))
        if name not in referenced:
            findings.append(Finding(
                "error", "untested-error", None,
                "%s:%d defines %s but no test under %s/ references it"
                % (ERRORS_MODULE, line, name, TESTS_DIR)))
    return findings


# ----------------------------------------------------------------------
# invariant 3: no bare excepts
# ----------------------------------------------------------------------
def check_bare_excepts(root):
    findings = []
    for path in _python_files(root, SRC_DIR):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ExceptHandler) and \
                    node.type is None:
                findings.append(Finding(
                    "error", "bare-except", None,
                    "%s:%d uses a bare `except:` (swallows "
                    "KeyboardInterrupt/SystemExit)"
                    % (_rel(root, path), node.lineno)))
    return findings


# ----------------------------------------------------------------------
# invariant 4: fsync before publishing a .tmp staging write
# ----------------------------------------------------------------------
def _is_call_to(node, names):
    """True for ``<module>.<name>(...)`` or a bare ``<name>(...)``."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in names:
        return True
    return isinstance(func, ast.Name) and func.id in names


def check_fsync_before_rename(root):
    findings = []
    for path in _python_files(root, SRC_DIR):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            stages_tmp = any(
                isinstance(inner, ast.Constant)
                and isinstance(inner.value, str)
                and inner.value.endswith(".tmp")
                for inner in ast.walk(node))
            if not stages_tmp:
                continue
            calls = [inner for inner in ast.walk(node)
                     if isinstance(inner, ast.Call)]
            renames = [c for c in calls
                       if _is_call_to(c, ("replace", "rename"))]
            if not renames:
                continue
            fsyncs = [c for c in calls if _is_call_to(c, ("fsync",))]
            first_rename = min(c.lineno for c in renames)
            if not any(c.lineno < first_rename for c in fsyncs):
                findings.append(Finding(
                    "error", "unsynced-rename", None,
                    "%s:%d: function %r publishes a .tmp staging "
                    "write with os.replace/os.rename but never "
                    "fsyncs the staged file first — a crash could "
                    "keep the rename and lose the bytes"
                    % (_rel(root, path), node.lineno, node.name)))
    return findings


# ----------------------------------------------------------------------
# invariant 5: SQL lowering dispatch is total over the SQL AST
# ----------------------------------------------------------------------
SQL_AST_MODULE = os.path.join("src", "repro", "sql", "ast.py")
SQL_LOWER_MODULE = os.path.join("src", "repro", "sql", "lower.py")


def _sql_node_classes(root):
    """Names listed in ``NODE_CLASSES`` in the SQL ast module."""
    tree = _parse(os.path.join(root, SQL_AST_MODULE))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "NODE_CLASSES"
                for t in node.targets):
            if isinstance(node.value, (ast.Tuple, ast.List)):
                return set(elt.id for elt in node.value.elts
                           if isinstance(elt, ast.Name)), node.lineno
    return set(), 0


def _sql_lowered_names(root):
    """String keys of the ``_LOWERS`` registry in the lowering pass."""
    tree = _parse(os.path.join(root, SQL_LOWER_MODULE))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_LOWERS"
                for t in node.targets):
            if isinstance(node.value, ast.Dict):
                return set(key.value for key in node.value.keys
                           if isinstance(key, ast.Constant)
                           and isinstance(key.value, str)), node.lineno
    return set(), 0


def check_sql_lowering_totality(root):
    if not os.path.isfile(os.path.join(root, SQL_AST_MODULE)):
        return []
    declared, ast_line = _sql_node_classes(root)
    lowered, lower_line = _sql_lowered_names(root)
    findings = []
    if not declared:
        findings.append(Finding(
            "error", "sql-ast-untracked", None,
            "%s declares no NODE_CLASSES tuple — the lowering "
            "totality invariant has nothing to check against"
            % SQL_AST_MODULE))
    if not lowered:
        findings.append(Finding(
            "error", "sql-lowering-untracked", None,
            "%s declares no _LOWERS registry — the lowering "
            "totality invariant has nothing to check"
            % SQL_LOWER_MODULE))
    for name in sorted(declared - lowered):
        findings.append(Finding(
            "error", "sql-node-not-lowered", None,
            "%s:%d lists SQL AST node %s in NODE_CLASSES but %s's "
            "_LOWERS registry never dispatches it — the parser can "
            "produce a construct the lowering cannot handle"
            % (SQL_AST_MODULE, ast_line, name, SQL_LOWER_MODULE)))
    for name in sorted(lowered - declared):
        findings.append(Finding(
            "error", "sql-lowering-orphan", None,
            "%s:%d dispatches %r which %s's NODE_CLASSES does not "
            "declare — dead dispatch entry or an unregistered node"
            % (SQL_LOWER_MODULE, lower_line, name, SQL_AST_MODULE)))
    return findings


# ----------------------------------------------------------------------
# invariant 6: the serving path simulates page faults only per task
# ----------------------------------------------------------------------
SERVER_DIR = os.path.join("src", "repro", "server")
MULTIPROC_MODULE = os.path.join("src", "repro", "monet", "multiproc.py")

#: functions allowed to install or construct a buffer manager there
ACCOUNTING_HELPERS = ("_run_accounted",)


def check_serving_path_accounting(root):
    findings = []
    for path in _python_files(root, SRC_DIR):
        rel = _rel(root, path)
        if rel != MULTIPROC_MODULE and \
                not rel.startswith(SERVER_DIR + os.sep):
            continue
        tree = _parse(path)
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and node.name in ACCOUNTING_HELPERS:
                allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed \
                    and _is_call_to(node, ("set_manager",
                                           "BufferManager")):
                findings.append(Finding(
                    "error", "serving-path-buffer-manager", None,
                    "%s:%d installs or constructs a buffer manager on "
                    "the serving path outside %s — fault simulation "
                    "there must stay per task (buffer_stats)"
                    % (rel, node.lineno,
                       "/".join(ACCOUNTING_HELPERS))))
    return findings


# ----------------------------------------------------------------------
# invariant 7: every walker over shipped values handles every kind
# ----------------------------------------------------------------------
PROTOCOL_MODULE = os.path.join(SERVER_DIR, "protocol.py")
CLIENT_MODULE = os.path.join(SERVER_DIR, "client.py")

#: How walker code names each kind of ``multiproc.CANONICAL_KINDS``:
#: the type it isinstance-tests, the predicate it calls, or — for
#: ``decode_value``, which walks the wire form — the marker key.
KIND_TOKENS = {
    "none": ("None",), "bool": ("bool",), "int": ("int",),
    "float": ("float",), "str": ("str",),
    "bytes": ("bytes", "__bytes__"),
    "ndarray": ("ndarray", "__ndbuf__"),
    "list": ("list",), "tuple": ("tuple", "__tuple__"),
    "dict": ("dict",),
    "row": ("is_row", "__row__"), "ref": ("is_ref", "__ref__"),
    "batch": ("is_batch", "__batch__"),
}

#: (module, function, kinds its fall-through covers by design).
VALUE_WALKERS = (
    (MULTIPROC_MODULE, "_feed", ()),
    (PROTOCOL_MODULE, "encode_value", ()),
    (PROTOCOL_MODULE, "decode_value", ()),
    # only unwraps the {"kind": ...} envelopes; the rest passes through
    (CLIENT_MODULE, "_bare_value",
     tuple(kind for kind in KIND_TOKENS if kind != "dict")),
)


def _canonical_kinds(root):
    """The string items of ``CANONICAL_KINDS`` in the multiproc
    module, or ``None`` when the tuple is not declared."""
    path = os.path.join(root, MULTIPROC_MODULE)
    if not os.path.isfile(path):
        return None
    for node in _parse(path).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CANONICAL_KINDS"
                for t in node.targets) \
                and isinstance(node.value, (ast.Tuple, ast.List)):
            return [elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)]
    return None


def _tokens_named(function):
    """Every name, attribute and string constant in ``function``,
    plus ``"None"`` when it compares against ``None``."""
    tokens = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name):
            tokens.add(node.id)
        elif isinstance(node, ast.Attribute):
            tokens.add(node.attr)
        elif isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            tokens.add(node.value)
        elif isinstance(node, ast.Compare) and any(
                isinstance(operand, ast.Constant)
                and operand.value is None
                for operand in node.comparators):
            tokens.add("None")
    return tokens


def check_canonical_value_walkers(root):
    if not os.path.isfile(os.path.join(root, PROTOCOL_MODULE)):
        return []                   # no wire codec, no shipped values
    kinds = _canonical_kinds(root)
    if kinds is None:
        return [Finding(
            "error", "canonical-kinds-untracked", None,
            "%s declares no CANONICAL_KINDS tuple — the value-walker "
            "invariant has nothing to check against"
            % MULTIPROC_MODULE)]
    findings = []
    for kind in kinds:
        if kind not in KIND_TOKENS:
            findings.append(Finding(
                "error", "canonical-kind-unknown", None,
                "%s lists kind %r but selfcheck.KIND_TOKENS does not "
                "say how walkers name it — no walker can be checked "
                "for it" % (MULTIPROC_MODULE, kind)))
    for rel, name, defaults in VALUE_WALKERS:
        path = os.path.join(root, rel)
        function = None
        if os.path.isfile(path):
            function = next(
                (node for node in ast.walk(_parse(path))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == name), None)
        if function is None:
            findings.append(Finding(
                "error", "value-walker-missing", None,
                "%s no longer defines %s() — update "
                "selfcheck.VALUE_WALKERS to wherever shipped values "
                "are walked now" % (rel, name)))
            continue
        tokens = _tokens_named(function)
        for kind in kinds:
            if kind in defaults or kind not in KIND_TOKENS:
                continue
            if not tokens & set(KIND_TOKENS[kind]):
                findings.append(Finding(
                    "error", "canonical-value-walkers", None,
                    "%s:%d: %s() has no branch for canonical kind %r "
                    "(looked for %s) — handle it, or record in "
                    "selfcheck.VALUE_WALKERS that its fall-through "
                    "covers the kind"
                    % (rel, function.lineno, name, kind,
                       "/".join(KIND_TOKENS[kind]))))
    return findings


# ----------------------------------------------------------------------
def run_selfcheck(root=None):
    """All invariant findings for the tree (empty list = clean)."""
    root = root or repo_root()
    findings = []
    findings += check_chaos_coverage(root)
    findings += check_error_taxonomy(root)
    findings += check_bare_excepts(root)
    findings += check_fsync_before_rename(root)
    findings += check_sql_lowering_totality(root)
    findings += check_serving_path_accounting(root)
    findings += check_canonical_value_walkers(root)
    return findings
