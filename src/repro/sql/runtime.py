"""Execution of lowered SQL queries.

A lowered query is a list of *phases*, mirroring how the hand-written
TPC-D drivers in :mod:`repro.tpcd.queries` handle SQL's scalar
subqueries (Q11/Q14/Q15 are two-phase there): each phase is either

* a ``moa`` phase — a MOA set or aggregate tree, possibly containing
  :class:`Hole` placeholders to be filled with the scalar results of
  earlier phases (as typed literals), compiled and executed through
  the exact pipeline the Moa text path uses (resolve -> rewrite ->
  verify -> MIL); or
* a ``py`` phase — scalar arithmetic combining earlier phase results
  in Python, e.g. Q14's ``100.0 * promo / total`` (no MIL operator
  works on two scalars, and doing this in Python is precisely what
  the Moa drivers do).

The query's result is the last phase's value.  :class:`PreparedSql`
is the serving-path object: hole-free phases compile once (and pass
admission budgets once); holed phases re-resolve per execution after
their literals are known.
"""

from ..analysis.verify import catalog_stats_from_kernel
from ..errors import SqlUnsupportedError
from ..moa import ast as moa_ast
from ..moa.rewriter import rewrite
from ..moa.typecheck import resolve
from ..monet.optimizer import literal_key


class Hole(moa_ast.Node):
    """Placeholder for the scalar result of an earlier phase; replaced
    by a typed :class:`~repro.moa.ast.Literal` before resolution."""

    __slots__ = ("index", "atom_name")

    def __init__(self, index, atom_name):
        self.index = index
        self.atom_name = atom_name

    def render(self):
        return "$%d" % self.index


class PhaseRef(moa_ast.Node):
    """Reference to an earlier phase's value inside a ``py`` phase."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def render(self):
        return "$%d" % self.index


class MoaPhase:
    __slots__ = ("tree",)
    kind = "moa"

    def __init__(self, tree):
        self.tree = tree

    @property
    def has_holes(self):
        return any(isinstance(n, Hole) for n in moa_ast.walk(self.tree))

    def render(self):
        return self.tree.render()


class PyPhase:
    """Scalar combination of earlier phases: a tree of PhaseRef,
    Literal, BinOp(+,-,*,/) and UnOp(neg) nodes."""

    __slots__ = ("expr",)
    kind = "py"

    def __init__(self, expr):
        self.expr = expr

    def render(self):
        return self.expr.render()


class LoweredQuery:
    """Ordered phases; the last phase's value is the query result."""

    __slots__ = ("phases", "text")

    def __init__(self, phases, text=None):
        self.phases = list(phases)
        self.text = text

    def render(self):
        return "\n".join("phase %d [%s]: %s" % (i, p.kind, p.render())
                         for i, p in enumerate(self.phases))


# ----------------------------------------------------------------------
# hole substitution (structure-preserving MOA tree copy)
# ----------------------------------------------------------------------
def _copy_moa(node, fill):
    a = moa_ast
    if isinstance(node, Hole):
        return fill(node)
    if isinstance(node, a.Extent):
        return a.Extent(node.class_name)
    if isinstance(node, a.Select):
        return a.Select(_copy_moa(node.input, fill),
                        [_copy_moa(p, fill) for p in node.predicates])
    if isinstance(node, a.Project):
        return a.Project(_copy_moa(node.input, fill),
                         [(_copy_moa(e, fill), n)
                          for e, n in node.items])
    if isinstance(node, a.Join):
        return a.Join(_copy_moa(node.left, fill),
                      _copy_moa(node.right, fill),
                      _copy_moa(node.left_key, fill),
                      _copy_moa(node.right_key, fill))
    if isinstance(node, a.Semijoin):
        return a.Semijoin(_copy_moa(node.left, fill),
                          _copy_moa(node.right, fill),
                          _copy_moa(node.left_key, fill),
                          _copy_moa(node.right_key, fill),
                          anti=node.anti)
    if isinstance(node, a.SetOp):
        return a.SetOp(node.kind, _copy_moa(node.left, fill),
                       _copy_moa(node.right, fill))
    if isinstance(node, a.Nest):
        return a.Nest(_copy_moa(node.input, fill),
                      [(_copy_moa(e, fill), n) for e, n in node.keys],
                      node.group_name)
    if isinstance(node, a.Unnest):
        return a.Unnest(_copy_moa(node.input, fill), node.attr)
    if isinstance(node, a.Sort):
        return a.Sort(_copy_moa(node.input, fill),
                      [(_copy_moa(e, fill), d) for e, d in node.keys])
    if isinstance(node, a.Top):
        return a.Top(_copy_moa(node.input, fill), node.n)
    if isinstance(node, a.Element):
        return a.Element()
    if isinstance(node, a.Name):
        return a.Name(node.name)
    if isinstance(node, a.Attr):
        return a.Attr(_copy_moa(node.base, fill), node.name)
    if isinstance(node, a.Pos):
        return a.Pos(_copy_moa(node.base, fill), node.index)
    if isinstance(node, a.Literal):
        return a.Literal(node.value, node.atom_name)
    if isinstance(node, a.BinOp):
        return a.BinOp(node.op, _copy_moa(node.left, fill),
                       _copy_moa(node.right, fill))
    if isinstance(node, a.UnOp):
        return a.UnOp(node.op, _copy_moa(node.operand, fill))
    if isinstance(node, a.Call):
        return a.Call(node.fname,
                      [_copy_moa(x, fill) for x in node.args])
    if isinstance(node, a.Aggregate):
        return a.Aggregate(node.func, _copy_moa(node.input, fill))
    if isinstance(node, a.TupleCons):
        return a.TupleCons([(_copy_moa(e, fill), n)
                            for e, n in node.items])
    if isinstance(node, a.In):
        return a.In(_copy_moa(node.item, fill),
                    _copy_moa(node.input, fill))
    raise SqlUnsupportedError("cannot copy MOA node %r" % node)


def fill_holes(tree, values, filled=None):
    """A copy of ``tree`` with every Hole replaced by a Literal; each
    literal's value is appended to ``filled`` when a list is given."""
    def fill(hole):
        value = _coerce(values[hole.index], hole.atom_name)
        if filled is not None:
            filled.append(value)
        return moa_ast.Literal(value, hole.atom_name)
    return _copy_moa(tree, fill)


def _coerce(value, atom_name):
    if value is None:
        raise SqlUnsupportedError(
            "a scalar subquery produced no value (empty input)")
    if atom_name == "double":
        return float(value)
    if atom_name in ("int", "long"):
        return int(value)
    return value


# ----------------------------------------------------------------------
# py-phase evaluation (mirrors the drivers' float arithmetic)
# ----------------------------------------------------------------------
def eval_py(expr, values):
    a = moa_ast
    if isinstance(expr, PhaseRef):
        value = values[expr.index]
        if value is None:
            return None
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return int(value)
        try:
            return float(value)
        except (TypeError, ValueError):
            return value
    if isinstance(expr, a.Literal):
        return expr.value
    if isinstance(expr, a.BinOp):
        left = eval_py(expr.left, values)
        right = eval_py(expr.right, values)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            # the Q14 driver's convention: x / 0 -> 0.0, not an error
            return left / right if right else 0.0
        raise SqlUnsupportedError("py phase cannot apply %r" % expr.op)
    if isinstance(expr, a.UnOp) and expr.op == "neg":
        return -eval_py(expr.operand, values)
    raise SqlUnsupportedError("py phase cannot evaluate %r" % expr)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
class PreparedSql:
    """A lowered SQL query bound to a database, ready to re-execute.

    Hole-free moa phases are compiled (resolve + rewrite, whose single
    verification also enforces ``budget``) once here, so a rejected
    plan never gets cached — matching what the plan cache does for Moa
    text.  Holed phases are compiled once their literals are known
    (they are tiny scalar-threshold queries; the heavy phases have no
    holes), and each keeps its last plan, keyed by its literals typed
    as the optimizer keys them: a run whose scalars repeat compiles
    nothing.  A phase with an opaque literal recompiles every run.  The
    catalog stats every compile verifies against are derived once per
    prepared query, unless the caller passes them."""

    def __init__(self, db, lowered, budget=None, catalog=None):
        self.db = db
        self.lowered = lowered
        self._budget = budget
        self._catalog = catalog if catalog is not None \
            else catalog_stats_from_kernel(db.kernel)
        self._compiled = [
            self._compile(phase.tree)
            if phase.kind == "moa" and not phase.has_holes else None
            for phase in lowered.phases]
        #: phase index -> (literal key, plan) of its last holed compile
        self._holed = {}

    def _compile(self, tree):
        resolved = resolve(tree, self.db.schema)
        return rewrite(resolved, self.db.flat, catalog=self._catalog,
                       budget=self._budget)

    def run(self):
        values = []
        for index, (phase, compiled) in enumerate(
                zip(self.lowered.phases, self._compiled)):
            if phase.kind == "py":
                values.append(eval_py(phase.expr, values))
                continue
            if compiled is None:
                compiled = self._compile_holed(index, phase.tree, values)
            values.append(self.db.run_compiled(compiled))
        return values[-1]

    def _compile_holed(self, index, tree, values):
        """The plan of a holed phase for the literals ``values`` fill
        in: its last plan when they key the same, else a fresh compile,
        kept only once it passed verification."""
        filled = []
        tree = fill_holes(tree, values, filled)
        key = tuple(literal_key(value) for value in filled)
        last = self._holed.get(index)
        if last is not None and last[0] == key:
            return last[1]
        compiled = self._compile(tree)
        if None not in key:
            self._holed[index] = (key, compiled)
        return compiled


def prepare_sql(db, text, budget=None, catalog=None):
    """Parse, bind and lower SQL text against ``db``; returns a
    :class:`PreparedSql`."""
    from .lower import lower_sql
    from .parser import parse_sql
    lowered = lower_sql(parse_sql(text))
    lowered.text = text
    return PreparedSql(db, lowered, budget=budget, catalog=catalog)


def execute_sql(db, text):
    """One-shot: parse, lower, execute; returns rows (or the scalar
    for aggregate-only queries), exactly like the Moa path."""
    return prepare_sql(db, text).run()
