"""Declarative operator signatures for every MIL instruction.

Each entry in :data:`SIGNATURES` describes one op of the evaluator's
dispatch table (:data:`repro.monet.mil._OPS`): accepted argument
counts, operand kinds (BAT vs literal), the statically checkable type
constraints the kernel enforces at run time (varsized-comparability of
join columns, aggregable tail atoms, registered multiplex functions,
coercible selection literals, ...), and how the result's head/tail
atoms, properties and cardinality bound derive from the operands.

The registry is asserted complete against ``mil._OPS`` at import time
(and again in the test suite), so adding a MIL operator without a
signature — or a signature without its ``pure`` bit, which decides
whether the optimizer may merge two identical statements — fails
loudly instead of silently weakening the verifier or the optimizer.

The rules are deliberately *no stricter than the kernel*: a plan is
only rejected for conditions that make execution certain to raise.
Data-dependent failures (e.g. ``fillzero`` padding a string aggregate
only when a group is missing) stay runtime concerns — the verifier
must never reject a plan the evaluator would accept.
"""

from ..errors import AtomError, OperatorError
from ..monet import atoms as _atoms
from ..monet import mil as _mil
from ..monet.operators.aggregate import AGGREGATES
from ..monet.operators.multiplex import get_function

#: Atoms whose tails ``{sum}`` accepts (see ``aggregate._sum_atom``).
SUMMABLE = ("short", "int", "long", "float", "double")


class SignatureError(Exception):
    """One statically certain signature violation (internal to the
    analysis package; the verifier converts it into a Finding)."""


class AnyValue:
    """An operand about which nothing is known statically (an unbound
    name verified without a catalog).  Passes every check."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ANY"


#: The "no static knowledge" operand.
ANY = AnyValue()


class ScalarType:
    """Abstract value of an ``aggr_all`` result: a Python scalar.

    ``atom`` is the atom name the value would coerce to, or ``None``
    when unknown (min/max over an unknown tail, or a possibly-``None``
    result of an empty aggregate)."""

    __slots__ = ("atom",)

    def __init__(self, atom=None):
        self.atom = atom

    def __repr__(self):
        return "scalar(%s)" % (self.atom or "?")


class BatType:
    """Abstract value of a BAT: atom names, properties, cardinality.

    ``head``/``tail`` are atom names or ``None`` (unknown).  ``count``
    is an upper bound on the number of BUNs (``None`` = unbounded);
    ``count_exact`` marks bounds that are exact (base catalog BATs and
    results of cardinality-preserving ops), which is what licenses
    "certainly non-empty" conclusions.  The property flags are
    tri-state: ``True`` = guaranteed, ``None`` = unknown (``False``
    never arises statically — a property can fail to be guaranteed,
    not be guaranteed absent)."""

    __slots__ = ("head", "tail", "count", "count_exact",
                 "hkey", "tkey", "hordered", "tordered")

    def __init__(self, head=None, tail=None, count=None,
                 count_exact=False, hkey=None, tkey=None,
                 hordered=None, tordered=None):
        self.head = head
        self.tail = tail
        self.count = count
        self.count_exact = count_exact and count is not None
        self.hkey = hkey
        self.tkey = tkey
        self.hordered = hordered
        self.tordered = tordered

    def swapped(self):
        return BatType(self.tail, self.head, self.count,
                       self.count_exact, hkey=self.tkey, tkey=self.hkey,
                       hordered=self.tordered, tordered=self.hordered)

    def subsequence(self):
        """The type of a BUN-subsequence result (select, semijoin,
        unique, ...): atoms and order/key flags survive, the count
        becomes an upper bound."""
        return BatType(self.head, self.tail, self.count, False,
                       hkey=self.hkey, tkey=self.tkey,
                       hordered=self.hordered, tordered=self.tordered)

    def byte_width(self):
        """Bytes per BUN under the section 5.2.2 model, or ``None``."""
        widths = []
        for name in (self.head, self.tail):
            if name is None:
                return None
            widths.append(_atoms.atom(name).width)
        return sum(widths)

    def __repr__(self):
        bound = "?" if self.count is None else \
            ("%d" % self.count if self.count_exact else "<=%d" % self.count)
        return "[%s,%s]#%s" % (self.head or "?", self.tail or "?", bound)


def _varsized(name):
    return _atoms.atom(name).varsized


def _mul(a, b):
    return None if a is None or b is None else a * b


def _add(a, b):
    return None if a is None or b is None else a + b


def _min_bound(*bounds):
    known = [b for b in bounds if b is not None]
    return min(known) if known else None


def _bat(op, pos, value):
    """The operand at ``pos`` as a :class:`BatType`, or raise."""
    if isinstance(value, BatType):
        return value
    if value is ANY:
        return BatType()
    raise SignatureError(
        "%s: operand %d must be a BAT, got %s"
        % (op, pos + 1, _describe(value)))


def _describe(value):
    if isinstance(value, ScalarType):
        return "a scalar (%s)" % (value.atom or "unknown atom")
    if isinstance(value, BatType):
        return "a BAT %r" % value
    return "literal %r" % (value,)


def _is_literal(value):
    return value is not ANY and \
        not isinstance(value, (BatType, ScalarType))


def _comparable(op, what, left, right):
    """Enforce ``equality_keys`` comparability: a varsized column can
    only be matched against another varsized column."""
    if left is None or right is None:
        return
    if _varsized(left) != _varsized(right):
        raise SignatureError(
            "%s: %s compares %s with %s (varsized vs fixed-width "
            "columns can never match)" % (op, what, left, right))


def _canon(name):
    """Collapse ``void`` onto ``oid`` for compatibility checks.

    A void column *is* a dense oid sequence — the kernel materialises
    it as OID (``VoidColumn``), ``concat_columns``/``equality_keys``
    treat it as OID, and only the storage manifest distinguishes the
    two.  Width accounting keeps the distinction (void stores zero
    bytes); type compatibility must not.
    """
    return "oid" if name == "void" else name


def _same_atom(op, what, left, right):
    if left is None or right is None:
        return
    if _canon(left) != _canon(right):
        raise SignatureError(
            "%s: %s requires identical atoms, got %s vs %s"
            % (op, what, left, right))


def _coercible(op, what, atom_name, literal):
    """A selection literal must coerce into the tail atom."""
    if atom_name is None or not _is_literal(literal):
        return
    try:
        _atoms.atom(atom_name).coerce(literal)
    except AtomError as exc:
        raise SignatureError("%s: %s: %s" % (op, what, exc)) from None


def _int_literal(op, what, value, allow_missing=False):
    if not _is_literal(value):
        return
    if value is None and allow_missing:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise SignatureError(
            "%s: %s must be an integer, got %r" % (op, what, value))


# ----------------------------------------------------------------------
# per-op result rules
# ----------------------------------------------------------------------
def _sig_select(stmt, args):
    ab = _bat("select", 0, args[0])
    if len(args) == 2:
        _coercible("select", "selection value", ab.tail, args[1])
        if args[1] is None and _is_literal(args[1]):
            raise SignatureError(
                "select: point selection value may not be nil")
    else:
        # a nil range bound means "open" and is always legal
        if args[1] is not None:
            _coercible("select", "low bound", ab.tail, args[1])
        if args[2] is not None:
            _coercible("select", "high bound", ab.tail, args[2])
    return ab.subsequence()


def _sig_join(stmt, args):
    ab = _bat("join", 0, args[0])
    cd = _bat("join", 1, args[1])
    _comparable("join", "tail against head", ab.tail, cd.head)
    bound = _mul(ab.count, cd.count)
    if cd.hkey:
        bound = _min_bound(bound, ab.count)
    if ab.tkey:
        bound = _min_bound(bound, cd.count)
    hkey = True if (ab.hkey and cd.hkey) else None
    return BatType(ab.head, cd.tail, bound,
                   hkey=hkey, hordered=ab.hordered)


def _sig_semijoin(stmt, args):
    ab = _bat("semijoin", 0, args[0])
    cd = _bat("semijoin", 1, args[1])
    _comparable("semijoin", "head against head", ab.head, cd.head)
    out = ab.subsequence()
    if ab.hkey:
        out.count = _min_bound(ab.count, cd.count)
    return out


def _sig_antijoin(stmt, args):
    ab = _bat("antijoin", 0, args[0])
    cd = _bat("antijoin", 1, args[1])
    _comparable("antijoin", "head against head", ab.head, cd.head)
    return ab.subsequence()


def _sig_mirror(stmt, args):
    return _bat("mirror", 0, args[0]).swapped()


def _sig_ident(stmt, args):
    ab = _bat("ident", 0, args[0])
    return BatType(ab.head, ab.head, ab.count, ab.count_exact,
                   hkey=ab.hkey, tkey=ab.hkey,
                   hordered=ab.hordered, tordered=ab.hordered)


def _sig_unique(stmt, args):
    return _bat("unique", 0, args[0]).subsequence()


def _sig_group(stmt, args):
    if len(args) == 1:
        ab = _bat("group", 0, args[0])
        return BatType(ab.head, "oid", ab.count, ab.count_exact,
                       hkey=ab.hkey, hordered=ab.hordered)
    grp = _bat("group", 0, args[0])
    cd = _bat("group", 1, args[1])
    if grp.tail is not None and _varsized(grp.tail):
        raise SignatureError(
            "group: first operand's tail must hold group codes "
            "(integer-valued), got %s" % grp.tail)
    _comparable("group", "head against head", grp.head, cd.head)
    return BatType(grp.head, "oid", grp.count, grp.count_exact,
                   hkey=grp.hkey, hordered=grp.hordered)


def _sig_multiplex(stmt, args):
    func = get_function(stmt.fn)     # raises OperatorError when unknown
    if func.arity is not None and len(args) != func.arity:
        raise SignatureError(
            "multiplex [%s] expects %d operands, got %d"
            % (stmt.fn, func.arity, len(args)))
    bats = [a for a in args if isinstance(a, BatType)]
    if not bats and not any(a is ANY for a in args):
        raise SignatureError(
            "multiplex [%s] needs at least one BAT operand" % stmt.fn)
    operand_atoms = []
    for value in args:
        if isinstance(value, BatType):
            operand_atoms.append(value.tail)
        elif isinstance(value, ScalarType):
            operand_atoms.append(value.atom)
        elif value is ANY:
            operand_atoms.append(None)
        else:
            operand_atoms.append(_literal_atom(stmt.fn, value))
    result = None
    if isinstance(func.result_atom, _atoms.Atom):
        result = func.result_atom.name
    elif all(name is not None for name in operand_atoms):
        try:
            result = func.result_atom(
                [_atoms.atom(name) for name in operand_atoms]).name
        except OperatorError as exc:
            raise SignatureError("multiplex [%s]: %s"
                                 % (stmt.fn, exc)) from None
    first = bats[0] if bats else BatType()
    return BatType(first.head, result, first.count,
                   hordered=first.hordered)


def _literal_atom(fn, value):
    """Atom of a broadcast scalar literal (``multiplex._scalar_atom``)."""
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int" if -(2 ** 31) <= value < 2 ** 31 else "long"
    if isinstance(value, float):
        return "double"
    if isinstance(value, str):
        return "string"
    raise SignatureError("multiplex [%s]: cannot type scalar operand %r"
                         % (fn, value))


def _check_aggregate_fn(op, fn):
    if fn not in AGGREGATES:
        raise SignatureError("%s: unknown aggregate %r (supported: %s)"
                             % (op, fn, ", ".join(AGGREGATES)))


def _sig_aggr(stmt, args):
    _check_aggregate_fn("aggr", stmt.fn)
    ab = _bat("aggr", 0, args[0])
    tail = ab.tail
    if stmt.fn == "sum":
        if tail is not None and tail not in SUMMABLE:
            raise SignatureError("aggr: cannot sum %s values" % tail)
        out_tail = None if tail is None else \
            ("long" if tail in ("short", "int", "long") else "double")
    elif stmt.fn == "avg":
        if tail is not None and _varsized(tail) and \
                ab.count_exact and ab.count > 0:
            raise SignatureError(
                "aggr: cannot average %s values" % tail)
        out_tail = "double"
    elif stmt.fn == "count":
        out_tail = "long"
    else:                                    # min / max
        out_tail = tail
    hordered = None
    if ab.head is not None:
        hordered = True if not _varsized(ab.head) else None
    return BatType(ab.head, out_tail, ab.count,
                   hkey=True, hordered=hordered)


def _sig_fillzero(stmt, args):
    agg = _bat("fillzero", 0, args[0])
    carrier = _bat("fillzero", 1, args[1])
    _comparable("fillzero", "carrier head against aggregate head",
                carrier.head, agg.head)
    return BatType(agg.head, agg.tail, _add(agg.count, carrier.count),
                   hkey=True)


def _sig_aggr_all(stmt, args):
    _check_aggregate_fn("aggr_all", stmt.fn)
    ab = _bat("aggr_all", 0, args[0])
    tail = ab.tail
    if stmt.fn in ("sum", "avg") and tail is not None \
            and _varsized(tail) and ab.count_exact and ab.count > 0:
        raise SignatureError("aggr_all: cannot %s %s values"
                             % (stmt.fn, tail))
    if stmt.fn == "count":
        return ScalarType("long")
    if stmt.fn == "avg":
        return ScalarType("double")
    if stmt.fn == "sum":
        if tail in ("short", "int", "long"):
            return ScalarType("long")
        if tail in ("float", "double"):
            return ScalarType("double")
        return ScalarType(None)
    return ScalarType(tail)                  # min / max


def _sig_mark(stmt, args):
    ab = _bat("mark", 0, args[0])
    if len(args) > 1:
        _int_literal("mark", "oid base", args[1])
    return BatType(ab.head, "void", ab.count, ab.count_exact,
                   hkey=ab.hkey, hordered=ab.hordered,
                   tkey=True, tordered=True)


def _sig_number(stmt, args):
    ab = _bat("number", 0, args[0])
    if len(args) > 1:
        _int_literal("number", "oid base", args[1])
    return BatType("void", ab.tail, ab.count, ab.count_exact,
                   hkey=True, hordered=True,
                   tkey=ab.tkey, tordered=ab.tordered)


def _sig_pairjoin(stmt, args):
    if len(args) < 2 or len(args) % 2:
        raise SignatureError(
            "pairjoin needs an even number of key columns, got %d"
            % len(args))
    half = len(args) // 2
    lefts = [_bat("pairjoin", i, args[i]) for i in range(half)]
    rights = [_bat("pairjoin", half + i, args[half + i])
              for i in range(half)]
    for side_name, side in (("left", lefts), ("right", rights)):
        for i, bat in enumerate(side[1:], start=2):
            _comparable("pairjoin",
                        "%s key column %d head against the side's "
                        "first head" % (side_name, i),
                        side[0].head, bat.head)
    for slot, (lbat, rbat) in enumerate(zip(lefts, rights), start=1):
        _comparable("pairjoin", "key slot %d" % slot,
                    lbat.tail, rbat.tail)
    return BatType("oid", "oid",
                   _mul(lefts[0].count, rights[0].count),
                   hordered=True)


def _sig_sortby(stmt, args):
    if not args:
        raise SignatureError("sortby needs a carrier BAT")
    carrier = _bat("sortby", 0, args[0])
    rest = args[1:]
    if len(rest) % 2:
        raise SignatureError("sortby expects (key, desc) pairs")
    for i in range(0, len(rest), 2):
        key = _bat("sortby", 1 + i, rest[i])
        if key.count_exact and carrier.count_exact \
                and key.count != carrier.count:
            raise SignatureError(
                "sortby: key %d has %d BUNs but the carrier has %d"
                % (i // 2 + 1, key.count, carrier.count))
    return BatType(carrier.head, carrier.tail, carrier.count,
                   carrier.count_exact, hkey=carrier.hkey,
                   tkey=carrier.tkey)


def _sig_slice(stmt, args):
    ab = _bat("slice", 0, args[0])
    _int_literal("slice", "low position", args[1])
    _int_literal("slice", "high position", args[2])
    window = None
    if _is_literal(args[1]) and _is_literal(args[2]):
        window = max(0, args[2] - max(0, args[1]))
    out = ab.subsequence()
    out.count = _min_bound(ab.count, window)
    return out


def _sig_union(stmt, args):
    ab = _bat("union", 0, args[0])
    cd = _bat("union", 1, args[1])
    _same_atom("union", "head concatenation", ab.head, cd.head)
    _same_atom("union", "tail concatenation", ab.tail, cd.tail)
    return BatType(ab.head or cd.head, ab.tail or cd.tail,
                   _add(ab.count, cd.count))


class Signature:
    """One operator's static signature.

    ``arities`` is the set of accepted argument counts, or ``None``
    for variadic ops (which validate their own shape in ``rule``);
    ``rule`` maps ``(stmt, abstract_args)`` to the abstract result,
    raising :class:`SignatureError` on a statically certain violation.
    ``pure`` (required, no default) says the op's result depends on
    nothing but its operands and has no effect besides being returned;
    only pure statements may be merged by the optimizer's
    common-subexpression pass, so an effectful op added later cannot be
    deduplicated silently.
    """

    __slots__ = ("op", "arities", "rule", "pure")

    def __init__(self, op, arities, rule, pure):
        self.op = op
        self.arities = frozenset(arities) if arities is not None else None
        self.rule = rule
        self.pure = pure

    def check(self, stmt, args):
        """Abstract result of ``stmt`` applied to abstract ``args``."""
        if self.arities is not None and len(args) not in self.arities:
            raise SignatureError(
                "%s expects %s argument(s), got %d"
                % (self.op,
                   " or ".join(str(n) for n in sorted(self.arities)),
                   len(args)))
        try:
            return self.rule(stmt, args)
        except OperatorError as exc:
            raise SignatureError("%s: %s" % (self.op, exc)) from None


#: op name -> :class:`Signature`, complete over ``mil._OPS``.  Every
#: BAT-algebra primitive materialises a fresh result from its operands
#: and never mutates them (section 4.2), so all of them are pure.
SIGNATURES = {
    "select": Signature("select", (2, 3, 5), _sig_select, pure=True),
    "join": Signature("join", (2,), _sig_join, pure=True),
    "semijoin": Signature("semijoin", (2,), _sig_semijoin, pure=True),
    "antijoin": Signature("antijoin", (2,), _sig_antijoin, pure=True),
    "mirror": Signature("mirror", (1,), _sig_mirror, pure=True),
    "ident": Signature("ident", (1,), _sig_ident, pure=True),
    "unique": Signature("unique", (1,), _sig_unique, pure=True),
    "group": Signature("group", (1, 2), _sig_group, pure=True),
    "multiplex": Signature("multiplex", None, _sig_multiplex, pure=True),
    "aggr": Signature("aggr", (1,), _sig_aggr, pure=True),
    "fillzero": Signature("fillzero", (2,), _sig_fillzero, pure=True),
    "aggr_all": Signature("aggr_all", (1,), _sig_aggr_all, pure=True),
    "mark": Signature("mark", (1, 2), _sig_mark, pure=True),
    "number": Signature("number", (1, 2), _sig_number, pure=True),
    "pairjoin": Signature("pairjoin", None, _sig_pairjoin, pure=True),
    "sortby": Signature("sortby", None, _sig_sortby, pure=True),
    "slice": Signature("slice", (3,), _sig_slice, pure=True),
    "union": Signature("union", (2,), _sig_union, pure=True),
}


def signature_for(op):
    """The :class:`Signature` of a MIL op; raises ``KeyError`` for
    unknown ops (the verifier reports those as findings)."""
    return SIGNATURES[op]


def _assert_complete():
    ops = set(_mil._OPS)
    signed = set(SIGNATURES)
    missing = ops - signed
    extra = signed - ops
    if missing or extra:
        raise AssertionError(
            "operator signature registry out of sync with mil._OPS: "
            "missing %s, extra %s"
            % (sorted(missing) or "none", sorted(extra) or "none"))
    undeclared = sorted(op for op, signature in SIGNATURES.items()
                        if not isinstance(signature.pure, bool))
    if undeclared:
        raise AssertionError(
            "operator signatures without a boolean pure bit: %s"
            % ", ".join(undeclared))


_assert_complete()
