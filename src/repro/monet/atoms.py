"""Atom (base) types of the Monet kernel.

The paper (section 3.1) lists Monet's atomic types as ``{bool, short,
integer, float, double, long, string}``; the kernel additionally has
``oid`` (object identifiers), ``char``, ``void`` (a zero-space dense
column, footnote 2 of the paper) and, via the ADT extension mechanism,
``instant`` (a date, used by TPC-D attributes such as ``shipdate``).

An :class:`Atom` bundles everything the kernel needs to know about a
base type:

* its numpy storage dtype (``None`` for variable-size atoms, which are
  stored through a :class:`~repro.monet.heap.VarHeap`),
* its byte width as used by the IO cost model of section 5.2.2,
* parsing and formatting of literal values,
* how to coerce Python values into the stored representation.

The registry is extensible at run time via :func:`register_atom`,
mirroring Monet's "base type extensibility" (section 2).
"""

import datetime
import math

import numpy as np

from ..errors import AtomError

#: Epoch used by the ``instant`` atom: days are counted from this date.
INSTANT_EPOCH = datetime.date(1970, 1, 1)


class Atom:
    """Description of one atomic (base) type.

    Parameters
    ----------
    name:
        Canonical name, e.g. ``"int"`` or ``"string"``.
    dtype:
        numpy dtype used for fixed-width storage, or ``None`` when the
        atom is variable-size (stored in a var heap behind an index
        column).
    width:
        Byte width of one value, as counted by the IO cost model.  For
        variable-size atoms this is the width of the heap *index*.
    parse:
        Function turning a literal string into a Python value.
    coerce:
        Function normalising arbitrary Python input into the canonical
        Python value for this atom (e.g. ``int`` -> ``float`` for
        ``double``).
    fmt:
        Function rendering a stored value back to a literal string.
    """

    __slots__ = ("name", "dtype", "width", "parse", "coerce", "fmt", "varsized")

    def __init__(self, name, dtype, width, parse, coerce, fmt):
        self.name = name
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.width = width
        self.parse = parse
        self.coerce = coerce
        self.fmt = fmt
        self.varsized = dtype is None

    def __repr__(self):
        return "Atom(%s)" % self.name

    def __eq__(self, other):
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self):
        return hash(("Atom", self.name))


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "t", "1"):
        return True
    if lowered in ("false", "f", "0"):
        return False
    raise AtomError("cannot parse %r as bool" % text)


def _coerce_bool(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise AtomError("cannot coerce %r to bool" % (value,))


def _coerce_int_factory(name, lo, hi):
    def coerce(value):
        if isinstance(value, (bool, np.bool_)):
            raise AtomError("cannot coerce bool to %s" % name)
        if isinstance(value, (int, np.integer)):
            ivalue = int(value)
            if not lo <= ivalue <= hi:
                raise AtomError("%d out of range for %s" % (ivalue, name))
            return ivalue
        raise AtomError("cannot coerce %r to %s" % (value, name))

    return coerce


def _coerce_float_factory(name, dtype):
    limit = float(np.finfo(dtype).max)

    def coerce(value):
        if isinstance(value, (bool, np.bool_)):
            raise AtomError("cannot coerce bool to %s" % name)
        if isinstance(value, (int, float, np.integer, np.floating)):
            try:
                fvalue = float(value)
            except OverflowError:           # an int beyond any double
                raise AtomError("int too large for %s" % name) from None
            # nan and +-inf are values of the atom; a finite value its
            # dtype cannot hold would silently become +-inf
            if abs(fvalue) > limit and math.isfinite(fvalue):
                raise AtomError("%r out of range for %s" % (value, name))
            return fvalue
        raise AtomError("cannot coerce %r to %s" % (value, name))

    return coerce


def _coerce_str(value):
    if isinstance(value, str):
        return value
    raise AtomError("cannot coerce %r to string" % (value,))


def _coerce_char(value):
    if isinstance(value, str) and len(value) == 1:
        return value
    raise AtomError("cannot coerce %r to char (need 1-character string)" % (value,))


def date_to_days(value):
    """Convert a :class:`datetime.date` (or ISO string) to epoch days."""
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    if isinstance(value, datetime.datetime):
        value = value.date()
    if not isinstance(value, datetime.date):
        raise AtomError("cannot coerce %r to instant" % (value,))
    return (value - INSTANT_EPOCH).days


def days_to_date(days):
    """Convert epoch days back to a :class:`datetime.date`."""
    return INSTANT_EPOCH + datetime.timedelta(days=int(days))


def _coerce_instant(value):
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return date_to_days(value)


def _fmt_instant(days):
    return days_to_date(days).isoformat()


_I16 = (-(2 ** 15), 2 ** 15 - 1)
_I32 = (-(2 ** 31), 2 ** 31 - 1)
_I64 = (-(2 ** 63), 2 ** 63 - 1)

#: The atom registry, name -> :class:`Atom`.
ATOMS = {}

#: Alternative spellings accepted by :func:`atom`.
_ALIASES = {
    "bit": "bool",
    "boolean": "bool",
    "sht": "short",
    "integer": "int",
    "lng": "long",
    "flt": "float",
    "dbl": "double",
    "str": "string",
    "chr": "char",
    "date": "instant",
}


def register_atom(spec):
    """Add an :class:`Atom` to the registry (Monet's ADT extensibility)."""
    if spec.name in ATOMS:
        raise AtomError("atom %r already registered" % spec.name)
    ATOMS[spec.name] = spec
    return spec


def atom(name):
    """Look up an atom by canonical name or alias."""
    if isinstance(name, Atom):
        return name
    key = _ALIASES.get(name, name)
    try:
        return ATOMS[key]
    except KeyError:
        raise AtomError("unknown atom type %r" % (name,)) from None


register_atom(Atom("void", None, 0, _parse_bool, _coerce_bool, str))
# void is special: it has no storage at all.  Overwrite the marker fields.
ATOMS["void"].varsized = False
ATOMS["void"].width = 0

register_atom(Atom("bool", np.bool_, 1, _parse_bool, _coerce_bool,
                   lambda v: "true" if v else "false"))
register_atom(Atom("char", None, 1, lambda t: t, _coerce_char, str))
register_atom(Atom("short", np.int16, 2, int,
                   _coerce_int_factory("short", *_I16), str))
register_atom(Atom("int", np.int32, 4, int,
                   _coerce_int_factory("int", *_I32), str))
register_atom(Atom("long", np.int64, 8, int,
                   _coerce_int_factory("long", *_I64), str))
register_atom(Atom("oid", np.int64, 8, int,
                   _coerce_int_factory("oid", 0, _I64[1]), str))
register_atom(Atom("float", np.float32, 4, float,
                   _coerce_float_factory("float", np.float32),
                   lambda v: repr(float(v))))
register_atom(Atom("double", np.float64, 8, float,
                   _coerce_float_factory("double", np.float64),
                   lambda v: repr(float(v))))
register_atom(Atom("string", None, 4, lambda t: t, _coerce_str, str))
register_atom(Atom("instant", np.int32, 4,
                   lambda t: date_to_days(t), _coerce_instant, _fmt_instant))

# char is stored through a var heap like string (single-character strings);
# its logical width for the IO model stays 1 byte.
VOID = atom("void")
BOOL = atom("bool")
CHAR = atom("char")
SHORT = atom("short")
INT = atom("int")
LONG = atom("long")
OID = atom("oid")
FLOAT = atom("float")
DOUBLE = atom("double")
STRING = atom("string")
INSTANT = atom("instant")

#: Atoms that admit a total order (all of them except void).
ORDERED_ATOMS = frozenset(
    name for name in ATOMS if name != "void"
)


def common_numeric(left, right):
    """Return the wider of two numeric atoms, for arithmetic results.

    Mirrors MIL's implicit numeric widening: ``int * double -> double``.
    Raises :class:`AtomError` when either side is not numeric.
    """
    ranking = ["short", "int", "long", "float", "double"]
    for side in (left, right):
        if side.name not in ranking:
            raise AtomError("%s is not a numeric atom" % side.name)
    return atom(ranking[max(ranking.index(left.name), ranking.index(right.name))])


def is_numeric(spec):
    """True when the atom supports arithmetic."""
    return spec.name in ("short", "int", "long", "float", "double")
