"""The multiplex construct ``[f](AB, ..., XY)`` (Figure 4).

"The multiplex constructor [X] allows bulk application of any algebraic
operation on all tail values of a BAT.  Multiple BAT parameters can be
given, in which case the algebraic operation is applied on all
combinations of tail values over the natural join on head values.
This operation is used to vectorize computation of expressions, and
invocation of methods."

The fast path applies when all BAT operands are mutually *synced*
(section 5.1): the natural join on heads degenerates to positional
alignment, and the whole multiplex is one vectorised numpy expression —
this is why the kernel tracks ``synced`` through semijoin chains.

A multiplex over a single string BAT runs on *heap codes*: the var
heap's double elimination already stores every distinct string once,
so the function is evaluated once per distinct value present in the
column and the per-BUN result is one integer gather through the
column's heap indices — ``[contains](names, "green")`` tests a few
thousand part names, not every BUN.  No BUN is decoded.

Scalar (non-BAT) arguments are broadcast, e.g. ``[-](1.0, discount)``.

A catalog integer column may be stored narrower than its atom (see
:func:`repro.monet.column.narrowest`); every function sees its
operands at the atom's own width, so ``int16 * int16`` cannot wrap
and a literal beyond int16 cannot overflow.

The function registry is extensible (:func:`register_function`),
mirroring MIL's run-time command extensibility.
"""

import numpy as np

from ...errors import OperatorError
from .. import atoms as _atoms
from ..buffer import get_manager
from ..column import FixedColumn, VarColumn, column_from_values
from ..optimizer import get_optimizer
from ..properties import Props, synced
from .common import result_bat
from .join import join_positions


class MultiplexFunction:
    """A bulk-appliable scalar function: numpy impl + result typing."""

    __slots__ = ("name", "impl", "result_atom", "arity")

    def __init__(self, name, impl, result_atom, arity):
        self.name = name
        self.impl = impl
        self.result_atom = result_atom
        self.arity = arity


_FUNCTIONS = {}


def register_function(name, impl, result_atom, arity):
    """Add a multiplexable function; ``result_atom`` maps operand atoms
    to the result atom (or is a fixed :class:`~repro.monet.atoms.Atom`).

    ``impl`` is a scalar function applied element by element over its
    array operands (scalars broadcast); the kernel may evaluate it once
    per distinct operand value instead of once per BUN.
    """
    if name in _FUNCTIONS:
        raise OperatorError("multiplex function %r already registered" % name)
    _FUNCTIONS[name] = MultiplexFunction(name, impl, result_atom, arity)


def get_function(name):
    try:
        return _FUNCTIONS[name]
    except KeyError:
        raise OperatorError("unknown multiplex function %r" % name) from None


def function_names():
    return sorted(_FUNCTIONS)


def multiplex(fname, *operands, name=None):
    """Apply ``[fname]`` over BAT/scalar operands (see module doc)."""
    func = get_function(fname)
    if func.arity is not None and len(operands) != func.arity:
        raise OperatorError("multiplex [%s] expects %d operands, got %d"
                            % (fname, func.arity, len(operands)))
    bats = [op for op in operands if hasattr(op, "head")]
    if not bats:
        raise OperatorError("multiplex needs at least one BAT operand")
    manager = get_manager()
    optimizer = get_optimizer()
    first = bats[0]
    all_synced = all(synced(first, other) for other in bats[1:])
    with manager.operator("multiplex[%s]" % fname):
        if all_synced and optimizer.dynamic or len(bats) == 1:
            head = first.head
            hkey = first.props.hkey
            hordered = first.props.hordered
            alignment = first.alignment
            if (len(bats) == 1 and optimizer.dynamic
                    and isinstance(first.tail, VarColumn)):
                optimizer.record("multiplex", "codes")
                manager.access_column(first.tail)
                result = _over_codes(func, operands, first.tail)
            else:
                optimizer.record("multiplex", "synced")
                arrays = []
                for op in operands:
                    if hasattr(op, "head"):
                        manager.access_column(op.tail)
                        arrays.append(_atom_width(op.tail,
                                                  op.tail.logical()))
                    else:
                        arrays.append(op)
                result = func.impl(*arrays)
        else:
            optimizer.record("multiplex", "aligned")
            head_positions, aligned = _align_on_heads(bats, manager)
            head = first.head.take(head_positions)
            arrays = []
            index = 0
            for op in operands:
                if hasattr(op, "head"):
                    arrays.append(aligned[index])
                    index += 1
                else:
                    arrays.append(op)
            hkey = all(b.props.hkey for b in bats)
            hordered = first.props.hordered
            alignment = None
            result = func.impl(*arrays)
    atom = _result_atom(func, operands)
    tail = _column_from_array(atom, result)
    props = Props(hkey=hkey, hordered=hordered)
    return result_bat(head, tail, name=name, props=props,
                      alignment=alignment)


def _over_codes(func, operands, column):
    """``func`` over the one var-column operand, evaluated once per
    distinct heap code present in ``column`` and gathered per BUN."""
    present = np.zeros(len(column.heap), dtype=bool)
    present[column.indices] = True
    codes = np.flatnonzero(present)
    distinct = column.heap.decode(codes)
    per_code = np.asarray(func.impl(*[
        distinct if hasattr(op, "head") else op for op in operands]))
    table = np.zeros(len(present), dtype=per_code.dtype)
    table[codes] = per_code
    return table[column.indices]


def _align_on_heads(bats, manager):
    """Natural join of all BATs on head values; returns positional
    carrier (positions into the first BAT) plus each BAT's tail values
    aligned to it.  Requires head-unique operands beyond the first."""
    first = bats[0]
    positions = np.arange(len(first), dtype=np.int64)
    manager.access_column(first.head)
    aligned_positions = [positions]
    for other in bats[1:]:
        if not other.props.hkey:
            raise OperatorError(
                "multiplex alignment needs head-unique operands")
        manager.access_column(other.head)
        view = result_bat(first.head.take(positions),
                          first.head.take(positions))
        left_pos, right_pos = join_positions(view, other)
        positions = positions[left_pos]
        aligned_positions = [p[left_pos] for p in aligned_positions]
        aligned_positions.append(right_pos)
    arrays = []
    for bat, pos in zip(bats, aligned_positions):
        manager.access_column(bat.tail, pos)
        arrays.append(_atom_width(bat.tail, bat.tail.logical()[pos]))
    return positions, arrays


def _atom_width(column, values):
    """``values`` of ``column`` as its atom's dtype (a no-op unless the
    column is a narrow integer one)."""
    dtype = column.atom.dtype
    if dtype is None or values.dtype == dtype:
        return values
    return values.astype(dtype)


def _result_atom(func, operands):
    if isinstance(func.result_atom, _atoms.Atom):
        return func.result_atom
    atoms_in = [op.tail.atom if hasattr(op, "head") else _scalar_atom(op)
                for op in operands]
    return func.result_atom(atoms_in)


def _scalar_atom(value):
    if isinstance(value, bool):
        return _atoms.BOOL
    if isinstance(value, int):
        return _atoms.INT if -(2**31) <= value < 2**31 else _atoms.LONG
    if isinstance(value, float):
        return _atoms.DOUBLE
    if isinstance(value, str):
        return _atoms.STRING
    raise OperatorError("cannot type scalar %r" % (value,))


def _column_from_array(atom, array):
    if atom.varsized:
        return column_from_values(atom, array)
    return FixedColumn(atom, np.asarray(array, dtype=atom.dtype))


# ----------------------------------------------------------------------
# built-in function library
# ----------------------------------------------------------------------
def _numeric_result(atoms_in):
    numeric = [a for a in atoms_in if _atoms.is_numeric(a)]
    if not numeric:
        raise OperatorError("arithmetic needs numeric operands")
    out = numeric[0]
    for spec in numeric[1:]:
        out = _atoms.common_numeric(out, spec)
    return out


def _div_result(atoms_in):
    # division always yields double, like MIL's '/' on mixed operands
    return _atoms.DOUBLE


def _first_atom(atoms_in):
    return atoms_in[0]


def _second_atom(atoms_in):
    return atoms_in[1]


def _year(days):
    dates = np.asarray(days, dtype="datetime64[D]")
    return dates.astype("datetime64[Y]").astype(np.int64) + 1970


def _month(days):
    dates = np.asarray(days, dtype="datetime64[D]")
    years = dates.astype("datetime64[Y]")
    months = dates.astype("datetime64[M]")
    return (months - years.astype("datetime64[M]")).astype(np.int64) + 1


def _str_op(fn):
    # element by element in *both* operands (a scalar broadcasts),
    # like every other function in the library
    per_pair = np.frompyfunc(fn, 2, 1)

    def impl(values, pattern):
        return np.asarray(per_pair(values, pattern), dtype=bool)
    return impl


register_function("+", lambda a, b: np.asarray(a) + np.asarray(b),
                  _numeric_result, 2)
register_function("-", lambda a, b: np.asarray(a) - np.asarray(b),
                  _numeric_result, 2)
register_function("*", lambda a, b: np.asarray(a) * np.asarray(b),
                  _numeric_result, 2)
register_function("/", lambda a, b: np.asarray(a, dtype=np.float64)
                  / np.asarray(b), _div_result, 2)
register_function("neg", lambda a: -np.asarray(a), _first_atom, 1)
register_function("=", lambda a, b: np.asarray(a == b, dtype=bool),
                  _atoms.BOOL, 2)
register_function("!=", lambda a, b: np.asarray(a != b, dtype=bool),
                  _atoms.BOOL, 2)
register_function("<", lambda a, b: np.asarray(a < b, dtype=bool),
                  _atoms.BOOL, 2)
register_function("<=", lambda a, b: np.asarray(a <= b, dtype=bool),
                  _atoms.BOOL, 2)
register_function(">", lambda a, b: np.asarray(a > b, dtype=bool),
                  _atoms.BOOL, 2)
register_function(">=", lambda a, b: np.asarray(a >= b, dtype=bool),
                  _atoms.BOOL, 2)
register_function("and", lambda a, b: np.asarray(a, dtype=bool)
                  & np.asarray(b, dtype=bool), _atoms.BOOL, 2)
register_function("or", lambda a, b: np.asarray(a, dtype=bool)
                  | np.asarray(b, dtype=bool), _atoms.BOOL, 2)
register_function("not", lambda a: ~np.asarray(a, dtype=bool),
                  _atoms.BOOL, 1)
register_function("year", _year, _atoms.INT, 1)
register_function("month", _month, _atoms.INT, 1)
register_function("startswith", _str_op(lambda v, p: v.startswith(p)),
                  _atoms.BOOL, 2)
register_function("endswith", _str_op(lambda v, p: v.endswith(p)),
                  _atoms.BOOL, 2)
register_function("contains", _str_op(lambda v, p: p in v),
                  _atoms.BOOL, 2)
register_function("ifthenelse",
                  lambda c, a, b: np.where(np.asarray(c, dtype=bool), a, b),
                  _second_atom, 3)
