"""Aggregation: the set-aggregate ``{g}(AB)`` of Figure 4 plus scalar
aggregates.

"The set-aggregate constructor is used for bulk aggregation ... the
set-aggregate version {Y}() groups over the head of the BAT and
calculates for each formed set of tail values an aggregate result.
With this construct, we can execute nested aggregates in one go,
rather than having to do iterative calls to some function on nested
collections."

Supported aggregate functions: ``sum, count, avg, min, max``.  Grouped
min/max on variable-size atoms (strings) work through the heap's value
ranks, so every comparable atom is supported.

Nothing here sorts on the common path, and a grouped aggregate pays
O(rows) once per head column, in its grouping.  The head's grouping is
:func:`~repro.monet.vectorized.grouping`: a direct-address pass for
integer keys with a compact span (oids, group ids, heap indices), with
``np.unique`` only for wide spans and floats.  It is cached on the head
column with each group's first position and row count, so ``{count}``
and ``{avg}`` reuse the counts rather than recount them.

Grouped min/max first checks whether every tail key equals its group's
first key — what the rewriter's key extraction (``{min}`` of the
grouping attribute per group) always meets.  Then the minimum is the
tail at each group's first position and the maximum the tail at its
last: exactly the tie rule below, so ``-0.0``/``0.0`` ties stay
byte-exact, and NaN keys, equal to nothing, never qualify.  A bounded
prefix is compared first, so a tail that varies inside its groups
pays almost nothing for the test.  Otherwise min/max over integer
ranks (ints, oids, and strings through heap ranks) is an O(n)
scatter-reduce (:func:`~repro.monet.vectorized.grouped_extreme`); float
ranks keep a stable argsort.
"""

import numpy as np

from ...errors import OperatorError
from .. import atoms as _atoms
from ..buffer import get_manager
from ..column import FixedColumn, equality_keys
from ..properties import Props
from ..vectorized import (grouped_extreme, grouped_sum, grouped_weighted_sum,
                          grouping, membership_mask)
from .common import result_bat

AGGREGATES = ("sum", "count", "avg", "min", "max")


def _sum_atom(atom):
    if atom.name in ("short", "int", "long"):
        return _atoms.LONG
    if atom.name in ("float", "double"):
        return _atoms.DOUBLE
    raise OperatorError("cannot sum %s values" % atom.name)


def set_aggregate(func, ab, name=None):
    """``{func}(AB)``: one aggregate per distinct head value.

    The result head holds the distinct head values in ascending order;
    ``hkey`` and ``hordered`` are set by construction.  NaN heads
    follow IEEE semantics like ``group``: each is its own group, placed
    after the others, and such a head declares neither flag.  The
    grouping of the head is computed once per head *column*:
    aggregates over BATs sharing one head (what synced joins and total
    semijoins produce) derive it only the first time.  Min and max
    take the first position among tied minima and the last among tied
    maxima.
    """
    if func not in AGGREGATES:
        raise OperatorError("unknown aggregate %r" % func)
    manager = get_manager()
    with manager.operator("{%s}" % func):
        manager.access_column(ab.head)
        manager.access_column(ab.tail)
        grouping = _grouping(ab.head)
        head = ab.head.take(grouping[1])
        tail = _grouped(func, ab.tail, grouping)
    # heads come out in ascending key order; for var-size atoms key
    # order is heap order, not value order, so ordered cannot be set.
    # NaN heads (one group each, after the others) are neither a key
    # nor ordered as verify sees them (NaN != NaN).
    keys = head.keys()
    nan_heads = keys.dtype.kind == "f" and bool(np.isnan(keys).any())
    props = Props(hkey=not nan_heads,
                  hordered=not (nan_heads or ab.head.atom.varsized))
    return result_bat(head, tail, name=name, props=props)


def _grouping(column):
    """``(inverse, first_pos, n_groups, counts)`` of a head column,
    cached on it."""
    if column.grouping is None:
        column.grouping = grouping(column.keys())
    return column.grouping


def _grouped(func, tail_col, grouping):
    inverse, first_pos, n_groups, counts = grouping
    if func == "count":
        return FixedColumn(_atoms.LONG, counts)
    if func == "sum":
        atom = _sum_atom(tail_col.atom)
        if atom.dtype.kind in "iu":
            values = np.asarray(tail_col.logical(), dtype=np.int64)
            # bincount accumulates in float64: exact only while every
            # partial sum stays below 2**53.  Otherwise fall back to
            # the all-integer argsort + reduceat kernel.
            if _magnitude_bound(values) >= 2 ** 53:
                return FixedColumn(atom, grouped_sum(values, inverse,
                                                     n_groups))
            sums = grouped_weighted_sum(inverse, values, n_groups)
            return FixedColumn(atom, sums.astype(atom.dtype))
        values = np.asarray(tail_col.logical(), dtype=np.float64)
        sums = grouped_weighted_sum(inverse, values, n_groups)
        return FixedColumn(atom, sums.astype(atom.dtype))
    if func == "avg":
        values = np.asarray(tail_col.logical(), dtype=np.float64)
        sums = grouped_weighted_sum(inverse, values, n_groups)
        return FixedColumn(_atoms.DOUBLE, sums / np.maximum(counts, 1))
    extreme = _constant_extreme(func, tail_col.keys(), inverse, first_pos)
    if extreme is None:
        # min / max via order ranks so strings work too
        extreme = grouped_extreme(func, tail_col.order_keys(), inverse,
                                  n_groups)
    if np.any((extreme < 0) | (extreme >= len(tail_col))):
        raise OperatorError("aggregate over empty group")
    return tail_col.take(extreme)


#: rows of a tail compared with their groups' first keys before the
#: whole column is: a tail that varies inside its groups shows it early
_CONSTANT_PROBE = 1024


def _constant_extreme(func, keys, inverse, first_pos):
    """Each group's min (first) or max (last) position when every key
    equals its group's first key, else ``None``."""
    first_keys = keys[first_pos]
    probe = _CONSTANT_PROBE
    if not (np.array_equal(keys[:probe], first_keys[inverse[:probe]])
            and np.array_equal(keys[probe:],
                               first_keys[inverse[probe:]])):
        return None
    if func == "min":
        return first_pos
    last = np.full(len(first_pos), -1, dtype=np.int64)
    np.maximum.at(last, inverse, np.arange(len(inverse), dtype=np.int64))
    return last


def _magnitude_bound(values):
    """``max |v| * len(values)`` of int64 values, in Python ints (so
    ``-2**63`` does not wrap): no partial sum exceeds it."""
    if not len(values):
        return 0
    return max(-int(values.min()), int(values.max())) * len(values)


def fill_zero(agg, carrier, name=None):
    """Extend a grouped aggregate with 0 for missing carrier heads.

    ``{count}``/``{sum}`` over a ``[owner, elem]`` index only produce
    BUNs for owners that own at least one element; SQL (and MOA's
    logical semantics) give empty groups a count/sum of 0.  This
    operator unions ``[owner, 0]`` for every carrier head absent from
    the aggregate, keeping the result head-unique.
    """
    manager = get_manager()
    with manager.operator("fillzero"):
        manager.access_column(agg.head)
        manager.access_column(carrier.head)
        carrier_keys, agg_keys = equality_keys(carrier.head, agg.head)
        absent = np.nonzero(~membership_mask(carrier_keys, agg_keys))[0]
        missing = [carrier.head.value(int(pos)) for pos in absent]
    if not missing:
        out = agg.take(np.arange(len(agg), dtype=np.int64), name=name)
        out.props = agg.props.copy()
        return out
    from ..bat import bat_from_columns_values, concat_bats
    zero = 0.0 if agg.tail.atom.name in ("float", "double") else 0
    extra = bat_from_columns_values(agg.head.atom, missing,
                                    agg.tail.atom, [zero] * len(missing))
    out = concat_bats([agg, extra], name=name)
    out.props = Props(hkey=True)
    return out


def aggregate_all(func, ab):
    """Scalar aggregate over the whole tail column; returns a Python
    value (``None`` for min/max/avg of an empty BAT, 0 for sum/count).
    """
    if func not in AGGREGATES:
        raise OperatorError("unknown aggregate %r" % func)
    manager = get_manager()
    with manager.operator("%s()" % func):
        manager.access_column(ab.tail)
        n = len(ab)
        if func == "count":
            return n
        if n == 0:
            return 0 if func == "sum" else None
        if func == "sum" and ab.tail.atom.name in ("short", "int", "long"):
            # exact: int64 while no partial sum can leave it, else
            # Python ints
            values = np.asarray(ab.tail.logical(), dtype=np.int64)
            if _magnitude_bound(values) < 2 ** 63:
                return int(values.sum())
            return sum(values.tolist())
        if func in ("sum", "avg"):
            values = np.asarray(ab.tail.logical(), dtype=np.float64)
            total = float(values.sum())
            return total if func == "sum" else total / n
        # one group: the tie and NaN rules of the grouped {min}/{max}
        position = grouped_extreme(func, ab.tail.order_keys(),
                                   np.zeros(n, dtype=np.int64), 1)[0]
        return ab.tail.value(position)
