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
"""

import numpy as np

from ...errors import OperatorError
from .. import atoms as _atoms
from ..buffer import get_manager
from ..column import FixedColumn, equality_keys
from ..properties import Props
from ..vectorized import grouped_sum, grouped_weighted_sum, membership_mask
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
    ``hkey`` and ``hordered`` are set by construction.  The grouping
    of the head is computed once per head *column*: ``{sum}``,
    ``{avg}`` and ``{count}`` over BATs sharing one head (what synced
    joins and total semijoins produce) factorize it only the first
    time.
    """
    if func not in AGGREGATES:
        raise OperatorError("unknown aggregate %r" % func)
    manager = get_manager()
    with manager.operator("{%s}" % func):
        manager.access_column(ab.head)
        manager.access_column(ab.tail)
        first_pos, inverse, n_groups = _grouping(ab.head)
        head = ab.head.take(first_pos)
        tail = _grouped(func, ab.tail, inverse, n_groups)
    # heads come out in ascending key order; for var-size atoms key
    # order is heap order, not value order, so ordered cannot be set
    props = Props(hkey=True, hordered=not ab.head.atom.varsized)
    return result_bat(head, tail, name=name, props=props)


def _grouping(column):
    """``(first_pos, inverse, n_groups)`` of a head column, cached on it."""
    if column.grouping is None:
        uniq, first_pos, inverse = np.unique(
            column.keys(), return_index=True, return_inverse=True)
        column.grouping = (first_pos, inverse.astype(np.int64), len(uniq))
    return column.grouping


def _grouped(func, tail_col, inverse, n_groups):
    if func == "count":
        counts = np.bincount(inverse, minlength=n_groups)
        return FixedColumn(_atoms.LONG, counts.astype(np.int64))
    if func == "sum":
        atom = _sum_atom(tail_col.atom)
        if atom.dtype.kind in "iu":
            values = np.asarray(tail_col.logical(), dtype=np.int64)
            # bincount accumulates in float64: exact only while every
            # partial sum stays below 2**53.  Otherwise fall back to
            # the all-integer argsort + reduceat kernel.
            bound = int(np.abs(values).max()) * len(values) if \
                len(values) else 0
            if bound >= 2 ** 53:
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
        counts = np.bincount(inverse, minlength=n_groups)
        return FixedColumn(_atoms.DOUBLE, sums / np.maximum(counts, 1))
    # min / max via order ranks so strings work too
    ranks = np.asarray(tail_col.order_keys())
    extreme = np.full(n_groups, -1, dtype=np.int64)
    order = np.argsort(ranks, kind="stable")
    if func == "min":
        # walk descending rank so the smallest overwrites last
        order = order[::-1]
    np_positions = np.arange(len(ranks), dtype=np.int64)[order]
    extreme[inverse[order]] = np_positions
    if np.any(extreme < 0):
        raise OperatorError("aggregate over empty group")
    return tail_col.take(extreme)


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
        if func in ("sum", "avg"):
            values = np.asarray(ab.tail.logical(), dtype=np.float64)
            total = float(values.sum())
            if func == "sum":
                if ab.tail.atom.name in ("short", "int", "long"):
                    return int(round(total))
                return total
            return total / n
        ranks = np.asarray(ab.tail.order_keys())
        position = int(np.argmin(ranks) if func == "min"
                       else np.argmax(ranks))
        return ab.tail.value(position)
