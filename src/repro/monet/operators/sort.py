"""Ordering operators: sort, multi-key sort positions, top-N slices.

Monet keeps attribute BATs *tail-sorted* ("we then reordered all tables
on tail values", section 6); :func:`sort_tail` is that reorder.  The
TPC-D queries additionally need multi-attribute ORDER BY and top-N
(Figure 9: "find top-10 valuable orders"), provided by
:func:`sort_positions` and :func:`slice_bunches`.
"""

import numpy as np

from ..buffer import get_manager
from ..column import narrow_dtype
from ..properties import Props, fresh_alignment
from .common import result_bat


def sort_tail(ab, ascending=True, name=None):
    """Stable reorder of the BUNs by tail value."""
    manager = get_manager()
    with manager.operator("sort"):
        manager.access_bat(ab)
        ranks = np.asarray(ab.tail.order_keys())
        if ab.tail.atom.varsized:
            ranks = ranks.astype(_rank_dtype(len(ab.tail.heap)),
                                 copy=False)
        order = stable_order(ranks)
        if not ascending:
            order = order[::-1]
    out = ab.take(order, name=name, alignment=fresh_alignment("sorted"))
    out.props = Props(hkey=ab.props.hkey, tkey=ab.props.tkey,
                      tordered=ascending)
    return out


def stable_order(keys):
    """``np.argsort(keys, kind="stable")``, computed faster.

    Keys of 16 bits or less take numpy's stable sort, which is a radix
    sort for them.  Wider keys (floats above all, where the stable sort
    is a merge sort) take the default sort, and a tie-fix then puts
    every run of equal keys back in position order: the run number
    and the position are sorted as one int64 ``run * n + position``.
    NaNs count as equal to each other, as the stable sort sorts them."""
    keys = np.asarray(keys)
    if keys.dtype.itemsize <= 2:
        return np.argsort(keys, kind="stable")
    n = len(keys)
    order = np.argsort(keys)
    ordered = keys[order]
    starts = ordered[1:] != ordered[:-1]
    if ordered.dtype.kind == "f":
        nan = np.isnan(ordered)
        starts &= ~(nan[1:] & nan[:-1])
    run = np.zeros(n, dtype=np.int64)
    np.cumsum(starts, out=run[1:])
    run *= n
    fixed = run + order
    fixed.sort()
    fixed -= run
    return fixed


def _rank_dtype(n_values):
    """The narrowest integer width holding ranks ``0 .. n-1``: numpy's
    stable sort takes its radix path on int16 ranks, and the
    permutation does not depend on the width."""
    return narrow_dtype(0, n_values)


def sort_head(ab, ascending=True, name=None):
    """Stable reorder of the BUNs by head value."""
    return sort_tail(ab.mirror(), ascending=ascending,
                     name=name).mirror()


def sort_positions(columns, descending=None):
    """Permutation ordering rows by multiple key columns.

    ``columns`` are :class:`~repro.monet.column.Column` objects of equal
    length; ``descending`` is a parallel list of bools (default: all
    ascending).  Later keys break ties of earlier keys, as in SQL
    ORDER BY.  Stable.
    """
    if descending is None:
        descending = [False] * len(columns)
    keys = []
    # np.lexsort sorts by the LAST key first, so feed keys reversed
    for column, desc in zip(reversed(columns), reversed(descending)):
        ranks = np.asarray(column.order_keys(), dtype=np.int64) \
            if column.atom.varsized else np.asarray(column.order_keys())
        if desc:
            if ranks.dtype.kind in "iu":
                ranks = -ranks.astype(np.int64)
            else:
                ranks = -ranks
        keys.append(ranks)
    if not keys:
        return np.arange(0, dtype=np.int64)
    return np.lexsort(keys)


def slice_bunches(ab, lo, hi, name=None):
    """BUNs in positions ``[lo, hi)`` — MIL's slice, used for top-N."""
    manager = get_manager()
    with manager.operator("slice"):
        positions = np.arange(max(0, lo), min(len(ab), hi), dtype=np.int64)
        manager.access_bat(ab, positions)
    out = ab.slice(max(0, lo), min(len(ab), hi), name=name)
    out.props = ab.props.copy()
    return out
