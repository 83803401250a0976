"""Selections on BATs: ``AB.select(T)`` and ``AB.select(Tl, Th)``.

Figure 4 semantics::

    AB.select(Tl, Th) = { ab | ab in AB  and  Tl <= b <= Th }
    AB.select(T)      = { ab | ab in AB  and  b = T }

Two implementations exist, chosen at run time (section 5.1):

* ``binsearch`` — when the tail is known ``ordered``, a binary search
  finds the qualifying BUN range; the paper keeps all attribute BATs
  tail-sorted precisely to enable this ("in order to use binary search
  selection", section 5.2).  IO cost: a few probe pages plus the
  contiguous result range — the ``ceil(sX / C_bat)`` term of the
  section 5.2.2 model.  A string tail is searched by position, so only
  the values the search visits are decoded.
* ``scan`` — the generic fallback: one sequential pass over the tail.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from ..buffer import get_manager
from ..optimizer import get_optimizer
from .common import take_subsequence


def select_range(ab, low=None, high=None, name=None,
                 low_inclusive=True, high_inclusive=True):
    """Range selection on the tail column; ``None`` bound = open."""
    optimizer = get_optimizer()
    if optimizer.dynamic and ab.props.tordered and len(ab) > 0:
        optimizer.record("select", "binsearch")
        return _select_binsearch(ab, low, high, name,
                                 low_inclusive, high_inclusive)
    optimizer.record("select", "scan")
    return _select_scan(ab, low, high, name, low_inclusive, high_inclusive)


def select_eq(ab, value, name=None):
    """Point selection ``b = value`` on the tail column."""
    optimizer = get_optimizer()
    if optimizer.dynamic and ab.props.tordered and len(ab) > 0:
        optimizer.record("select", "binsearch")
        return _select_binsearch(ab, value, value, name, True, True)
    optimizer.record("select", "scan")
    encoded = ab.tail.encode(value) if not ab.tail.atom.varsized else None
    manager = get_manager()
    with manager.operator("select.scan"):
        manager.access_column(ab.tail)
        if ab.tail.atom.varsized:
            heap_index = ab.tail.encode(value)
            if heap_index is None:
                positions = np.empty(0, dtype=np.int64)
            else:
                positions = np.nonzero(ab.tail.keys() == heap_index)[0]
        else:
            positions = np.nonzero(ab.tail.keys() == encoded)[0]
        manager.access_column(ab.head, positions)
    return take_subsequence(ab, positions, name=name)


def _bounds_mask(values, low, high, low_inclusive, high_inclusive):
    mask = np.ones(len(values), dtype=bool)
    if low is not None:
        mask &= (values >= low) if low_inclusive else (values > low)
    if high is not None:
        mask &= (values <= high) if high_inclusive else (values < high)
    return mask


def _select_scan(ab, low, high, name, low_inclusive, high_inclusive):
    manager = get_manager()
    with manager.operator("select.scan"):
        manager.access_column(ab.tail)
        values = ab.tail.logical()
        if low is not None:
            low = ab.tail.atom.coerce(low)
        if high is not None:
            high = ab.tail.atom.coerce(high)
        mask = _bounds_mask(values, low, high, low_inclusive, high_inclusive)
        positions = np.nonzero(mask)[0]
        manager.access_column(ab.head, positions)
    return take_subsequence(ab, positions, name=name)


def _select_binsearch(ab, low, high, name, low_inclusive, high_inclusive):
    manager = get_manager()
    with manager.operator("select.binsearch"):
        n = len(ab)
        if low is not None:
            side = "left" if low_inclusive else "right"
            lo_pos = _search(ab.tail, ab.tail.atom.coerce(low), side)
        else:
            lo_pos = 0
        if high is not None:
            side = "right" if high_inclusive else "left"
            hi_pos = _search(ab.tail, ab.tail.atom.coerce(high), side)
        else:
            hi_pos = n
        hi_pos = max(lo_pos, hi_pos)
        if manager.enabled:
            # probes to locate the range, then a sequential read of it
            for heap in ab.tail.heaps:
                width = getattr(heap, "width", None) or 1
                manager.access_probes(heap, 2, n, width)
            positions = np.arange(lo_pos, hi_pos, dtype=np.int64)
            manager.access_column(ab.tail, positions)
            manager.access_column(ab.head, positions)
    out = ab.slice(lo_pos, hi_pos, name=name)
    out.props = ab.props.copy()
    if lo_pos == 0 and hi_pos == len(ab):
        out.alignment = ab.alignment
    return out


def _search(tail, value, side):
    """``np.searchsorted(tail.logical(), value, side)`` over an ordered
    tail.  A var-sized tail is bisected by position, decoding only the
    O(log n) values the search visits instead of the whole column."""
    if not tail.atom.varsized:
        return int(np.searchsorted(tail.logical(), value, side=side))
    search = bisect_left if side == "left" else bisect_right
    return search(range(len(tail)), value, key=tail.value)
