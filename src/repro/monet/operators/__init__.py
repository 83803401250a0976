"""The BAT algebra: Monet's execution primitives (paper Figure 4).

This package is the public operator surface of the kernel substrate::

    mirror, select_range, select_eq, join, semijoin, antijoin, unique,
    group1, group2, multiplex, set_aggregate, aggregate_all,
    union, difference, intersection, kdiff, kintersect,
    sort_tail, sort_head, sort_positions, slice_bunches,
    count, fetch, exist, mark, number

Every operator materialises its result and never mutates operands
(section 4.2); property propagation and run-time implementation choice
happen inside each operator (sections 5.1-5.2).

Operator implementation notes
-----------------------------

Run-time dispatch (the paper's "multiple implementations for each
algebraic operation", section 5.1) picks the physical algorithm from
operand properties and accelerators; all hot paths then execute as
array kernels from :mod:`repro.monet.vectorized` — no per-BUN Python
loops.  The dispatch table:

===========  =================  ===========================================
operator     implementation     chosen when / runs as
===========  =================  ===========================================
select       binsearch          tail ``ordered``: two ``searchsorted``
                                probes + contiguous slice
select       scan               fallback: one vectorised mask pass
join         syncjoin           outer tail synced with inner head, inner
                                head key: no matching, no gather
join         fetchjoin          inner head void: positional arithmetic
join         mergejoin          inner head ordered+key, fixed atoms:
                                ``searchsorted`` per outer BUN
join         hashjoin           fallback: MultiMap (argsort +
                                ``searchsorted`` group expand); reuses the
                                BAT's array-backed hash accelerator when
                                present
semijoin     syncsemijoin       operands synced: the left operand's columns
semijoin     datavectorsemijoin left carries a datavector: cached LOOKUP
semijoin     mergesemijoin      both heads ordered: binary-search mask
semijoin     hashsemijoin       fallback: ``np.isin`` membership kernel
group        unary/binary       factorised int codes (``np.unique``),
                                pair codes combined in int64
unique/      code path          joint int64 BUN pair codes +
set ops                         ``np.unique``/``np.isin``; first-occurrence
                                order preserved
aggregate    grouped            one ``np.unique`` per head column (cached on
                                it), then ``np.bincount`` (count/avg/float
                                sum), argsort + ``np.add.reduceat`` (int
                                sum, exact), order-rank extremes (min/max
                                incl. strings)
===========  =================  ===========================================

Hash indexes (``bat.accel["hash"]``) are *array-backed* for
fixed-width atoms — a stable sort permutation plus sorted key array —
and keep a Python dict only for object-dtype keys.  The naive
BUN-at-a-time algorithms survive in :mod:`.naive` as the executable
specification the differential tests and the benchmark harness compare
against.

Every kernel runs serially in the calling thread; parallelism is
across queries, in worker processes (:mod:`repro.monet.multiproc`).
"""

from .aggregate import (AGGREGATES, aggregate_all, fill_zero,
                        set_aggregate)
from .group import group1, group2
from .join import join, join_positions, pairjoin
from .misc import count, exist, fetch, ident, mark, mirror, number
from .multiplex import (function_names, get_function, multiplex,
                        register_function)
from .select import select_eq, select_range
from .semijoin import antijoin, semijoin
from .setops import difference, intersection, kdiff, kintersect, union, unique
from .sort import slice_bunches, sort_head, sort_positions, sort_tail

__all__ = [
    "AGGREGATES", "aggregate_all", "fill_zero", "set_aggregate",
    "group1", "group2",
    "join", "join_positions", "pairjoin",
    "count", "exist", "fetch", "ident", "mark", "mirror", "number",
    "function_names", "get_function", "multiplex", "register_function",
    "select_eq", "select_range",
    "antijoin", "semijoin",
    "difference", "intersection", "kdiff", "kintersect", "union", "unique",
    "slice_bunches", "sort_head", "sort_positions", "sort_tail",
]
