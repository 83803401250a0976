"""The BAT algebra: Monet's execution primitives (paper Figure 4).

This package is the public operator surface of the kernel substrate::

    mirror, select_range, select_eq, join, semijoin, antijoin, unique,
    group1, group2, multiplex, set_aggregate, aggregate_all, union,
    sort_tail, sort_head, sort_positions, slice_bunches, mark, number

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
join         syncjoin           outer tail synced with inner head (an
                                ``ident`` tail is its head), inner head
                                key: no matching, no gather
join         fetchjoin          inner head void: positional arithmetic
join         mergejoin          inner head ordered+key, fixed atoms:
                                ``searchsorted`` per outer BUN
join         datavectorjoin     inner carries a datavector, head key, fixed
                                outer tail: probe the sorted extent, gather
                                the value vector (no sort of the inner)
join         keyjoin            inner head an integer key with a compact
                                span: one ``slot[key - base]`` scatter,
                                then a subtraction and gather per outer BUN
join         hashjoin           fallback: MultiMap (argsort +
                                ``searchsorted`` group expand), per call
semijoin     syncsemijoin       operands synced: the left operand's columns
semijoin     datavectorsemijoin left carries a datavector: cached LOOKUP
semijoin     mergesemijoin      both heads ordered; membership as for
                                hashsemijoin
semijoin     hashsemijoin       fallback.  Membership: a void left head,
                                or one dense by its properties, by
                                position (no gather over its keys); a left
                                head with a cached grouping once per
                                distinct value (all members: columns
                                shared); else a bool table over a compact
                                integer span, or sort + binary search
group        unary/binary       factorised int codes: a presence table
                                over a compact integer span (no sort, no
                                first positions), ``np.unique`` otherwise;
                                a compact refining key joins the pair code
                                as ``key - min`` directly; the operand's
                                head column is shared, not copied
unique/      code path          dense BUN codes (head codes refined by
union                           the tail keys); first occurrences from
                                their grouping, in BUN order
multiplex    heap codes         one BAT operand with a string tail: the
                                function once per distinct heap value
                                present, then one gather by heap index
multiplex    synced             operands synced (or one BAT): one numpy
                                expression over the tails
multiplex    aligned            fallback: natural join on heads first
aggregate    grouped            one grouping per head column, cached on
                                it with first positions and counts
                                (count/avg reuse the counts); then
                                ``np.bincount`` (avg/float sum, int sum
                                below 2**53), argsort + ``np.add.reduceat``
                                (int sum past 2**53, exact); min/max of a
                                tail constant per group by position (first
                                / last), else scatter-reduce over integer
                                order ranks (ints, oids, strings), argsort
                                over float
===========  =================  ===========================================

The direct-address tables (``keyjoin``'s slots, the semijoin bool
table, ``MultiMap``'s buckets, offset codes, the grouping table) share
one compactness rule: the integer key span may not exceed
``max(2**16, 4 n)``.  The naive BUN-at-a-time algorithms survive in
:mod:`.naive` as the executable specification the differential tests
compare against.

Every kernel runs serially in the calling thread; parallelism is
across queries, in worker processes (:mod:`repro.monet.multiproc`).
"""

from .aggregate import (AGGREGATES, aggregate_all, fill_zero,
                        set_aggregate)
from .group import group1, group2
from .join import join, join_positions, pairjoin
from .misc import ident, mark, mirror, number
from .multiplex import (function_names, get_function, multiplex,
                        register_function)
from .select import select_eq, select_range
from .semijoin import antijoin, semijoin
from .setops import union, unique
from .sort import slice_bunches, sort_head, sort_positions, sort_tail

__all__ = [
    "AGGREGATES", "aggregate_all", "fill_zero", "set_aggregate",
    "group1", "group2",
    "join", "join_positions", "pairjoin",
    "ident", "mark", "mirror", "number",
    "function_names", "get_function", "multiplex", "register_function",
    "select_eq", "select_range",
    "antijoin", "semijoin",
    "union", "unique",
    "slice_bunches", "sort_head", "sort_positions", "sort_tail",
]
