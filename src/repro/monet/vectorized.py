"""Vectorised kernels for the BAT-algebra hot paths.

The paper's performance argument (sections 5 and 6) rests on every
algebraic operator running as a tight loop over contiguous arrays —
"the columns of a BAT are simple memory arrays" — so the interpreted
reproduction must not hide a Python ``for`` loop behind each operator.
This module is the single home for the array-native primitives the
operator layer dispatches onto:

* :class:`MultiMap` — positions-by-key lookup built once per inner
  operand (argsort + ``searchsorted``, plus a direct-address bucket
  table for compact integer keys): the join and pairjoin matches.
* :func:`key_table` / :func:`key_lookup` — a direct-address slot
  array over *unique* integer keys with a compact range: a probe is a
  subtraction and a gather (the key joins).
* :func:`sorted_lookup` — binary-search probes into an already sorted
  key array (merge joins, the datavector extent): no sort at all.
* :func:`membership_mask` — membership for semijoin/antijoin and the
  set operations: a direct-address bool table for compact integer
  keys, a binary search into the sorted right keys otherwise;
  :func:`member_positions` answers it by position when the left keys
  are a dense range.
* :func:`factorize` / :func:`grouping` / :func:`refine_codes` — dense
  integer coding of keys, the building block for the group, aggregate,
  unique and pairjoin kernels.  A composite key is coded one way: the
  codes of its first part refined by each further part; compact
  integer keys are coded by direct address, without a sort, and only
  :func:`grouping` pays for first positions and counts.
* :func:`grouped_sum` — exact per-group sums via stable argsort +
  ``np.add.reduceat``.
* :func:`grouped_extreme` — per-group min/max positions, an O(n)
  scatter-reduce over integer ranks.

Every key a kernel takes comes from a column's ``keys()`` or from
:func:`~repro.monet.column.equality_keys`: a ``bool``, ``int16``,
``int32``, ``int64`` or ``float32``/``float64`` array (var atoms
compare on their int32/int64 heap indices).  That is the kernels' one
precondition, and no kernel re-checks it: every integer key fits int64,
so direct-address offsets are exact, and any two operands compare
exactly under numpy's common type.  Each fast path is BUN-for-BUN
order-identical to the naive implementation it replaced: left-major
match order, ascending inner positions per key, first-occurrence
semantics for deduplication.

NaN keys follow IEEE semantics *everywhere*: a NaN never equals
anything, itself included — matching both the clipped-prefix probes of
:class:`MultiMap` and the dict references (Python dicts treat distinct
NaN objects as distinct keys).  The coded paths enforce this by
masking NaN keys to their own fresh codes instead of letting
``np.unique`` collapse them (its ``equal_nan`` default).

Every direct-address table here obeys one compactness rule,
:func:`_table_span`: the table's span may not exceed ``max(2**16, 4 *
n)``, where ``n`` counts the keys the table serves — the build keys
*and* the probes.  The alternative to a table is a sort plus a binary
search per probe, so a small build side probed by a long one (a
filtered key-join inner, a semijoin's right side) still earns a table
over a span much wider than itself.

Every kernel runs in the calling thread.  Parallelism lives one level
up, in worker processes (:mod:`repro.monet.multiproc`): splitting one
operator over threads measured slower than serial on the TPC-D plans
and reordered float sums.

The kernels' temporaries are fresh arrays of a few MB per operator.
:func:`pin_malloc_thresholds` (called once when :mod:`repro.monet` is
imported) keeps glibc from handing those pages back to the OS and
re-faulting them on the next query.
"""

import ctypes
import os

import numpy as np

__all__ = [
    "MultiMap", "key_table", "key_lookup", "sorted_lookup",
    "membership_mask", "member_positions", "factorize", "grouping",
    "refine_codes", "grouped_sum", "grouped_weighted_sum",
    "grouped_extreme", "pin_malloc_thresholds",
]


#: Direct-address tables are built when the integer key domain spans at
#: most ``max(_DENSE_FLOOR, _DENSE_FACTOR * n)`` values, ``n`` the keys
#: the table serves.
_DENSE_FLOOR = 1 << 16
_DENSE_FACTOR = 4


def _table_span(lo, hi, n):
    """Size of a direct-address table over integer keys in ``[lo, hi]``
    serving ``n`` keys, or ``None`` when no table should be built.

    The one compactness rule of this module: the span may not exceed
    ``max(_DENSE_FLOOR, _DENSE_FACTOR * n)``.  ``n`` counts every key
    the table serves — the keys it is built from *plus* the keys that
    probe it — because that is what the alternative, a sort and a
    binary search per probe, pays for: zeroing a table a few times the
    size of build and probe side together costs less than sorting.  A
    small build side probed by a long one (a filtered inner of a key
    join) therefore still gets its table.
    """
    span = int(hi) - int(lo) + 1
    if span > max(_DENSE_FLOOR, _DENSE_FACTOR * n):
        return None
    return span


def _offsets(keys, base, span):
    """Table index per integer key: ``key - base`` for keys inside
    ``[base, base + span)``, else ``-1`` or ``span``.

    Every table here has ``span + 1`` slots, the last one the sentinel,
    and numpy reads index ``-1`` as that last slot, so one clip sends
    every key outside the range to the sentinel.  A difference that
    wraps int64 lands outside ``[0, span)`` too: ``base + span - 1`` is
    itself an int64, so no key outside the range can wrap into it.
    """
    index = keys.astype(np.int64, copy=False) - np.int64(base)
    np.clip(index, -1, span, out=index)
    return index


class MultiMap:
    """Positions-by-key lookup over one key array.

    The map is a stable argsort of the keys plus the sorted key array,
    so that every probe is a pair of binary searches and a slice — no
    Python-level hashing at all.  Integer keys whose value domain is
    compact additionally get a *direct-address* table (per-key bucket
    boundaries indexed by ``key - base``), turning whole-column probes
    into pure array gathers — the positional-lookup trick Monet's void
    columns are built on.

    Because the argsort is *stable*, positions of equal keys appear in
    ascending BUN order, exactly like the insertion-ordered dict the
    operators used to build — so match output order is unchanged.
    """

    __slots__ = ("n_entries", "order", "sorted_keys", "base", "starts",
                 "ends", "_n_matchable")

    def __init__(self, keys):
        keys = np.asarray(keys)
        self.n_entries = len(keys)
        self.base = self.starts = self.ends = None
        self.order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.order]
        # NaN keys sort to the end; they must never match anything
        # (IEEE semantics, and what the dict reference does), so probes
        # are clipped to the finite prefix of the sorted keys.
        self._n_matchable = self.n_entries
        if self.sorted_keys.dtype.kind == "f":
            self._n_matchable = int(np.searchsorted(
                self.sorted_keys, np.inf, side="right"))
        if keys.dtype.kind in "iu" and self.n_entries:
            base = int(self.sorted_keys[0])
            span = _table_span(base, self.sorted_keys[-1], self.n_entries)
            if span is not None:
                counts = np.bincount(_offsets(self.sorted_keys, base, span),
                                     minlength=span)
                bounds = np.cumsum(counts, dtype=np.int64)
                self.base = base
                # bucket i spans starts[i]:ends[i]; the trailing empty
                # bucket answers the sentinel offset
                self.starts = np.concatenate(([0], bounds))
                self.ends = np.concatenate((bounds, [self.n_entries]))

    def _ranges(self, probe_keys):
        """(lo, hi) bucket bounds per probe; absent keys get empty
        ranges.  Direct-address for integer probes when the table
        exists, two binary searches otherwise."""
        if self.starts is not None and probe_keys.dtype.kind in "iu":
            index = _offsets(probe_keys, self.base, len(self.starts) - 1)
            return self.starts[index], self.ends[index]
        lo = np.minimum(np.searchsorted(self.sorted_keys, probe_keys,
                                        side="left"),
                        self._n_matchable)
        hi = np.minimum(np.searchsorted(self.sorted_keys, probe_keys,
                                        side="right"),
                        self._n_matchable)
        return lo, hi

    def match(self, probe_keys):
        """All matches of ``probe_keys`` against the mapped keys.

        Returns ``(probe_pos, match_pos)`` int64 arrays in probe-major
        order with ascending match positions per probe — BUN-for-BUN
        the order the naive dict loop produced.
        """
        lo, hi = self._ranges(np.asarray(probe_keys))
        counts = hi - lo
        total = int(counts.sum())
        probe_pos = np.repeat(
            np.arange(len(counts), dtype=np.int64), counts)
        if total == 0:
            return probe_pos, np.empty(0, dtype=np.int64)
        # ramp[j] walks lo[i] .. hi[i]-1 for each surviving probe i
        starts = np.cumsum(counts) - counts
        ramp = (np.arange(total, dtype=np.int64)
                - np.repeat(starts, counts)
                + np.repeat(lo.astype(np.int64), counts))
        return probe_pos, self.order[ramp].astype(np.int64)

    def lookup_first(self, probe_keys):
        """First-match position per probe key, ``-1`` when absent."""
        lo, hi = self._ranges(np.asarray(probe_keys))
        out = np.full(len(lo), -1, dtype=np.int64)
        found = hi > lo
        out[found] = self.order[lo[found]]
        return out

    def __len__(self):
        return self.n_entries


def key_table(keys, n_probes=0):
    """``(base, slot)`` direct-address table over *unique* integer keys.

    ``slot[key - base]`` is the position holding ``key`` and ``-1``
    where no position does; the extra last slot is the ``-1`` every
    out-of-range probe lands on.  Returns ``None`` for non-integer or
    empty keys and for keys whose span fails the compactness rule,
    which counts the keys and the ``n_probes`` keys that will probe
    the table.  Built per call in one scatter — no sort.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu" or len(keys) == 0:
        return None
    base = int(keys.min())
    span = _table_span(base, keys.max(), len(keys) + n_probes)
    if span is None:
        return None
    slot = np.full(span + 1, -1, dtype=np.int64)
    slot[_offsets(keys, base, span)] = np.arange(len(keys), dtype=np.int64)
    return base, slot


def key_lookup(table, probe_keys):
    """``(probe_pos, key_pos)`` of the probes that hit a
    :func:`key_table`: one gather, probe order, at most one match each
    — what :meth:`MultiMap.match` returns against unique keys."""
    base, slot = table
    found = slot[_offsets(np.asarray(probe_keys), base, len(slot) - 1)]
    probe_pos = np.nonzero(found >= 0)[0]
    return probe_pos, found[probe_pos]


def sorted_lookup(sorted_keys, probes):
    """``(hit_mask, positions)`` of ``probes`` in ascending ``sorted_keys``.

    One binary search per probe, no sort: ``positions[i]`` is the first
    position whose key is not less than ``probes[i]`` (clipped into
    range) and ``hit_mask[i]`` says whether the key there equals the
    probe.  The merge-style kernel of mergejoin, mergesemijoin and the
    datavector LOOKUP; a NaN probe hits nothing.
    """
    positions = np.searchsorted(sorted_keys, probes)
    if len(sorted_keys) == 0:
        return np.zeros(len(positions), dtype=bool), positions
    np.minimum(positions, len(sorted_keys) - 1, out=positions)
    return sorted_keys[positions] == probes, positions


def membership_mask(left_keys, right_keys):
    """Boolean mask: ``left_keys[i] in right_keys``.

    Integer keys whose right-side span passes the compactness rule go
    through a direct-address bool table over that span (one scatter,
    one gather).  Other keys take one binary search per left key over
    the right keys, sorted first unless one comparison pass finds them
    ascending already.  NaN keys are members of nothing on every path
    (IEEE semantics, like the set reference).
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if len(right_keys) == 0 or len(left_keys) == 0:
        return np.zeros(len(left_keys), dtype=bool)
    if left_keys.dtype.kind in "iu" and right_keys.dtype.kind in "iu":
        base = int(right_keys.min())
        span = _table_span(base, right_keys.max(),
                           len(left_keys) + len(right_keys))
        if span is not None:
            table = np.zeros(span + 1, dtype=bool)
            table[_offsets(right_keys, base, span)] = True
            return table[_offsets(left_keys, base, span)]
    if not np.all(right_keys[1:] >= right_keys[:-1]):
        right_keys = np.sort(right_keys)
    return sorted_lookup(right_keys, left_keys)[0]


def member_positions(base, n, keys):
    """Ascending positions ``p`` in ``[0, n)`` with ``base + p`` among
    the integer ``keys``: membership in a dense key range ``base ..
    base + n - 1`` answered by position — one scatter of the keys into
    a bool table over the range, no gather over the range's own keys.
    Keys outside the range hit nothing.
    """
    table = np.zeros(n + 1, dtype=bool)
    table[_offsets(np.asarray(keys), base, n)] = True
    return np.flatnonzero(table[:n])


def _table_offsets(keys):
    """``(offsets, span)`` of integer keys whose span passes the
    compactness rule: ``offsets[i] = keys[i] - min(keys)`` as int64, in
    ``[0, span)``.  ``None`` for other keys and for empty ones.

    Every key lies inside its own span, so no offset needs the
    sentinel of :func:`_offsets`; int64 keys starting at 0 (group
    codes, heap indices, extent oids) are their own offsets, uncopied.
    """
    if keys.dtype.kind not in "iu" or len(keys) == 0:
        return None
    lo = int(keys.min())
    span = _table_span(lo, keys.max(), len(keys))
    if span is None:
        return None
    offsets = keys.astype(np.int64, copy=False)
    if lo:
        offsets = offsets - np.int64(lo)
    return offsets, span


def _present_codes(offsets, present):
    """``(codes, n)``: each offset numbered by its rank among the
    ``present`` table slots.  When every slot is present the offsets
    already are those ranks — a column of group codes comes back as
    its own codes, with no gather."""
    if present.all():
        return offsets, len(present)
    code = np.cumsum(present, dtype=np.int64) - 1
    return code[offsets], int(code[-1]) + 1


def _table_codes(keys):
    """``(codes, first_pos, n, counts)`` of integer keys by direct
    address, or ``None`` when the keys are not integers or their span
    fails the compactness rule.

    No sort: a ``np.bincount`` over the key span counts each key (the
    counts double as the presence table), one ``np.minimum.at`` scatter
    of positions finds each present key's first position, and a running
    count over the present slots numbers the keys densely in sorted
    order.  The result is ``np.unique(keys, return_index=True,
    return_inverse=True, return_counts=True)``'s contract: codes in
    sorted distinct-key order, ``first_pos[c]`` the first position of
    code ``c``, ``n`` distinct keys, ``counts[c]`` rows per code.
    """
    if keys.dtype.kind in "iu" and len(keys) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), 0, empty.copy()
    table = _table_offsets(keys)
    if table is None:
        return None
    offsets, span = table
    counts = np.bincount(offsets, minlength=span)
    first = np.full(span, len(keys), dtype=np.int64)
    np.minimum.at(first, offsets, np.arange(len(keys), dtype=np.int64))
    present = counts > 0
    codes, n = _present_codes(offsets, present)
    if n == span:
        return codes, first, n, counts
    return codes, first[present], n, counts[present]


def factorize(keys):
    """(codes, n_distinct): dense int64 code per key, numbered in
    *sorted* distinct-key order (the contract the group operators rely
    on for dense group oids).

    Integer keys with a compact span are coded by direct address — a
    presence table over the span and a running count over it, no sort
    and no first positions (only :func:`grouping` needs those);
    ``np.unique`` codes the rest.

    NaN keys are **pairwise distinct** (IEEE: NaN != NaN, which is also
    what the dict reference computes): each NaN row receives its own
    fresh code after the finite codes, in BUN order — ``np.unique``'s
    ``equal_nan`` collapse is explicitly undone.
    """
    keys = np.asarray(keys)
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64), 0
    table = _table_offsets(keys)
    if table is not None:
        offsets, span = table
        present = np.zeros(span, dtype=bool)
        present[offsets] = True
        return _present_codes(offsets, present)
    if keys.dtype.kind == "f":
        nan_mask = np.isnan(keys)
        n_nan = int(nan_mask.sum())
        if n_nan:
            uniq, inverse = np.unique(keys[~nan_mask],
                                      return_inverse=True)
            codes = np.empty(len(keys), dtype=np.int64)
            codes[~nan_mask] = inverse
            codes[nan_mask] = len(uniq) + np.arange(n_nan,
                                                    dtype=np.int64)
            return codes, len(uniq) + n_nan
    uniq, inverse = np.unique(keys, return_inverse=True)
    return inverse.astype(np.int64), len(uniq)


def grouping(keys):
    """(codes, first_pos, n, counts): :func:`factorize` plus the first
    position and the row count of each code — the grouping a
    set-aggregate derives from its head, and the first occurrences
    ``unique`` keeps.

    Compact integer keys take one direct-address pass; any other keys
    are factorized first (NaN keys pairwise distinct), and their dense
    codes then always take it.
    """
    keys = np.asarray(keys)
    coded = _table_codes(keys)
    if coded is None:
        coded = _table_codes(factorize(keys)[0])
    return coded


def refine_codes(high_codes, low_keys):
    """(codes, n): dense codes of the ``(high, low)`` pairs, numbered in
    sorted pair order — the refinement of a binary ``group``, and how
    every composite key is coded.

    ``high_codes`` are the codes of the groups so far; negative codes,
    or a largest code at or past the row count, are factorized first,
    which keeps their order.  The pair then enters
    the mixed-radix code ``high * n_low + low``, bounded by rows², so it
    cannot overflow int64.  A compact integer ``low`` key enters it as
    ``key - min(low)`` directly if the combined span is compact too:
    that map is monotone in the key, so the dense codes equal those of
    factorizing the key first, which every other key does.
    """
    high_codes = np.asarray(high_codes, dtype=np.int64)
    low_keys = np.asarray(low_keys)
    n = len(high_codes)
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    n_high = int(high_codes.max()) + 1
    if n_high > n or int(high_codes.min()) < 0:
        high_codes, n_high = factorize(high_codes)
    table = _table_offsets(low_keys)
    if table is not None:
        offsets, span = table
        if _table_span(0, n_high * span - 1, n) is not None:
            return factorize(high_codes * span + offsets)
    low_codes, n_low = factorize(low_keys)
    return factorize(high_codes * n_low + low_codes)


def grouped_sum(values, codes, n_groups):
    """Per-group sum over dense group codes via argsort + ``reduceat``.

    Exact for integer dtypes (no float round-trip).  Every group in
    ``0..n_groups-1`` must be non-empty — which holds for codes coming
    from :func:`factorize` — because ``np.add.reduceat`` returns the
    *element* (not 0) at a repeated boundary.
    """
    values = np.asarray(values)
    if n_groups == 0:
        return np.zeros(0, dtype=values.dtype)
    codes = np.asarray(codes, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    starts = np.searchsorted(codes[order],
                             np.arange(n_groups, dtype=np.int64),
                             side="left")
    return np.add.reduceat(values[order], starts)


def grouped_weighted_sum(codes, weights, n_groups):
    """Float per-group sums — the ``np.bincount`` aggregation kernel
    the aggregate operator dispatches onto for float sums and averages.
    """
    codes = np.asarray(codes, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    return np.bincount(codes, weights=weights, minlength=n_groups)


def grouped_extreme(func, ranks, codes, n_groups):
    """Position of each group's ``"min"`` or ``"max"`` rank.

    Ties go to the **first** position for min and the **last** for
    max.  Integer ranks take an O(n) scatter-reduce (``np.minimum.at``
    / ``np.maximum.at``) and a second one over the positions holding
    their group's extreme; float ranks keep a stable argsort, whose
    order puts NaN above every number and ties -0.0 with 0.0.  A group
    no position belongs to gets ``-1``, or ``len(ranks)`` for an
    integer min — out of range either way.
    """
    ranks = np.asarray(ranks)
    codes = np.asarray(codes, dtype=np.int64)
    if ranks.dtype.kind in "iu":
        reduce = np.minimum if func == "min" else np.maximum
        bounds = np.iinfo(ranks.dtype)
        best = np.full(n_groups, bounds.max if func == "min"
                       else bounds.min, dtype=ranks.dtype)
        reduce.at(best, codes, ranks)
        hits = np.flatnonzero(ranks == best[codes])
        positions = np.full(n_groups, len(ranks) if func == "min" else -1,
                            dtype=np.int64)
        reduce.at(positions, codes[hits], hits)
        return positions
    positions = np.full(n_groups, -1, dtype=np.int64)
    order = np.argsort(ranks, kind="stable")
    if func == "min":
        # walk descending rank so the smallest overwrites last
        order = order[::-1]
    positions[codes[order]] = order
    return positions


# ----------------------------------------------------------------------
# allocator policy
# ----------------------------------------------------------------------
#: glibc's 64-bit ``DEFAULT_MMAP_THRESHOLD_MAX``: the ceiling its own
#: dynamic mmap threshold climbs toward
MMAP_THRESHOLD = 32 << 20
#: twice the mmap threshold, the ratio glibc's dynamic rule keeps
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc <malloc.h>
#: glibc's own malloc settings; any of them means the user chose
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds; ``True`` when applied.

    By default glibc moves both thresholds with what the process has
    freed so far: a kernel temporary of a few MB is either its own
    ``mmap`` or lands at the top of the heap and is trimmed off when
    freed, so every query page-faults its temporaries afresh.  With
    the thresholds pinned at the ceilings the dynamic rule climbs
    toward anyway, freed temporaries stay mapped and the next query
    reuses their pages.  A no-op on a libc other than glibc, and when
    the user configured glibc's malloc through its own environment
    variables or ``GLIBC_TUNABLES``.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    if not libc or not libc.startswith("glibc"):
        return False
    if any(name in os.environ for name in _MALLOC_ENV) \
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
