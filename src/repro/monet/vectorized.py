"""Vectorised kernels for the BAT-algebra hot paths.

The paper's performance argument (sections 5 and 6) rests on every
algebraic operator running as a tight loop over contiguous arrays —
"the columns of a BAT are simple memory arrays" — so the interpreted
reproduction must not hide a Python ``for`` loop behind each operator.
This module is the single home for the array-native primitives the
operator layer dispatches onto:

* :class:`MultiMap` — positions-by-key lookup built once per inner
  operand (argsort + ``searchsorted`` for fixed-width keys, a dict for
  object keys), replacing the per-BUN dict builds that used to live in
  ``operators/common.py`` and ``operators/join.py``.
* :func:`join_match` — equi-join position matching in left-major
  order, fully vectorised for fixed-width keys.
* :func:`sorted_lookup` — binary-search probes into an already sorted
  key array (merge joins, the datavector extent): no sort at all.
* :func:`membership_mask` — ``np.isin``-based membership for
  semijoin/antijoin and the set operations.
* :func:`factorize` / :func:`joint_codes` / :func:`first_occurrence`
  — dense integer coding of key (pairs), the building block for
  group/unique/set-op kernels.
* :func:`grouped_sum` — exact per-group sums via stable argsort +
  ``np.add.reduceat``.

Every kernel keeps a slow-path fallback for ``object``-dtype keys
(variable-size atoms normally compare on heap *indices*, so the
fallback only triggers for exotic key arrays), and each fast path is
BUN-for-BUN order-identical to the naive implementation it replaced:
left-major match order, ascending inner positions per key,
first-occurrence semantics for deduplication.

NaN keys follow IEEE semantics *everywhere*: a NaN never equals
anything, itself included — matching both the clipped-prefix probes of
:class:`MultiMap` and the dict references (Python dicts treat distinct
NaN objects as distinct keys).  The coded paths enforce this by
masking NaN keys to their own fresh codes instead of letting
``np.unique`` collapse them (its ``equal_nan`` default).

Every kernel runs in the calling thread.  Parallelism lives one level
up, in worker processes (:mod:`repro.monet.multiproc`): splitting one
operator over threads measured slower than serial on the TPC-D plans
and reordered float sums.
"""

import numpy as np

__all__ = [
    "MultiMap", "join_match", "sorted_lookup", "membership_mask",
    "factorize",
    "joint_codes", "combine_codes", "combine_codes_pair",
    "first_occurrence", "grouped_sum", "grouped_weighted_sum",
]


def _is_object(keys):
    return getattr(keys, "dtype", None) == object


#: Direct-address tables are built when the integer key domain spans at
#: most ``max(_DENSE_FLOOR, _DENSE_FACTOR * n)`` values.
_DENSE_FLOOR = 1 << 16
_DENSE_FACTOR = 4


class MultiMap:
    """Positions-by-key lookup over one key array.

    For fixed-width keys the map is *array-backed*: a stable argsort of
    the keys plus the sorted key array, so that every probe is a pair
    of binary searches and a slice — no Python-level hashing at all.
    Integer keys whose value domain is compact additionally get a
    *direct-address* table (per-key bucket boundaries indexed by
    ``key - base``), turning whole-column probes into pure array
    gathers — the positional-lookup trick Monet's void columns are
    built on.  Object-dtype keys (only reachable through exotic key
    arrays; var atoms compare on heap indices) fall back to a dict of
    position lists.

    Because the argsort is *stable*, positions of equal keys appear in
    ascending BUN order, exactly like the insertion-ordered dict the
    operators used to build — so match output order is unchanged.
    """

    __slots__ = ("n_entries", "order", "sorted_keys", "table",
                 "base", "starts", "_n_matchable")

    def __init__(self, keys):
        keys = np.asarray(keys)
        self.n_entries = len(keys)
        self.base = None
        self.starts = None
        if _is_object(keys):
            table = {}
            for pos, key in enumerate(keys):
                table.setdefault(key, []).append(pos)
            self.table = table
            self.order = None
            self.sorted_keys = None
            self._n_matchable = len(keys)
            return
        self.table = None
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
            domain = int(self.sorted_keys[-1]) - base + 1
            if domain <= max(_DENSE_FLOOR, _DENSE_FACTOR * self.n_entries):
                counts = np.bincount(
                    self.sorted_keys.astype(np.int64) - base,
                    minlength=domain)
                self.base = base
                self.starts = np.concatenate(
                    ([0], np.cumsum(counts))).astype(np.int64)

    @classmethod
    def from_sorted(cls, order, sorted_keys):
        """Rebuild a map from a persisted (order, sorted_keys) pair.

        Skips the argsort entirely — the storage layer saves hash
        accelerators as exactly these two arrays, so reopening a
        database re-attaches working indexes without touching the key
        data.  The direct-address table is *not* rebuilt (it would read
        every page); probes fall back to binary search until the index
        is rebuilt from live keys.
        """
        self = cls.__new__(cls)
        self.n_entries = len(order)
        self.base = None
        self.starts = None
        self.table = None
        self.order = order
        self.sorted_keys = sorted_keys
        self._n_matchable = self.n_entries
        if getattr(sorted_keys, "dtype", None) is not None \
                and sorted_keys.dtype.kind == "f" and self.n_entries:
            self._n_matchable = int(np.searchsorted(
                sorted_keys, np.inf, side="right"))
        return self

    @property
    def vectorised(self):
        return self.table is None

    def _dense_ranges(self, probe_keys):
        """(lo, hi) bucket bounds per probe via the direct-address
        table; absent keys get empty ranges."""
        probes = probe_keys.astype(np.int64, copy=False)
        kmax = self.base + len(self.starts) - 2
        valid = (probes >= self.base) & (probes <= kmax)
        idx = np.where(valid, probes - self.base, 0)
        lo = self.starts[idx]
        hi = np.where(valid, self.starts[idx + 1], lo)
        return lo, hi

    # ------------------------------------------------------------------
    # scalar probes (accelerator API)
    # ------------------------------------------------------------------
    def positions(self, key):
        """Positions whose key equals ``key``, ascending; ``()`` if none."""
        if self.table is not None:
            return self.table.get(key, ())
        lo = min(int(np.searchsorted(self.sorted_keys, key,
                                     side="left")), self._n_matchable)
        hi = min(int(np.searchsorted(self.sorted_keys, key,
                                     side="right")), self._n_matchable)
        if lo == hi:
            return ()
        return self.order[lo:hi]

    def first(self, key):
        """Smallest position holding ``key``, or ``None``."""
        hits = self.positions(key)
        return int(hits[0]) if len(hits) else None

    # ------------------------------------------------------------------
    # vector probes
    # ------------------------------------------------------------------
    def match(self, probe_keys):
        """All matches of ``probe_keys`` against the mapped keys.

        Returns ``(probe_pos, match_pos)`` int64 arrays in probe-major
        order with ascending match positions per probe — BUN-for-BUN
        the order the naive dict loop produced.
        """
        probe_keys = np.asarray(probe_keys)
        if self.table is not None or _is_object(probe_keys):
            return self._match_slow(probe_keys)
        if self.starts is not None and probe_keys.dtype.kind in "iu":
            lo, hi = self._dense_ranges(probe_keys)
        else:
            lo = np.minimum(np.searchsorted(self.sorted_keys, probe_keys,
                                            side="left"),
                            self._n_matchable)
            hi = np.minimum(np.searchsorted(self.sorted_keys, probe_keys,
                                            side="right"),
                            self._n_matchable)
        counts = hi - lo
        total = int(counts.sum())
        probe_pos = np.repeat(
            np.arange(len(probe_keys), dtype=np.int64), counts)
        if total == 0:
            return probe_pos, np.empty(0, dtype=np.int64)
        # ramp[j] walks lo[i] .. hi[i]-1 for each surviving probe i
        starts = np.cumsum(counts) - counts
        ramp = (np.arange(total, dtype=np.int64)
                - np.repeat(starts, counts)
                + np.repeat(lo.astype(np.int64), counts))
        return probe_pos, self.order[ramp].astype(np.int64)

    def _as_table(self):
        """Dict view of the mapping (for object-dtype probes)."""
        if self.table is not None:
            return self.table
        table = {}
        for rank, key in enumerate(self.sorted_keys.tolist()):
            table.setdefault(key, []).append(int(self.order[rank]))
        return table

    def _match_slow(self, probe_keys):
        table = self._as_table()
        lefts = []
        rights = []
        for pos, key in enumerate(probe_keys):
            hits = table.get(key)
            if hits:
                lefts.extend([pos] * len(hits))
                rights.extend(hits)
        return (np.asarray(lefts, dtype=np.int64),
                np.asarray(rights, dtype=np.int64))

    def lookup_first(self, probe_keys):
        """First-match position per probe key, ``-1`` when absent."""
        probe_keys = np.asarray(probe_keys)
        out = np.full(len(probe_keys), -1, dtype=np.int64)
        if self.table is not None or _is_object(probe_keys):
            table = self._as_table()
            for pos, key in enumerate(probe_keys):
                hits = table.get(key)
                if hits:
                    out[pos] = hits[0]
            return out
        if self.n_entries == 0:
            return out
        if self.starts is not None and probe_keys.dtype.kind in "iu":
            lo, hi = self._dense_ranges(probe_keys)
        else:
            lo = np.minimum(np.searchsorted(self.sorted_keys, probe_keys,
                                            side="left"),
                            self._n_matchable)
            hi = np.minimum(np.searchsorted(self.sorted_keys, probe_keys,
                                            side="right"),
                            self._n_matchable)
        found = hi > lo
        out[found] = self.order[lo[found]]
        return out

    def __len__(self):
        return self.n_entries


def join_match(left_keys, right_keys):
    """(left_pos, right_pos) of every equi-matching pair, left-major."""
    return MultiMap(right_keys).match(left_keys)


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
    positions = np.minimum(positions, len(sorted_keys) - 1)
    return sorted_keys[positions] == probes, positions


#: A direct-address membership table is used when the (hinted) code
#: domain stays below this many entries — one transient byte each.
_TABLE_CAP = 1 << 22


def membership_mask(left_keys, right_keys, domain=None):
    """Boolean mask: ``left_keys[i] in right_keys``.

    Fixed-width keys go through ``np.isin`` (sort-based, no Python
    hashing); object keys keep the set probe.  When the keys are known
    non-negative codes bounded by ``domain`` (e.g. from
    :func:`joint_codes`) and the domain is compact, a direct-address
    bool table replaces the sort entirely.  NaN keys are members of
    nothing on every path (IEEE semantics, like the set reference).
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if _is_object(left_keys) or _is_object(right_keys):
        members = set(right_keys)
        return np.fromiter((k in members for k in left_keys),
                           dtype=bool, count=len(left_keys))
    if len(right_keys) == 0 or len(left_keys) == 0:
        return np.zeros(len(left_keys), dtype=bool)
    if domain is not None and domain <= max(
            _TABLE_CAP, _DENSE_FACTOR * (len(left_keys)
                                         + len(right_keys))):
        table = np.zeros(int(domain), dtype=bool)
        table[right_keys] = True
        return table[left_keys]
    return np.isin(left_keys, right_keys)


def factorize(keys):
    """(codes, n_distinct): dense int64 code per key.

    Fixed-width keys get codes in *sorted* distinct-key order (the
    contract the group operators rely on for dense group oids); object
    keys get first-seen codes, which preserves equality but not order.

    NaN keys are **pairwise distinct** (IEEE: NaN != NaN, which is also
    what the dict reference computes): each NaN row receives its own
    fresh code after the finite codes, in BUN order — ``np.unique``'s
    ``equal_nan`` collapse is explicitly undone.
    """
    keys = np.asarray(keys)
    if len(keys) == 0:
        return np.empty(0, dtype=np.int64), 0
    if _is_object(keys):
        table = {}
        codes = np.empty(len(keys), dtype=np.int64)
        for pos, key in enumerate(keys):
            code = table.get(key)
            if code is None:
                code = table[key] = len(table)
            codes[pos] = code
        return codes, len(table)
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


def joint_codes(left_keys, right_keys):
    """(left_codes, right_codes, n): one coding shared by both arrays.

    Equal keys receive equal codes across the two operands — the
    cross-operand analogue of :func:`factorize`, used by the set
    operations to compare BUNs of two BATs.  Codes are non-negative
    and bounded by ``n`` but not necessarily dense: integer keys with
    a compact value domain are *offset-coded* (``key - min``), which
    skips the sort entirely.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    n_left = len(left_keys)
    total = n_left + len(right_keys)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), 0
    if _is_object(left_keys) or _is_object(right_keys):
        both = np.concatenate([left_keys.astype(object),
                               right_keys.astype(object)])
        codes, n = factorize(both)
        return codes[:n_left], codes[n_left:], n
    if left_keys.dtype.kind in "iu" and right_keys.dtype.kind in "iu":
        bounds = [(int(a.min()), int(a.max()))
                  for a in (left_keys, right_keys) if len(a)]
        lo = min(b[0] for b in bounds)
        hi = max(b[1] for b in bounds)
        domain = hi - lo + 1
        if domain <= max(_DENSE_FLOOR, _DENSE_FACTOR * total):
            return (left_keys.astype(np.int64) - lo,
                    right_keys.astype(np.int64) - lo, domain)
    both = np.concatenate([left_keys, right_keys])
    codes, n = factorize(both)
    return codes[:n_left], codes[n_left:], n


#: Largest combined code representable; beyond it the mixed-radix
#: arithmetic would wrap and alias distinct pairs.
_INT64_MAX = np.iinfo(np.int64).max


def _combine_overflows(max_high, n_low):
    """True when ``high * n_low + low`` can exceed int64 for codes
    bounded by ``max_high`` / ``n_low`` (checked in Python ints)."""
    return (int(max_high) + 1) * int(n_low) - 1 > _INT64_MAX


def _factorize_pairs(high_codes, low_codes):
    """(codes, n): dense int64 codes over (high, low) pairs.

    The overflow fallback for :func:`combine_codes`: a lexicographic
    sort of the pairs plus a run-boundary scan.  Codes come out in
    sorted (high, low) order — the same order the mixed-radix
    arithmetic induces — so the fallback changes density, never
    relative order.
    """
    order = np.lexsort((low_codes, high_codes))
    sorted_high = high_codes[order]
    sorted_low = low_codes[order]
    fresh = np.empty(len(order), dtype=bool)
    fresh[0] = True
    fresh[1:] = ((sorted_high[1:] != sorted_high[:-1])
                 | (sorted_low[1:] != sorted_low[:-1]))
    compact = np.cumsum(fresh) - 1
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = compact
    return codes, int(compact[-1]) + 1


def combine_codes(high_codes, low_codes, n_low):
    """One int64 code per row from two per-column codes.

    Equality of the combined code is equality of the (high, low) pair;
    ``n_low`` bounds the low codes (``max(low) < n_low``).  Wide
    domains that would overflow int64 (offset-coded composites from
    :func:`joint_codes` can reach ``2**63``) fall back to joint
    factorization of the pairs — codes from *separate* calls are then
    no longer comparable, so cross-operand callers must use
    :func:`combine_codes_pair`.
    """
    high_codes = np.asarray(high_codes, dtype=np.int64)
    low_codes = np.asarray(low_codes, dtype=np.int64)
    n_low = max(1, int(n_low))
    if len(high_codes) and _combine_overflows(high_codes.max(), n_low):
        codes, _n = _factorize_pairs(high_codes, low_codes)
        return codes
    return high_codes * n_low + low_codes


def combine_codes_pair(high_left, low_left, high_right, low_right,
                       n_low):
    """Combined (high, low) codes for two operands, jointly coded.

    The cross-operand form of :func:`combine_codes`: equal pairs get
    equal codes *across* the two operands (the property the set
    operations compare BUNs with).  Returns ``(left, right, domain)``
    with every code below ``domain``.  When the mixed-radix product
    would overflow int64, both operands' pairs are factorised jointly
    so the shared coding survives the fallback.
    """
    high_left = np.asarray(high_left, dtype=np.int64)
    low_left = np.asarray(low_left, dtype=np.int64)
    high_right = np.asarray(high_right, dtype=np.int64)
    low_right = np.asarray(low_right, dtype=np.int64)
    n_low = max(1, int(n_low))
    max_high = 0
    for side in (high_left, high_right):
        if len(side):
            max_high = max(max_high, int(side.max()))
    if _combine_overflows(max_high, n_low):
        n_left = len(high_left)
        codes, n = _factorize_pairs(
            np.concatenate([high_left, high_right]),
            np.concatenate([low_left, low_right]))
        return codes[:n_left], codes[n_left:], n
    return (high_left * n_low + low_left,
            high_right * n_low + low_right,
            (max_high + 1) * n_low)


def first_occurrence(codes):
    """Positions of the first occurrence of each code, ascending.

    The vectorised form of the ``seen``-set dedup loop: taking these
    positions keeps first occurrences in original BUN order.
    """
    codes = np.asarray(codes)
    if len(codes) == 0:
        return np.empty(0, dtype=np.int64)
    _uniq, first = np.unique(codes, return_index=True)
    return np.sort(first).astype(np.int64)


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
