"""Naive BUN-at-a-time reference kernels.

These are the pre-vectorisation algorithms — Python dicts, sets and
per-BUN ``for`` loops — kept as an executable specification: the
kernel-level oracle.  The differential/property tests assert that the
vectorised kernels in :mod:`repro.monet.vectorized` are BUN-for-BUN
identical to these references for every atom mix.  Nothing times them;
they are a correctness reference, not a speedup baseline.

They are deliberately *not* wired into the operator dispatch: the
operators import :mod:`repro.monet.vectorized` only.
"""

import numpy as np


def _items(keys):
    """(position, key) pairs with the keys as Python values, so ints
    compare exactly and strings keep their own equality."""
    return enumerate(np.asarray(keys).tolist())


def build_multimap(keys):
    """dict key -> list of positions, over an equality-key array."""
    table = {}
    for pos, key in _items(keys):
        table.setdefault(key, []).append(pos)
    return table


def match(left_keys, right_keys):
    """(left_pos, right_pos) per matching pair; left-major, rights in
    build (ascending position) order."""
    table = build_multimap(right_keys)
    lefts = []
    rights = []
    for pos, key in _items(left_keys):
        hits = table.get(key)
        if hits:
            lefts.extend([pos] * len(hits))
            rights.extend(hits)
    return (np.asarray(lefts, dtype=np.int64),
            np.asarray(rights, dtype=np.int64))


def membership_mask(left_keys, right_keys):
    """Per-BUN set probe membership test."""
    members = {key for _pos, key in _items(right_keys)}
    return np.fromiter((key in members for _pos, key in _items(left_keys)),
                       dtype=bool, count=len(left_keys))


def first_occurrence(codes):
    """First-occurrence positions of each code, in BUN order."""
    seen = set()
    positions = []
    for pos, code in _items(codes):
        if code not in seen:
            seen.add(code)
            positions.append(pos)
    return np.asarray(positions, dtype=np.int64)


def grouped_sum(values, codes, n_groups):
    """Per-group sum with a Python accumulation loop."""
    values = np.asarray(values)
    sums = [0] * int(n_groups)
    for value, code in zip(values.tolist(),
                           np.asarray(codes).tolist()):
        sums[code] += value
    return np.asarray(sums, dtype=values.dtype)


def grouped_extreme(func, ranks, codes, n_groups):
    """Per-group position of the ``"min"`` or ``"max"`` rank, one BUN
    at a time: min keeps the **first** position among ties, max the
    **last**.  NaN ranks sit above every number and tie each other;
    -0.0 ties 0.0.  A group no BUN reaches keeps ``-1``."""
    best = [None] * int(n_groups)
    positions = [-1] * int(n_groups)
    for (pos, rank), code in zip(_items(ranks),
                                 np.asarray(codes).tolist()):
        key = (1, 0) if rank != rank else (0, rank)
        held = best[code]
        if held is None or (key < held if func == "min" else key >= held):
            best[code] = key
            positions[code] = pos
    return np.asarray(positions, dtype=np.int64)


def factorize(keys):
    """(codes, n_distinct) with one dict probe per BUN (first-seen
    order, which preserves equality — the only property the set-op and
    group kernels rely on)."""
    table = {}
    codes = np.empty(len(keys), dtype=np.int64)
    for pos, key in _items(keys):
        code = table.get(key)
        if code is None:
            code = table[key] = len(table)
        codes[pos] = code
    return codes, len(table)


def lookup_first(right_keys, probe_keys):
    """First-match position per probe key, -1 when absent."""
    table = build_multimap(right_keys)
    out = np.full(len(probe_keys), -1, dtype=np.int64)
    for pos, key in _items(probe_keys):
        hits = table.get(key)
        if hits:
            out[pos] = hits[0]
    return out
