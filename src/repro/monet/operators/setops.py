"""Set operations on BATs: unique and union.

Figure 4 defines ``AB.unique = { ab | ab in AB }`` (duplicate BUNs
removed); union is "omitted for brevity" in the paper but part of MIL.
Both work on whole BUNs (head *and* tail).  MOA's difference and
intersection compare elements by id, so the rewriter compiles them to
the head-wise ``antijoin`` and ``semijoin``, followed by ``unique``.

First-occurrence order is preserved, so ordered/key properties of the
operand survive.

BUNs are compared through dense int64 *pair codes* (head and tail
equality keys factorised, then combined into one code per BUN — see
:mod:`repro.monet.vectorized`), so the dedup scan runs over contiguous
arrays (first occurrences from a direct-address table over compact
codes, else ``np.unique``) instead of per-BUN Python set probes.
Object-dtype keys (never produced by the column layouts, which compare
var atoms on heap indices) fall back to the tuple-and-set path.

NaN tails follow IEEE semantics, exactly like the join/semijoin
kernels and the tuple-and-set reference: a NaN equals nothing, itself
included, so a BUN with a NaN tail is never a duplicate and survives
``unique`` untouched (:func:`factorize` assigns every NaN key its own
code).
"""

import numpy as np

from ..buffer import get_manager
from ..optimizer import get_optimizer
from ..vectorized import combine_codes, factorize, first_occurrence
from .common import take_subsequence
from ..bat import concat_bats


def _bun_codes(ab):
    """Per-BUN int64 pair codes: equal codes mean equal (head, tail)
    BUN pairs.  ``None`` for object-dtype keys (use
    :func:`_pair_keys`)."""
    hk, tk = ab.head.keys(), ab.tail.keys()
    if hk.dtype == object or tk.dtype == object:
        return None
    h_codes, _n_h = factorize(hk)
    t_codes, n_t = factorize(tk)
    return combine_codes(h_codes, t_codes, n_t)


def _pair_keys(ab):
    """Tuple pair-keys fallback for object-dtype equality keys."""
    hk, tk = ab.head.keys(), ab.tail.keys()
    return list(zip(hk.tolist() if hk.dtype != object else hk,
                    tk.tolist() if tk.dtype != object else tk))


def unique(ab, name=None):
    """Remove duplicate BUNs, keeping first occurrences."""
    optimizer = get_optimizer()
    manager = get_manager()
    if optimizer.dynamic and (ab.props.hkey or ab.props.tkey):
        # a key column means no BUN can repeat: result = copy
        optimizer.record("unique", "noop")
        out = ab.take(np.arange(len(ab), dtype=np.int64), name=name,
                      alignment=ab.alignment)
        out.props = ab.props.copy()
        return out
    optimizer.record("unique", "hash")
    with manager.operator("unique"):
        manager.access_bat(ab)
        codes = _bun_codes(ab)
        if codes is not None:
            positions = first_occurrence(codes)
        else:
            seen = set()
            positions = []
            for pos, pair in enumerate(_pair_keys(ab)):
                if pair not in seen:
                    seen.add(pair)
                    positions.append(pos)
            positions = np.asarray(positions, dtype=np.int64)
    return take_subsequence(ab, positions, name=name)


def union(ab, cd, name=None):
    """BUN-set union, left BUNs first, duplicates removed."""
    manager = get_manager()
    with manager.operator("union"):
        manager.access_bat(ab)
        manager.access_bat(cd)
        combined = concat_bats([ab, cd], name=name)
    return unique(combined, name=name)
