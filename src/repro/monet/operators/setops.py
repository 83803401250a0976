"""Set operations on BATs: unique, union, difference, intersection.

Figure 4 defines ``AB.unique = { ab | ab in AB }`` (duplicate BUNs
removed); union/difference/intersection are "omitted for brevity" in
the paper but part of MIL.  All four work on whole BUNs (head *and*
tail); the ``k``-prefixed variants (``kdiff``, ``kintersect``) compare
on heads only and serve the MOA set operations over identified value
sets, where element identity is the id.

First-occurrence order is preserved, so ordered/key properties of the
left operand survive.

BUNs are compared through dense int64 *pair codes* (head and tail
equality keys factorised jointly across both operands, then combined
into one code per BUN — see :mod:`repro.monet.vectorized`), so the
membership and dedup scans run over contiguous arrays (a bool table
when the codes are compact, a binary search otherwise; first
occurrences from a direct-address table over compact codes, else
``np.unique``) instead of per-BUN Python set probes.  Object-dtype
keys (never produced by the column layouts, which compare var atoms on
heap indices) fall back to the tuple-and-set path.

NaN tails follow IEEE semantics, exactly like the join/semijoin
kernels and the tuple-and-set reference: a NaN equals nothing, itself
included, so a BUN with a NaN tail is never a duplicate, never a
member of the other operand, and survives ``unique`` untouched.  (The
coded paths used to inherit ``np.unique``'s ``equal_nan`` collapse,
which silently diverged from the naive kernels; :func:`factorize` now
assigns every NaN key its own code.)
"""

import numpy as np

from ..buffer import get_manager
from ..column import equality_keys
from ..optimizer import get_optimizer
from ..vectorized import (combine_codes, combine_codes_pair, factorize,
                          first_occurrence, joint_codes,
                          membership_mask)
from .common import take_subsequence
from .semijoin import antijoin, semijoin
from ..bat import concat_bats


def _bun_codes(ab, cd=None):
    """Per-BUN int64 pair codes for one or two BATs.

    Returns ``(left_codes, right_codes)`` (``right_codes`` is ``None``
    without a second operand); equal codes mean equal (head, tail) BUN
    pairs, within and across the operands.  Falls back to
    :func:`_pair_keys` tuples (``None`` result) for object-dtype keys.
    """
    hk_a, hk_c = (equality_keys(ab.head, cd.head) if cd is not None
                  else (ab.head.keys(), None))
    tk_a, tk_c = (equality_keys(ab.tail, cd.tail) if cd is not None
                  else (ab.tail.keys(), None))
    if any(k is not None and np.asarray(k).dtype == object
           for k in (hk_a, hk_c, tk_a, tk_c)):
        return None
    if cd is None:
        h_codes, _n_h = factorize(hk_a)
        t_codes, n_t = factorize(tk_a)
        return combine_codes(h_codes, t_codes, n_t), None
    h_left, h_right, _n_h = joint_codes(hk_a, hk_c)
    t_left, t_right, n_t = joint_codes(tk_a, tk_c)
    # the pair form keeps both operands jointly coded even when the
    # head x tail product would overflow int64 (wide offset-coded
    # domains)
    left, right, _domain = combine_codes_pair(h_left, t_left, h_right,
                                              t_right, n_t)
    return left, right


def _pair_keys(ab, cd=None):
    """Tuple pair-keys fallback for object-dtype equality keys."""
    hk_a, hk_c = (equality_keys(ab.head, cd.head) if cd is not None
                  else (ab.head.keys(), None))
    tk_a, tk_c = (equality_keys(ab.tail, cd.tail) if cd is not None
                  else (ab.tail.keys(), None))
    left = list(zip(hk_a.tolist() if hk_a.dtype != object else hk_a,
                    tk_a.tolist() if tk_a.dtype != object else tk_a))
    if cd is None:
        return left, None
    right = list(zip(hk_c.tolist() if hk_c.dtype != object else hk_c,
                     tk_c.tolist() if tk_c.dtype != object else tk_c))
    return left, right


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
            positions = first_occurrence(codes[0])
        else:
            pairs, _unused = _pair_keys(ab)
            seen = set()
            positions = []
            for pos, pair in enumerate(pairs):
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


def difference(ab, cd, name=None):
    """BUNs of ``ab`` that do not occur in ``cd``."""
    manager = get_manager()
    with manager.operator("difference"):
        manager.access_bat(ab)
        manager.access_bat(cd)
        codes = _bun_codes(ab, cd)
        if codes is not None:
            positions = np.nonzero(~membership_mask(*codes))[0]
        else:
            left, right = _pair_keys(ab, cd)
            members = set(right)
            positions = np.asarray(
                [pos for pos, pair in enumerate(left)
                 if pair not in members], dtype=np.int64)
    return take_subsequence(ab, positions, name=name)


def intersection(ab, cd, name=None):
    """BUNs of ``ab`` that also occur in ``cd`` (deduplicated)."""
    manager = get_manager()
    with manager.operator("intersection"):
        manager.access_bat(ab)
        manager.access_bat(cd)
        codes = _bun_codes(ab, cd)
        if codes is not None:
            shared = np.nonzero(membership_mask(*codes))[0]
            positions = shared[first_occurrence(codes[0][shared])]
        else:
            left, right = _pair_keys(ab, cd)
            members = set(right)
            seen = set()
            positions = []
            for pos, pair in enumerate(left):
                if pair in members and pair not in seen:
                    seen.add(pair)
                    positions.append(pos)
            positions = np.asarray(positions, dtype=np.int64)
    return take_subsequence(ab, positions, name=name)


def kdiff(ab, cd, name=None):
    """Head-wise difference: ``{ ab | a not in heads(CD) }``."""
    return antijoin(ab, cd, name=name)


def kintersect(ab, cd, name=None):
    """Head-wise intersection — an alias of semijoin."""
    return semijoin(ab, cd, name=name)
