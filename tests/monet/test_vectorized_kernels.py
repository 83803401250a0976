"""Differential tests: vectorised kernels == naive BUN-at-a-time loops.

The vectorised primitives in :mod:`repro.monet.vectorized` replaced
Python dict/set/loop implementations that now live on as executable
references in :mod:`repro.monet.operators.naive`.  Hypothesis drives
both over the same inputs and asserts BUN-for-BUN identical output —
including match order, first-occurrence order, empty operands,
all-duplicate keys and huge key spreads (which disable the
direct-address table).

A second block runs whole *operators* differentially across atom types
(int, dbl, str/var-sized, oid/void heads), since the kernels only pay
off if the operator wiring preserved the algebra's semantics.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.monet import (bat_dense_head, bat_from_pairs, compute_props,
                         verify)
from repro.monet import operators as ops
from repro.monet import vectorized as vz
from repro.monet.column import column_from_values
from repro.monet.operators import naive

_ints = st.lists(st.integers(-50, 50), max_size=40)
_wide_ints = st.lists(
    st.integers(-2 ** 62, 2 ** 62) | st.integers(-50, 50), max_size=25)
_floats = st.lists(st.floats(allow_nan=False, allow_infinity=False,
                             width=32), max_size=30)


def _int_arr(values):
    return np.asarray(values, dtype=np.int64)


def _match(left, right):
    return vz.MultiMap(right).match(left)


def _assert_same(pair_a, pair_b):
    for got, want in zip(pair_a, pair_b):
        assert np.array_equal(np.asarray(got), np.asarray(want))


# ----------------------------------------------------------------------
# kernel-level differentials
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(_ints, _ints)
def test_join_match_matches_naive(left, right):
    _assert_same(_match(_int_arr(left), _int_arr(right)),
                 naive.match(_int_arr(left), _int_arr(right)))


@settings(max_examples=40, deadline=None)
@given(_wide_ints, _wide_ints)
def test_join_match_wide_spread(left, right):
    # huge key spreads must not build (or mis-index) the dense table
    _assert_same(_match(_int_arr(left), _int_arr(right)),
                 naive.match(_int_arr(left), _int_arr(right)))


@settings(max_examples=40, deadline=None)
@given(_floats, _floats)
def test_join_match_floats(left, right):
    la = np.asarray(left, dtype=np.float64)
    ra = np.asarray(right, dtype=np.float64)
    _assert_same(_match(la, ra), naive.match(la, ra))


def test_join_match_nan_never_matches():
    # IEEE semantics (and the dict reference): NaN != NaN
    nan = float("nan")
    la = np.asarray([1.0, nan, 2.0], dtype=np.float64)
    ra = np.asarray([nan, 2.0, nan], dtype=np.float64)
    _assert_same(_match(la, ra), naive.match(la, ra))
    lp, rp = _match(la, ra)
    assert list(lp) == [2] and list(rp) == [1]
    mm = vz.MultiMap(ra)
    assert len(mm.match(np.asarray([nan]))[0]) == 0
    assert np.array_equal(mm.lookup_first(la),
                          naive.lookup_first(ra, la))


def test_join_match_all_duplicates():
    left = _int_arr([7] * 10)
    right = _int_arr([7] * 8)
    lp, rp = _match(left, right)
    assert len(lp) == 80
    _assert_same((lp, rp), naive.match(left, right))


def test_join_match_empty_operands():
    empty = _int_arr([])
    some = _int_arr([1, 2, 2])
    for la, ra in [(empty, some), (some, empty), (empty, empty)]:
        _assert_same(_match(la, ra), naive.match(la, ra))


#: float keys for membership: NaN (a member of nothing), both zeros
#: (equal to each other) and integral values an int key can equal
_member_floats = st.lists(
    st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, 7.0, float("nan")]),
    max_size=25)


def _float_arr(values):
    return np.asarray(values, dtype=np.float64)


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(_ints.map(_int_arr), _ints.map(_int_arr)),
    st.tuples(_wide_ints.map(_int_arr), _wide_ints.map(_int_arr)),
    st.tuples(_member_floats.map(_float_arr),
              _member_floats.map(_float_arr)),
    st.tuples(_ints.map(_int_arr), _member_floats.map(_float_arr)),
    st.tuples(_member_floats.map(_float_arr), _ints.map(_int_arr))))
def test_membership_mask_matches_naive(pair):
    la, ra = pair
    assert np.array_equal(vz.membership_mask(la, ra),
                          naive.membership_mask(la, ra))


@pytest.mark.parametrize("spread", [2 ** 40, 1], ids=["sorted", "domain"])
def test_membership_mask_domain_table_matches_isin(spread):
    # the direct-address bool table (a compact span) and the sort +
    # binary-search path (a spread-out one) must each give the set
    # reference's mask
    rng = np.random.default_rng(3)
    left = rng.integers(0, 60, size=900) * spread
    right = rng.integers(0, 60, size=200) * spread
    assert np.array_equal(vz.membership_mask(left, right),
                          naive.membership_mask(left, right))


@pytest.mark.parametrize("dtype", [np.int64], ids=["int64"])
def test_joint_codes_wide_int_keys_preserve_equality(dtype):
    # keys too spread for a direct-address table, coded across two
    # operands by factorizing their concatenation (as pairjoin does)
    rng = np.random.default_rng(8)
    left = (rng.integers(0, 1000, size=700) * (2 ** 40)).astype(dtype)
    right = (rng.integers(0, 1000, size=400) * (2 ** 40)).astype(dtype)
    both_keys = np.concatenate([left, right])
    both_codes, n = vz.factorize(both_keys)
    assert np.array_equal(_equality_partition(both_keys),
                          _equality_partition(both_codes))
    assert both_codes.max() < n


@settings(max_examples=60, deadline=None)
@given(_ints, _ints)
def test_lookup_first_matches_naive(right, probes):
    ra, pa = _int_arr(right), _int_arr(probes)
    assert np.array_equal(vz.MultiMap(ra).lookup_first(pa),
                          naive.lookup_first(ra, pa))


@settings(max_examples=60, deadline=None)
@given(_ints)
def test_first_occurrence_matches_naive(values):
    arr = _int_arr(values)
    # unique keeps the first positions of its codes' grouping
    assert np.array_equal(np.sort(vz.grouping(arr)[1]),
                          naive.first_occurrence(arr))


@settings(max_examples=60, deadline=None)
@given(_ints)
def test_grouped_sum_matches_naive(values):
    arr = _int_arr(values)
    codes, n_groups = vz.factorize(arr % 7 if len(arr) else arr)
    assert np.array_equal(vz.grouped_sum(arr, codes, n_groups),
                          naive.grouped_sum(arr, codes, n_groups))


@settings(max_examples=60, deadline=None)
@given(_ints)
def test_factorize_round_trip(values):
    arr = _int_arr(values)
    codes, n = vz.factorize(arr)
    if len(arr):
        assert codes.min() >= 0 and codes.max() == n - 1
        # codes are in sorted distinct-key order (group-oid contract)
        uniq = np.unique(arr)
        assert np.array_equal(uniq[codes], arr)
    else:
        assert n == 0


@settings(max_examples=60, deadline=None)
@given(_ints, _ints)
def test_joint_codes_preserve_equality(left, right):
    la, ra = _int_arr(left), _int_arr(right)
    both_keys = np.concatenate([la, ra])
    both_codes, n = vz.factorize(both_keys)
    for i in range(len(both_keys)):
        same_key = both_keys == both_keys[i]
        same_code = both_codes == both_codes[i]
        assert np.array_equal(same_key, same_code)
    assert len(both_codes) == 0 or both_codes.max() < n


# ----------------------------------------------------------------------
# NaN keys: IEEE semantics on every coded path (NaN != NaN, like the
# dict references — np.unique's equal_nan collapse must not leak out)
# ----------------------------------------------------------------------
_nan_floats = st.lists(st.floats(min_value=-8, max_value=8, width=16)
                       | st.just(float("nan")), max_size=25)


def _equality_partition(codes):
    codes = np.asarray(codes)
    return codes[:, None] == codes[None, :]


def test_factorize_nan_keys_each_distinct():
    nan = float("nan")
    keys = np.asarray([1.0, nan, 1.0, nan, 2.0])
    codes, n = vz.factorize(keys)
    assert n == 4                       # {1.0, 2.0} + two distinct NaNs
    assert codes[0] == codes[2]
    assert codes[1] != codes[3]
    # finite codes keep the sorted distinct-key contract; NaN codes
    # come after them in BUN order
    assert codes[0] == 0 and codes[4] == 1
    assert list(codes[[1, 3]]) == [2, 3]


@settings(max_examples=60, deadline=None)
@given(_nan_floats)
def test_factorize_nan_partition_matches_naive(values):
    keys = np.asarray(values, dtype=np.float64)
    codes, n = vz.factorize(keys)
    ref_codes, ref_n = naive.factorize(keys)
    assert n == ref_n
    assert np.array_equal(_equality_partition(codes),
                          _equality_partition(ref_codes))


@settings(max_examples=60, deadline=None)
@given(_nan_floats, _nan_floats)
def test_joint_codes_nan_never_equal(left, right):
    la = np.asarray(left, dtype=np.float64)
    ra = np.asarray(right, dtype=np.float64)
    both_keys = np.concatenate([la, ra])
    both_codes, n = vz.factorize(both_keys)
    for i in range(len(both_keys)):
        same_key = both_keys == both_keys[i]     # IEEE: NaN rows empty
        if np.isnan(both_keys[i]):
            assert np.count_nonzero(both_codes == both_codes[i]) == 1
        else:
            assert np.array_equal(same_key,
                                  both_codes == both_codes[i])
    assert len(both_codes) == 0 or both_codes.max() < n


def test_setops_nan_tails_follow_ieee_semantics():
    nan = float("nan")
    ab = bat_from_pairs("oid", "double", [(0, nan), (1, nan), (0, nan),
                                          (2, 1.5)])
    cd = bat_from_pairs("oid", "double", [(0, nan), (2, 1.5)])
    # no NaN BUN ever duplicates another, so unique keeps all of them
    assert len(ops.unique(ab)) == 4
    # ... nor one of the other operand: union drops only (2, 1.5)
    merged = ops.union(ab, cd)
    assert len(merged) == 5
    assert [h for h, _t in merged.to_pairs()] == [0, 1, 0, 2, 0]


def test_group_nan_tails_match_naive_partition():
    nan = float("nan")
    bat = bat_from_pairs("oid", "double",
                         [(0, nan), (1, 2.0), (2, nan), (3, 2.0)])
    bat.props = compute_props(bat)
    out = ops.group1(bat)
    groups = [g for _h, g in out.to_pairs()]
    assert groups[1] == groups[3]               # 2.0 == 2.0
    assert groups[0] != groups[2]               # NaN != NaN
    assert len(set(groups)) == 3


# ----------------------------------------------------------------------
# direct-address coding at the compactness boundary, and grouped
# min/max against the per-BUN oracle
# ----------------------------------------------------------------------
#: Widest span the direct-address table takes for fewer than 2**14 keys.
_BOUNDARY = vz._DENSE_FLOOR


@st.composite
def _spanned_ints(draw):
    """int64 keys spanning exactly the boundary or one past it (both
    ends pinned), from a negative or positive base."""
    span = draw(st.sampled_from([_BOUNDARY, _BOUNDARY + 1]))
    base = draw(st.integers(-2 ** 40, 2 ** 40))
    inner = draw(st.lists(st.integers(0, span - 1), max_size=20))
    offsets = draw(st.permutations([0, span - 1] + inner))
    return np.asarray(offsets, dtype=np.int64) + np.int64(base)


_coded_keys = st.one_of(
    _ints.map(_int_arr), _wide_ints.map(_int_arr), _spanned_ints())


@settings(max_examples=60, deadline=None)
@given(_coded_keys)
def test_factorize_and_first_occurrence_across_the_span_boundary(keys):
    codes, n = vz.factorize(keys)
    ref_codes, ref_n = naive.factorize(keys)
    assert n == ref_n
    assert np.array_equal(_equality_partition(codes),
                          _equality_partition(ref_codes))
    # codes number the distinct keys in sorted order, exactly
    assert np.array_equal(np.unique(keys)[codes], keys)
    grouped_codes, first_pos, grouped_n, counts = vz.grouping(keys)
    assert np.array_equal(grouped_codes, codes) and grouped_n == n
    assert np.array_equal(counts, np.bincount(codes, minlength=n))
    assert np.array_equal(np.sort(first_pos),
                          naive.first_occurrence(keys))
    assert np.array_equal(codes[first_pos], np.arange(n))
    span = int(keys.max()) - int(keys.min()) + 1 if len(keys) else 0
    assert (vz._table_codes(keys) is not None) == (span <= _BOUNDARY)


def test_table_codes_span_rule_scales_with_rows():
    # past 2**14 keys the boundary is 4 n: exactly 4 n is coded by
    # direct address, one more value of span is not
    n = 2 ** 15
    for span, coded in ((4 * n, True), (4 * n + 1, False)):
        keys = np.arange(n, dtype=np.int64) * ((span - 1) // (n - 1))
        keys[-1] = span - 1
        assert (vz._table_codes(keys) is not None) is coded
        assert np.array_equal(vz.factorize(keys)[0], np.arange(n))


_extreme_ranks = st.one_of(
    _ints.map(_int_arr), _wide_ints.map(_int_arr),
    st.lists(st.sampled_from([-1.5, -0.0, 0.0, 2.0, float("inf"),
                              float("nan")]),
             max_size=25).map(lambda v: np.asarray(v, dtype=np.float64)))


@settings(max_examples=60, deadline=None)
@given(_extreme_ranks, st.data())
def test_grouped_extreme_matches_naive(ranks, data):
    heads = data.draw(st.lists(st.integers(0, 6), min_size=len(ranks),
                               max_size=len(ranks)))
    codes, n = vz.factorize(_int_arr(heads))
    for func in ("min", "max"):
        assert np.array_equal(
            vz.grouped_extreme(func, ranks, codes, n),
            naive.grouped_extreme(func, ranks, codes, n))


_extreme_bats = st.one_of(
    st.tuples(st.just("long"), st.lists(
        st.tuples(st.integers(-3, 3) | st.integers(-2 ** 40, 2 ** 40),
                  st.integers(-2 ** 62, 2 ** 62) | st.integers(-3, 3)),
        max_size=20)),
    st.tuples(st.just("double"), st.lists(
        st.tuples(st.integers(-3, 3),
                  st.sampled_from([-0.0, 0.0, 1.5, float("nan")])),
        max_size=20)),
    st.tuples(st.just("string"), st.lists(
        st.tuples(st.integers(-3, 3), st.sampled_from(["a", "b", "abc", ""])),
        max_size=20)))


def _same_values(got, want):
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype.kind == "f":
        return (np.array_equal(got, want, equal_nan=True)
                and np.array_equal(np.signbit(got), np.signbit(want)))
    return got.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(_extreme_bats)
def test_set_aggregate_min_max_match_naive(case):
    tail_atom, pairs = case
    bat = bat_from_pairs("long", tail_atom, pairs)
    heads = [h for h, _t in pairs]
    tails = np.asarray([t for _h, t in pairs],
                       dtype=object if tail_atom == "string" else None)
    codes, n = naive.factorize(_int_arr(heads))
    by_head = sorted(range(n), key=lambda c: heads[list(codes).index(c)])
    for func in ("min", "max"):
        out = ops.set_aggregate(func, bat)
        verify(out)
        picked = naive.grouped_extreme(func, tails, codes, n)
        assert [h for h, _t in out.to_pairs()] == sorted(set(heads))
        assert _same_values(out.tail.logical(),
                            [tails[picked[c]] for c in by_head])


_scalar_tails = st.one_of(
    st.tuples(st.just("long"), st.lists(
        st.integers(-3, 3) | st.integers(-2 ** 62, 2 ** 62), min_size=1,
        max_size=12)),
    st.tuples(st.just("double"), st.lists(
        st.sampled_from([-0.0, 0.0, 1.0, 2.0, float("nan")]), min_size=1,
        max_size=12)),
    st.tuples(st.just("string"), st.lists(
        st.sampled_from(["a", "b", "abc", ""]), min_size=1, max_size=12)))


@settings(max_examples=60, deadline=None)
@given(_scalar_tails)
@example(("double", [2.0, float("nan"), 1.0]))
@example(("double", [0.0, -0.0]))
def test_scalar_min_max_match_the_one_group_aggregate(case):
    # min()/max() over a whole tail are {min}/{max} over one group:
    # the same NaN rule (above every number) and the same ties (first
    # for min, last for max, so -0.0 and 0.0 keep their signs)
    tail_atom, tails = case
    bat = bat_from_pairs("oid", tail_atom, [(0, t) for t in tails])
    for func in ("min", "max"):
        grouped = ops.set_aggregate(func, bat).tail.logical()
        assert _same_values([ops.aggregate_all(func, bat)], grouped)


def test_set_aggregate_nan_heads_each_their_own_group():
    nan = float("nan")
    bat = bat_from_pairs("double", "long", [(nan, 1), (nan, 2), (1.0, 3)])
    out = ops.set_aggregate("count", bat)
    verify(out)
    pairs = out.to_pairs()
    assert pairs[0] == (1.0, 1)
    assert [t for _h, t in pairs[1:]] == [1, 1]
    assert all(np.isnan(h) for h, _t in pairs[1:])


@settings(max_examples=60, deadline=None)
@given(_nan_floats, st.data())
def test_set_aggregate_nan_heads_match_per_bun_reference(heads, data):
    tails = data.draw(st.lists(st.integers(-9, 9), min_size=len(heads),
                               max_size=len(heads)))
    bat = bat_from_pairs("double", "long", list(zip(heads, tails)))
    codes, n = naive.factorize(np.asarray(heads, dtype=np.float64))
    members = [[] for _ in range(n)]
    for code, tail in zip(codes.tolist(), tails):
        members[code].append(tail)
    first = naive.first_occurrence(codes)

    def head_order(code):
        # finite heads ascending, then one group per NaN row in BUN order
        head = heads[first[code]]
        return (1, first[code]) if head != head else (0, head)
    order = sorted(range(n), key=head_order)
    for func, reduce in (("count", len), ("sum", sum), ("min", min),
                         ("max", max)):
        out = ops.set_aggregate(func, bat)
        verify(out)
        assert _same_values(out.head.logical(),
                            [heads[first[c]] for c in order])
        assert out.tail.logical().tolist() == [reduce(members[c])
                                               for c in order]


# ----------------------------------------------------------------------
# composite keys: dense codes refined part by part, never overflowing
# ----------------------------------------------------------------------
def test_combine_codes_plain_arithmetic_unchanged():
    # (3, 1), (0, 2), (3, 1): numbered in sorted pair order
    codes, n = vz.refine_codes([3, 0, 3], [1, 2, 1])
    assert list(codes) == [1, 0, 1] and n == 2


def test_combine_codes_overflow_falls_back_to_pair_codes():
    # high codes and low keys of 2**40: a mixed-radix product of the
    # raw values would wrap int64 and alias pairs
    high = np.asarray([2 ** 40, 2 ** 40, 1, 0], dtype=np.int64)
    low = np.asarray([0, 2 ** 40, 0, 2 ** 40], dtype=np.int64)
    combined, n = vz.refine_codes(high, low)
    assert combined.dtype == np.int64 and n == 4
    # pair equality/inequality preserved, order = sorted (high, low)
    assert sorted(combined.tolist()) == [0, 1, 2, 3]
    assert list(np.argsort(combined)) == [3, 2, 0, 1]
    # the raw product aliases: 2**40 * (2**40 + 1) wraps to 2**40
    wrapped = high * np.int64(2 ** 40 + 1) + low
    assert len(set(wrapped.tolist())) < 4


def test_combine_codes_pair_keeps_sides_comparable_on_overflow():
    # pairjoin over two wide key columns per side: only the equal
    # composite (2**40, 7) matches
    big = 2 ** 40
    l1 = _bat([(0, big), (1, 5)], tail="long")
    l2 = _bat([(0, 7), (1, 3)], tail="long")
    r1 = _bat([(10, big), (11, big)], tail="long")
    r2 = _bat([(10, 7), (11, 8)], tail="long")
    out = ops.pairjoin([l1, l2, r1, r2])
    assert out.to_pairs() == [(0, 10)]


def test_combine_codes_pair_no_overflow_matches_arithmetic():
    # both sides coded jointly: factorize over the concatenation, then
    # refine, as pairjoin does — equal pairs get equal codes
    n_left = 2
    high, _n = vz.factorize(np.asarray([2, 0, 2]))
    codes, n = vz.refine_codes(high, np.asarray([1, 1, 1]))
    left, right = codes[:n_left], codes[n_left:]
    assert list(left) == [1, 0] and list(right) == [1]
    assert n == 2


def test_multimap_scalar_probes():
    mm = vz.MultiMap(_int_arr([5, 7, 5, 9]))
    assert list(mm.match(_int_arr([5]))[1]) == [0, 2]
    assert list(mm.lookup_first(_int_arr([9, 42]))) == [3, -1]
    assert len(mm.match(_int_arr([42]))[1]) == 0


def test_multimap_dense_vs_sorted_agree():
    keys = _int_arr([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
    probes = _int_arr([1, 5, 8, -3, 9])
    dense = vz.MultiMap(keys)
    assert dense.starts is not None        # compact domain => dense
    sparse = vz.MultiMap(keys * (2 ** 40))  # spread out => binary search
    assert sparse.starts is None
    _assert_same(dense.match(probes), naive.match(probes, keys))
    _assert_same(sparse.match(probes * (2 ** 40)),
                 naive.match(probes * (2 ** 40), keys * (2 ** 40)))


# ----------------------------------------------------------------------
# operator-level differentials across atom types
# ----------------------------------------------------------------------
def _bat(pairs, head="oid", tail="int"):
    bat = bat_from_pairs(head, tail, pairs)
    bat.props = compute_props(bat)
    return bat


_heads = st.integers(0, 12)
_str_tail = st.sampled_from(["a", "b", "abc", "zz"])
_dbl_tail = st.floats(min_value=-8, max_value=8, width=16)
_int_tail = st.integers(-9, 9)


def _pairs(tail):
    return st.lists(st.tuples(_heads, tail), max_size=20)


@settings(max_examples=50, deadline=None)
@given(_pairs(_int_tail), _pairs(_str_tail))
def test_join_str_tail_spec(left_pairs, right_pairs):
    # int join column, string payload: var-sized tails must survive
    ab = _bat([(h, t) for h, t in left_pairs])
    cd = _bat([(h, s) for (h, _t), (_h2, s) in
               zip(right_pairs, right_pairs)], tail="string")
    out = ops.join(ab, cd)
    expected = sorted((a, d) for a, b in ab.to_pairs()
                      for c, d in cd.to_pairs() if b == c)
    assert sorted(out.to_pairs()) == expected
    verify(out)


@settings(max_examples=50, deadline=None)
@given(_pairs(_str_tail), _pairs(_str_tail))
def test_setops_str_tails_spec(left_pairs, right_pairs):
    ab = bat_from_pairs("oid", "string", left_pairs)
    cd = bat_from_pairs("oid", "string", right_pairs)
    uniq = ops.unique(ab).to_pairs()
    first = []
    for p in left_pairs:
        if p not in first:
            first.append(p)
    assert uniq == first
    # the operands hold separate heaps: equal strings, unequal indices
    merged = ops.union(ab, cd).to_pairs()
    for p in right_pairs:
        if p not in first:
            first.append(p)
    assert merged == first


@settings(max_examples=50, deadline=None)
@given(_pairs(_dbl_tail), _pairs(_dbl_tail))
def test_setops_double_tails_spec(left_pairs, right_pairs):
    # float tails must never be routed through integer offset coding
    ab = bat_from_pairs("oid", "double", left_pairs)
    cd = bat_from_pairs("oid", "double", right_pairs)
    first = list(dict.fromkeys(left_pairs + right_pairs))
    assert ops.union(ab, cd).to_pairs() == first
    assert ops.unique(ab).to_pairs() == list(dict.fromkeys(left_pairs))


def test_joint_codes_float_not_truncated():
    codes, _n = vz.factorize(np.asarray([2.5, 2.0, 2.0], dtype=np.float64))
    lc, rc = codes[:2], codes[2:]
    assert lc[0] != rc[0] and lc[1] == rc[0]


@settings(max_examples=50, deadline=None)
@given(_pairs(_dbl_tail))
def test_aggregate_double_spec(pairs):
    bat = bat_from_pairs("oid", "double", pairs)
    for func in ("sum", "count", "min", "max"):
        out = dict(ops.set_aggregate(func, bat).to_pairs())
        expected = {}
        for a, b in pairs:
            bucket = expected.setdefault(a, [])
            bucket.append(b)
        for key, bucket in expected.items():
            want = {"sum": sum(bucket), "count": len(bucket),
                    "min": min(bucket), "max": max(bucket)}[func]
            assert out[key] == pytest.approx(want)


def test_aggregate_sum_exact_beyond_float():
    # partial sums past 2**53 must not round through float64
    big = 2 ** 61
    bat = bat_from_pairs("oid", "long",
                         [(1, big), (1, 3), (2, big), (2, -1)])
    out = dict(ops.set_aggregate("sum", bat).to_pairs())
    assert out == {1: big + 3, 2: big - 1}


@settings(max_examples=50, deadline=None)
@given(_pairs(_int_tail), _pairs(_int_tail))
def test_semijoin_void_heads(left_pairs, right_pairs):
    # void (virtual dense) heads take the fixed-width membership kernel
    ab = bat_dense_head(column_from_values(
        "int", [t for _h, t in left_pairs]))
    cd = _bat(right_pairs)
    out = ops.semijoin(ab, cd)
    heads = {c for c, _d in cd.to_pairs()}
    assert out.to_pairs() == [p for p in ab.to_pairs()
                              if p[0] in heads]


@settings(max_examples=50, deadline=None)
@given(_pairs(_int_tail))
def test_group_all_duplicates_and_empty(pairs):
    bat = _bat([(h, 4) for h, _t in pairs])   # all-duplicate tails
    out = ops.group1(bat)
    assert len(out) == len(bat)
    assert len({g for _h, g in out.to_pairs()}) <= 1
    from repro.monet import empty_bat
    assert len(ops.group1(empty_bat("oid", "int"))) == 0


def test_pairjoin_str_keys_and_missing_heads():
    l1 = _bat([(1, 10), (2, 20), (3, 10)])
    l2 = bat_from_pairs("oid", "string", [(1, "x"), (2, "x"), (3, "y")])
    l2.props = compute_props(l2)
    r1 = _bat([(7, 10), (8, 10), (9, 20)])
    # right side misses head 9 in its second key column
    r2 = bat_from_pairs("oid", "string", [(7, "x"), (8, "y")])
    r2.props = compute_props(r2)
    out = ops.pairjoin([l1, l2, r1, r2])
    # (1,(10,x))->(7,(10,x)); (3,(10,y))->(8,(10,y)); 9 has a missing
    # key component, which only matches another missing component
    assert sorted(out.to_pairs()) == [(1, 7), (3, 8)]
