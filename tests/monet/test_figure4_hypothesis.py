"""Property-based tests: Figure 4 set-comprehension specs.

Hypothesis generates small random BATs; every operator result is
compared against the paper's declarative definition, and the property
flags declared on the result are re-verified against the data (a
falsely declared property would silently corrupt dynamic dispatch).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.monet import bat_from_pairs, compute_props, verify
from repro.monet import operators as ops

_pairs = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                  max_size=30)
_small = st.integers(0, 20)


def _bat(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    bat.props = compute_props(bat)
    return bat


@settings(max_examples=60, deadline=None)
@given(_pairs, _small, _small)
def test_select_spec(pairs, lo, hi):
    bat = _bat(pairs)
    out = ops.select_range(bat, lo, hi)
    expected = [ab for ab in pairs if lo <= ab[1] <= hi]
    assert out.to_pairs() == expected
    verify(out)


@settings(max_examples=60, deadline=None)
@given(_pairs, _small)
def test_select_eq_spec(pairs, value):
    bat = _bat(pairs)
    out = ops.select_eq(bat, value)
    assert out.to_pairs() == [ab for ab in pairs if ab[1] == value]
    verify(out)


@settings(max_examples=60, deadline=None)
@given(_pairs, _pairs)
def test_join_spec(left_pairs, right_pairs):
    ab = _bat(left_pairs)
    cd = _bat(right_pairs)
    out = ops.join(ab, cd)
    expected = sorted((a, d) for a, b in left_pairs
                      for c, d in right_pairs if b == c)
    assert sorted(out.to_pairs()) == expected
    verify(out)


@settings(max_examples=60, deadline=None)
@given(_pairs, _pairs)
def test_semijoin_spec(left_pairs, right_pairs):
    ab = _bat(left_pairs)
    cd = _bat(right_pairs)
    out = ops.semijoin(ab, cd)
    heads = {c for c, _d in right_pairs}
    assert out.to_pairs() == [ab_ for ab_ in left_pairs
                              if ab_[0] in heads]
    verify(out)


@settings(max_examples=60, deadline=None)
@given(_pairs, _pairs)
def test_semijoin_antijoin_partition(left_pairs, right_pairs):
    ab = _bat(left_pairs)
    cd = _bat(right_pairs)
    semi = ops.semijoin(ab, cd).to_pairs()
    anti = ops.antijoin(ab, cd).to_pairs()
    assert len(semi) + len(anti) == len(left_pairs)
    assert sorted(semi + anti) == sorted(left_pairs)


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_unique_spec(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    out = ops.unique(bat)
    seen = []
    for pair in pairs:
        if pair not in seen:
            seen.append(pair)
    assert out.to_pairs() == seen
    # idempotence
    assert ops.unique(out).to_pairs() == seen


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_group_spec(pairs):
    bat = _bat(pairs)
    out = ops.group1(bat)
    assert len(out) == len(bat)
    gid_of = {}
    for (a, b), (a2, gid) in zip(pairs, out.to_pairs()):
        assert a == a2
        if b in gid_of:
            assert gid_of[b] == gid
        else:
            gid_of[b] = gid
    # distinct values got distinct group oids
    assert len(set(gid_of.values())) == len(gid_of)


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_set_aggregate_spec(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    out = dict(ops.set_aggregate("sum", bat).to_pairs())
    expected = {}
    for a, b in pairs:
        expected[a] = expected.get(a, 0) + b
    assert out == expected


@settings(max_examples=60, deadline=None)
@given(_pairs, _pairs)
def test_setops_specs(left_pairs, right_pairs):
    ab = bat_from_pairs("oid", "int", left_pairs)
    cd = bat_from_pairs("oid", "int", right_pairs)
    union = ops.union(ab, cd).to_pairs()
    assert set(union) == set(left_pairs) | set(right_pairs)
    assert len(union) == len(set(union))


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_mirror_involution(pairs):
    bat = _bat(pairs)
    assert bat.mirror().mirror().to_pairs() == pairs
    assert bat.mirror().to_pairs() == [(b, a) for a, b in pairs]


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_sort_is_permutation_and_ordered(pairs):
    bat = bat_from_pairs("oid", "int", pairs)
    out = ops.sort_tail(bat)
    assert sorted(out.to_pairs()) == sorted(pairs)
    tails = [p[1] for p in out.to_pairs()]
    assert tails == sorted(tails)
    verify(out)


@settings(max_examples=40, deadline=None)
@given(_pairs, _small, _small)
def test_select_conjunction_is_range_intersection(pairs, lo, hi):
    # select(lo..) then select(..hi) == select(lo..hi)
    bat = _bat(pairs)
    stepwise = ops.select_range(ops.select_range(bat, lo, None),
                                None, hi)
    direct = ops.select_range(bat, lo, hi)
    assert stepwise.to_pairs() == direct.to_pairs()
