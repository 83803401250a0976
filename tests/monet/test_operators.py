"""Figure 4 operator semantics, implementation dispatch, properties."""

import pytest

from repro.errors import OperatorError, PropertyError
from repro.monet import (bat_from_pairs, compute_props, dispatch_disabled,
                         get_optimizer, verify)
from repro.monet import operators as ops
from repro.monet.properties import synced


def _bat(pairs, head="oid", tail="int"):
    bat = bat_from_pairs(head, tail, pairs)
    bat.props = compute_props(bat)
    return bat


# ----------------------------------------------------------------------
# select
# ----------------------------------------------------------------------
def test_select_eq_spec():
    bat = _bat([(1, 5), (2, 7), (3, 5), (4, 9)])
    out = ops.select_eq(bat, 5)
    assert out.to_pairs() == [(1, 5), (3, 5)]
    verify(out)


def test_select_range_spec():
    bat = _bat([(1, 5), (2, 7), (3, 5), (4, 9)])
    out = ops.select_range(bat, 5, 7)
    assert out.to_pairs() == [(1, 5), (2, 7), (3, 5)]
    out = ops.select_range(bat, None, 6)
    assert out.to_pairs() == [(1, 5), (3, 5)]
    out = ops.select_range(bat, 8, None)
    assert out.to_pairs() == [(4, 9)]


def test_select_exclusive_bounds():
    bat = _bat([(1, 5), (2, 7), (3, 9)])
    out = ops.select_range(bat, 5, 9, low_inclusive=False,
                           high_inclusive=False)
    assert out.to_pairs() == [(2, 7)]


def test_select_binsearch_on_sorted():
    bat = _bat([(3, 1), (1, 2), (2, 2), (4, 5)])
    assert bat.props.tordered
    out = ops.select_eq(bat, 2)
    assert get_optimizer().last["select"] == "binsearch"
    assert out.to_pairs() == [(1, 2), (2, 2)]


def test_select_scan_on_unsorted():
    bat = _bat([(1, 9), (2, 2), (3, 5)])
    out = ops.select_range(bat, 3, 9)
    assert get_optimizer().last["select"] == "scan"
    assert out.to_pairs() == [(1, 9), (3, 5)]


def test_select_strings():
    bat = _bat([(1, "x"), (2, "y"), (3, "x")], tail="string")
    assert ops.select_eq(bat, "x").to_pairs() == [(1, "x"), (3, "x")]
    assert ops.select_eq(bat, "zz").to_pairs() == []


def test_select_string_range_prefix():
    bat = _bat([(1, "PROMO A"), (2, "STANDARD B"), (3, "PROMO C")],
               tail="string")
    out = ops.select_range(bat, "PROMO", "PROMO\xff")
    assert sorted(p[0] for p in out.to_pairs()) == [1, 3]


# ----------------------------------------------------------------------
# join
# ----------------------------------------------------------------------
def test_join_spec_projects_out_join_columns():
    ab = _bat([(1, 10), (2, 20), (3, 10)])
    cd = _bat([(10, "x"), (20, "y")], tail="string")
    out = ops.join(ab, cd)
    assert out.to_pairs() == [(1, "x"), (2, "y"), (3, "x")]
    verify(out)


def test_join_m_n():
    ab = _bat([(1, 10), (2, 10)])
    cd = bat_from_pairs("oid", "int", [(10, 7), (10, 8)])
    cd.props = compute_props(cd)
    out = ops.join(ab, cd)
    assert sorted(out.to_pairs()) == [(1, 7), (1, 8), (2, 7), (2, 8)]


def test_join_dispatch_merge_and_hash():
    ab = _bat([(1, 10), (2, 20)])
    sorted_cd = _bat([(10, 1), (20, 2)])
    ops.join(ab, sorted_cd)
    assert get_optimizer().last["join"] == "mergejoin"
    unsorted_cd = bat_from_pairs("oid", "int", [(20, 2), (10, 1)])
    unsorted_cd.props = compute_props(unsorted_cd)
    ops.join(ab, unsorted_cd)
    assert get_optimizer().last["join"] == "keyjoin"
    # a head that is not a key can match more than once: no slot array
    unkeyed_cd = bat_from_pairs("oid", "int", [(20, 2), (10, 1), (20, 3)])
    unkeyed_cd.props = compute_props(unkeyed_cd)
    out = ops.join(ab, unkeyed_cd)
    assert get_optimizer().last["join"] == "hashjoin"
    assert out.to_pairs() == [(1, 1), (2, 2), (2, 3)]


def test_join_fetch_on_void_head():
    from repro.monet import bat_dense_head, column_from_values
    cd = bat_dense_head(column_from_values("string", ["a", "b", "c"]))
    ab = _bat([(7, 2), (8, 0), (9, 5)])
    out = ops.join(ab, cd)
    assert get_optimizer().last["join"] == "fetchjoin"
    assert out.to_pairs() == [(7, "c"), (8, "a")]


def test_join_total_match_is_synced_with_left():
    ab = _bat([(1, 10), (2, 20)])
    cd = _bat([(10, 5), (20, 6)])
    out = ops.join(ab, cd)
    assert synced(out, ab)


def test_pairjoin_multi_key():
    l1 = _bat([(1, 10), (2, 20), (3, 10)])
    l2 = _bat([(1, 5), (2, 5), (3, 6)])
    r1 = _bat([(7, 10), (8, 10)])
    r2 = _bat([(7, 5), (8, 6)])
    out = ops.pairjoin([l1, l2, r1, r2])
    assert sorted(out.to_pairs()) == [(1, 7), (3, 8)]


def test_pairjoin_arity_check():
    ab = _bat([(1, 1)])
    with pytest.raises(OperatorError):
        ops.pairjoin([ab])


# ----------------------------------------------------------------------
# semijoin / antijoin
# ----------------------------------------------------------------------
def test_semijoin_spec():
    ab = _bat([(1, 10), (2, 20), (3, 30)])
    cd = _bat([(1, 0), (3, 0)])
    out = ops.semijoin(ab, cd)
    assert out.to_pairs() == [(1, 10), (3, 30)]
    verify(out)


def test_antijoin_spec():
    ab = _bat([(1, 10), (2, 20), (3, 30)])
    cd = _bat([(1, 0), (3, 0)])
    out = ops.antijoin(ab, cd)
    assert out.to_pairs() == [(2, 20)]


def test_kdiff():
    # key difference is antijoin: head-wise, the right operand's tails
    # play no part
    a = _bat([(1, 10), (2, 20)])
    b = _bat([(2, 99)])
    assert ops.antijoin(a, b).to_pairs() == [(1, 10)]


def test_semijoin_sync_fast_path():
    ab = _bat([(1, 10), (2, 20)])
    out = ops.semijoin(ab, ab)
    assert get_optimizer().last["semijoin"] == "syncsemijoin"
    assert out.to_pairs() == ab.to_pairs()


def test_semijoin_merge_path():
    ab = _bat([(1, 10), (2, 20), (3, 30)])
    cd = _bat([(2, 0), (3, 0)])
    out = ops.semijoin(ab, cd)
    assert get_optimizer().last["semijoin"] == "mergesemijoin"
    assert out.to_pairs() == [(2, 20), (3, 30)]


def test_semijoin_hash_fallback_when_dispatch_off():
    ab = _bat([(1, 10), (2, 20)])
    cd = _bat([(2, 0)])
    with dispatch_disabled():
        out = ops.semijoin(ab, cd)
        assert get_optimizer().last["semijoin"] == "hashsemijoin"
    assert out.to_pairs() == [(2, 20)]


def test_two_semijoins_same_right_are_synced():
    # the prices/discount situation of the Q13 trace
    price = _bat([(1, 10), (2, 20), (3, 30)])
    disc = _bat([(1, 1), (2, 2), (3, 3)])
    disc.alignment = price.alignment      # same load group
    sel = _bat([(1, 0), (3, 0)])
    a = ops.semijoin(price, sel)
    b = ops.semijoin(disc, sel)
    assert synced(a, b)


# ----------------------------------------------------------------------
# unique / group
# ----------------------------------------------------------------------
def test_unique_spec():
    ab = bat_from_pairs("oid", "int",
                        [(1, 5), (1, 5), (2, 5), (1, 5)])
    out = ops.unique(ab)
    assert out.to_pairs() == [(1, 5), (2, 5)]


def test_unique_noop_on_key():
    ab = _bat([(1, 5), (2, 5)])
    out = ops.unique(ab)
    assert get_optimizer().last["unique"] == "noop"
    assert out.to_pairs() == ab.to_pairs()


def test_group_unary_spec():
    ab = _bat([(1, 5), (2, 7), (3, 5)])
    out = ops.group1(ab)
    pairs = dict(out.to_pairs())
    assert pairs[1] == pairs[3] != pairs[2]
    assert synced(out, ab)


def test_group_binary_refines():
    ab = _bat([(1, 5), (2, 5), (3, 7)])
    grp = ops.group1(ab)
    cd = _bat([(1, 1), (2, 2), (3, 1)])
    out = ops.group2(grp, cd)
    pairs = dict(out.to_pairs())
    # (5,1), (5,2), (7,1): all three distinct
    assert len({pairs[1], pairs[2], pairs[3]}) == 3


def test_group_binary_same_keys_stay_grouped():
    ab = _bat([(1, 5), (2, 5)])
    grp = ops.group1(ab)
    cd = _bat([(1, 9), (2, 9)])
    out = ops.group2(grp, cd)
    pairs = dict(out.to_pairs())
    assert pairs[1] == pairs[2]


# ----------------------------------------------------------------------
# multiplex
# ----------------------------------------------------------------------
def test_multiplex_synced_fast_path():
    a = _bat([(1, 2), (2, 3)], tail="double")
    b = _bat([(1, 10), (2, 20)], tail="double")
    b.alignment = a.alignment
    out = ops.multiplex("*", a, b)
    assert get_optimizer().last["multiplex"] == "synced"
    assert out.to_pairs() == [(1, 20.0), (2, 60.0)]


def test_multiplex_aligned_path():
    a = _bat([(1, 2), (2, 3)], tail="double")
    b = _bat([(2, 20), (1, 10)], tail="double")
    out = ops.multiplex("+", a, b)
    assert get_optimizer().last["multiplex"] == "aligned"
    assert sorted(out.to_pairs()) == [(1, 12.0), (2, 23.0)]


def test_multiplex_scalar_broadcast():
    d = _bat([(1, 0.1), (2, 0.2)], tail="double")
    out = ops.multiplex("-", 1.0, d)
    assert out.to_pairs() == [(1, 0.9), (2, 0.8)]


def test_multiplex_year():
    from repro.monet.atoms import date_to_days
    bat = _bat([(1, date_to_days("1995-03-05")),
                (2, date_to_days("1996-12-31"))], tail="instant")
    out = ops.multiplex("year", bat)
    assert out.to_pairs() == [(1, 1995), (2, 1996)]


def test_multiplex_string_predicates():
    bat = _bat([(1, "PROMO X"), (2, "STD Y")], tail="string")
    assert ops.multiplex("startswith", bat, "PROMO").to_pairs() \
        == [(1, True), (2, False)]
    assert ops.multiplex("contains", bat, "Y").to_pairs() \
        == [(1, False), (2, True)]


def test_multiplex_ifthenelse():
    cond = _bat([(1, True), (2, False)], tail="bool")
    out = ops.multiplex("ifthenelse", cond, 1, 0)
    assert out.to_pairs() == [(1, 1), (2, 0)]


def test_multiplex_unknown_function():
    bat = _bat([(1, 1)])
    with pytest.raises(OperatorError):
        ops.multiplex("frobnicate", bat)


def test_register_function():
    if "test_double_it" not in ops.function_names():
        ops.register_function("test_double_it", lambda a: a * 2,
                              lambda atoms_in: atoms_in[0], 1)
    bat = _bat([(1, 21)])
    assert ops.multiplex("test_double_it", bat).to_pairs() == [(1, 42)]


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------
def test_set_aggregate_sum_avg_count():
    ab = bat_from_pairs("oid", "double",
                        [(1, 2.0), (1, 4.0), (2, 10.0)])
    assert ops.set_aggregate("sum", ab).to_pairs() == [(1, 6.0), (2, 10.0)]
    assert ops.set_aggregate("avg", ab).to_pairs() == [(1, 3.0), (2, 10.0)]
    assert ops.set_aggregate("count", ab).to_pairs() == [(1, 2), (2, 1)]


def test_set_aggregate_min_max_strings():
    ab = bat_from_pairs("oid", "string",
                        [(1, "pear"), (1, "apple"), (2, "kiwi")])
    assert ops.set_aggregate("min", ab).to_pairs() == [(1, "apple"),
                                                       (2, "kiwi")]
    assert ops.set_aggregate("max", ab).to_pairs() == [(1, "pear"),
                                                       (2, "kiwi")]


def test_set_aggregate_props():
    ab = bat_from_pairs("oid", "int", [(2, 1), (1, 2), (2, 3)])
    out = ops.set_aggregate("sum", ab)
    assert out.props.hkey and out.props.hordered
    assert out.to_pairs() == [(1, 2), (2, 4)]


def test_aggregate_all():
    ab = bat_from_pairs("oid", "int", [(1, 3), (2, 4), (3, 5)])
    assert ops.aggregate_all("sum", ab) == 12
    assert ops.aggregate_all("count", ab) == 3
    assert ops.aggregate_all("min", ab) == 3
    assert ops.aggregate_all("max", ab) == 5
    assert ops.aggregate_all("avg", ab) == 4.0


def test_aggregate_all_empty():
    from repro.monet import empty_bat
    bat = empty_bat("oid", "int")
    assert ops.aggregate_all("sum", bat) == 0
    assert ops.aggregate_all("count", bat) == 0
    assert ops.aggregate_all("min", bat) is None


def test_grouped_long_sum_is_exact_at_the_int64_minimum():
    # the exactness bound is |v| * n in Python ints: abs(-2**63) wraps
    # in int64 and used to send this group down the float64 bincount
    ab = bat_from_pairs("oid", "long", [(0, -2 ** 63), (0, 1), (1, 5)])
    assert ops.set_aggregate("sum", ab).to_pairs() == [(0, -2 ** 63 + 1),
                                                       (1, 5)]


def test_aggregate_all_long_sum_is_exact():
    # float64 cannot hold 2**53 + 1; the sum of integer atoms is exact
    # in int64, and in Python ints past it
    assert ops.aggregate_all("sum", bat_from_pairs(
        "oid", "long", [(0, 2 ** 53), (1, 1)])) == 2 ** 53 + 1
    assert ops.aggregate_all("sum", bat_from_pairs(
        "oid", "long", [(0, 2 ** 62), (1, 2 ** 62), (2, 2 ** 62)])) \
        == 3 * 2 ** 62
    assert ops.aggregate_all("sum", bat_from_pairs(
        "oid", "int", [(0, -3), (1, 1)])) == -2


def test_group_constant_min_max_keep_the_tie_rule():
    # every tail equals its group's first key: min is the first
    # position's value, max the last one's (-0.0 and 0.0 are equal
    # keys with different bytes); a NaN key never takes the shortcut
    ab = bat_from_pairs("oid", "double",
                        [(1, -0.0), (2, 7.5), (1, 0.0), (2, 7.5)])
    low = ops.set_aggregate("min", ab).tail.logical()
    high = ops.set_aggregate("max", ab).tail.logical()
    assert [repr(v) for v in low.tolist()] == ["-0.0", "7.5"]
    assert [repr(v) for v in high.tolist()] == ["0.0", "7.5"]
    nan = bat_from_pairs("oid", "double", [(1, float("nan")), (1, 2.0)])
    assert ops.set_aggregate("min", nan).tail.logical().tolist() == [2.0]


def test_count_and_avg_reuse_the_cached_group_counts():
    ab = bat_from_pairs("oid", "double",
                        [(2, 1.0), (1, 2.0), (2, 3.0), (2, 5.0)])
    counts = ops.set_aggregate("count", ab)
    assert counts.to_pairs() == [(1, 1), (2, 3)]
    assert ab.head.grouping[3] is counts.tail.logical()
    assert ops.set_aggregate("avg", ab).to_pairs() == [(1, 2.0), (2, 3.0)]


def test_semijoin_on_a_dense_head_answers_by_position():
    # heads 10..14 in order, keys: a dense range; right keys out of
    # range, duplicated and unordered
    ab = _bat([(10, 0), (11, 1), (12, 2), (13, 3), (14, 4)])
    cd = bat_from_pairs("oid", "int",
                        [(14, 0), (9, 0), (12, 0), (14, 0), (99, 0)])
    out = ops.semijoin(ab, cd)
    assert out.to_pairs() == [(12, 2), (14, 4)]
    verify(out)
    assert ops.semijoin(ab, _bat([])).to_pairs() == []


def test_semijoin_through_a_cached_grouping():
    ab = bat_from_pairs("oid", "int", [(3, 0), (1, 1), (3, 2), (2, 3)])
    ops.set_aggregate("count", ab)            # caches the head grouping
    assert ab.head.grouping is not None
    out = ops.semijoin(ab, _bat([(3, 0), (2, 0)]))
    assert out.to_pairs() == [(3, 0), (3, 2), (2, 3)]
    every = ops.semijoin(ab, _bat([(1, 0), (2, 0), (3, 0)]))
    assert every.head is ab.head and every.tail is ab.tail


def test_unknown_aggregate():
    ab = _bat([(1, 1)])
    with pytest.raises(OperatorError):
        ops.set_aggregate("median", ab)


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------
def test_union_difference_intersection():
    """union is BUN-wise; MOA's difference and intersection compile to
    the head-wise antijoin and semijoin (elements compare by id)."""
    a = _bat([(1, 10), (2, 20)])
    b = _bat([(2, 20), (3, 30)])
    assert ops.union(a, b).to_pairs() == [(1, 10), (2, 20), (3, 30)]
    assert ops.antijoin(a, b).to_pairs() == [(1, 10)]
    assert ops.semijoin(a, b).to_pairs() == [(2, 20)]


def test_setops_on_strings():
    a = _bat([(1, "x"), (2, "y")], tail="string")
    b = _bat([(3, "y")], tail="string")
    # pair (2,"y") != (3,"y"): BUN-level semantics
    assert len(ops.union(a, b)) == 3
    assert ops.union(a, a).to_pairs() == [(1, "x"), (2, "y")]


# ----------------------------------------------------------------------
# sort / slice / misc
# ----------------------------------------------------------------------
def test_sort_tail():
    bat = bat_from_pairs("oid", "int", [(1, 3), (2, 1), (3, 2)])
    out = ops.sort_tail(bat)
    assert out.to_pairs() == [(2, 1), (3, 2), (1, 3)]
    assert out.props.tordered
    out = ops.sort_tail(bat, ascending=False)
    assert [p[1] for p in out.to_pairs()] == [3, 2, 1]


def test_sort_head():
    bat = bat_from_pairs("oid", "int", [(3, 1), (1, 2), (2, 3)])
    out = ops.sort_head(bat)
    assert [p[0] for p in out.to_pairs()] == [1, 2, 3]


def test_sort_positions_multi_key():
    from repro.monet.column import column_from_values
    a = column_from_values("int", [1, 1, 2])
    b = column_from_values("string", ["z", "a", "m"])
    order = ops.sort_positions([a, b], [False, True])
    assert list(order) == [0, 1, 2]
    order = ops.sort_positions([a, b], [False, False])
    assert list(order) == [1, 0, 2]


def test_slice():
    bat = _bat([(1, 1), (2, 2), (3, 3)])
    assert ops.slice_bunches(bat, 0, 2).to_pairs() == [(1, 1), (2, 2)]
    assert ops.slice_bunches(bat, 2, 99).to_pairs() == [(3, 3)]


def test_mark_number_ident():
    bat = _bat([(5, 50), (6, 60)])
    marked = ops.mark(bat, 100)
    assert marked.to_pairs() == [(5, 100), (6, 101)]
    numbered = ops.number(bat)
    assert numbered.to_pairs() == [(0, 50), (1, 60)]
    identical = ops.ident(bat)
    assert identical.to_pairs() == [(5, 5), (6, 6)]


def test_verify_catches_false_props():
    bat = bat_from_pairs("oid", "int", [(2, 1), (1, 2)])
    bat.props.hordered = True
    with pytest.raises(PropertyError):
        verify(bat)
