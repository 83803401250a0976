"""Integer columns stored narrower than their atom.

A catalog integer column is stored in the narrowest of int16/int32/
int64 that holds its values (:func:`repro.monet.column.narrowest`), so
every operator meets operands of mixed widths: an int16 oid head
probed by an int64 intermediate, an int32 ``int`` tail added to an
int64 one.  These tests draw each operand's width independently —
among the widths that hold its values, whose edges (int16's and
int32's minimum and maximum) are drawn on purpose — and require
every binary operator to return, BUN for BUN, what it returns on the
same operands at the atom's own width.  Literals outside a narrow
column's range go through ``select`` and multiplex arithmetic.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.monet import BAT, FixedColumn, compute_props
from repro.monet import operators as ops
from repro.monet.column import INT_WIDTHS, column_from_values, narrowest
from repro.monet.kernel import catalog_column
from repro.monet.properties import fresh_alignment

_I16 = np.iinfo(np.int16)
_I32 = np.iinfo(np.int32)

#: values at the edges of each narrow width, and just past them
EDGES = (int(_I16.min), int(_I16.min) + 1, -1, 0, 1, int(_I16.max),
         int(_I16.max) + 1, int(_I32.min), int(_I32.max),
         int(_I32.max) + 1)

_keys = st.lists(st.sampled_from(EDGES) | st.integers(-3, 3), max_size=16)
_oids = st.lists(st.sampled_from((0, 1, 2, int(_I16.max),
                                  int(_I16.max) + 1, int(_I32.max)))
                 | st.integers(0, 4), max_size=16)


def _fitting(values):
    """The widths of :data:`INT_WIDTHS` that hold every value."""
    if not values:
        return list(INT_WIDTHS)
    low, high = min(values), max(values)
    return [dtype for dtype in INT_WIDTHS
            if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max]


def _column(atom, values, dtype):
    wide = column_from_values(atom, values)
    return FixedColumn(wide.atom, wide.data.astype(dtype))


@st.composite
def _operand(draw, head_values, tail_values, head_atom="long",
             tail_atom="long"):
    """``(narrow, wide)``: one BAT twice, the narrow one with a width
    drawn per column, both with the same properties."""
    heads = draw(head_values)
    tails = draw(tail_values)
    n = min(len(heads), len(tails))
    heads, tails = heads[:n], tails[:n]
    wide = BAT(column_from_values(head_atom, heads),
               column_from_values(tail_atom, tails))
    narrow = BAT(_column(head_atom, heads,
                         draw(st.sampled_from(_fitting(heads)))),
                 _column(tail_atom, tails,
                         draw(st.sampled_from(_fitting(tails)))))
    wide.props = compute_props(wide)
    narrow.props = compute_props(narrow)
    return narrow, wide


def _pairs_and_domain(bat):
    for column in (bat.head, bat.tail):
        keys = column.keys()
        assert keys.dtype.name in ("bool", "int16", "int32", "int64",
                                   "float32", "float64")
    return bat.to_pairs()


def _same(run, *operand_pairs):
    narrow = run(*[pair[0] for pair in operand_pairs])
    wide = run(*[pair[1] for pair in operand_pairs])
    assert _pairs_and_domain(narrow) == _pairs_and_domain(wide)


# ----------------------------------------------------------------------
# binary operators, narrow against wide
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(_operand(_oids, _keys), _operand(_keys, _keys))
def test_join_of_mixed_widths_equals_the_wide_join(left, right):
    _same(ops.join, left, right)


@settings(max_examples=80, deadline=None)
@given(_operand(_keys, _keys), _operand(_keys, _oids))
def test_semijoin_and_antijoin_of_mixed_widths(left, right):
    _same(ops.semijoin, left, right)
    _same(ops.antijoin, left, right)


@settings(max_examples=60, deadline=None)
@given(_operand(_keys, _keys), _operand(_keys, _keys))
def test_union_of_mixed_widths(left, right):
    _same(ops.union, left, right)
    _same(ops.unique, left)


@settings(max_examples=60, deadline=None)
@given(_operand(_keys, _keys), _operand(_keys, _oids))
def test_fill_zero_of_mixed_widths(aggregated, carrier):
    def run(source, carrier_bat):
        return ops.fill_zero(ops.set_aggregate("sum", source), carrier_bat)
    _same(run, aggregated, carrier)


@settings(max_examples=60, deadline=None)
@given(_operand(_keys, _keys))
def test_group_sort_and_aggregates_of_mixed_widths(operand):
    _same(ops.group1, operand)
    _same(ops.sort_tail, operand)
    for func in ("sum", "count", "min", "max"):
        _same(lambda bat: ops.set_aggregate(func, bat), operand)
    narrow, wide = operand
    for func in ("sum", "min", "max", "avg"):
        assert ops.aggregate_all(func, narrow) \
            == ops.aggregate_all(func, wide)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["+", "-", "*", "/"]))
def test_multiplex_arithmetic_of_mixed_widths(data, fname):
    heads = list(range(data.draw(st.integers(0, 12))))
    lefts = data.draw(st.lists(st.sampled_from(EDGES) | st.integers(-3, 3),
                               min_size=len(heads), max_size=len(heads)))
    rights = data.draw(st.lists(st.sampled_from(EDGES)
                                | st.integers(-3, 3),
                                min_size=len(heads), max_size=len(heads)))
    token = fresh_alignment()

    def operand(tails, dtype):
        head = _column("oid", heads, data.draw(st.sampled_from(
            _fitting(heads))))
        bat = BAT(head, _column("long", tails, dtype), alignment=token)
        bat.props = compute_props(bat)
        return bat

    left = operand(lefts, data.draw(st.sampled_from(_fitting(lefts))))
    right = operand(rights, data.draw(st.sampled_from(_fitting(rights))))
    wide_left = operand(lefts, np.int64)
    wide_right = operand(rights, np.int64)
    literal = data.draw(st.sampled_from((100000, -100000, 2 ** 31, 7)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for args, wide_args in (((left, right), (wide_left, wide_right)),
                                ((left, literal), (wide_left, literal)),
                                ((literal, right), (literal, wide_right))):
            got = ops.multiplex(fname, *args).to_pairs()
            want = ops.multiplex(fname, *wide_args).to_pairs()
            assert repr(got) == repr(want)      # NaN-safe
    # the aligned path: the same operands under unrelated tokens
    right.alignment = fresh_alignment()
    wide_right.alignment = fresh_alignment()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert repr(ops.multiplex(fname, left, right).to_pairs()) \
            == repr(ops.multiplex(fname, wide_left, wide_right).to_pairs())


@settings(max_examples=60, deadline=None)
@given(_operand(_oids, _keys),
       st.sampled_from((-100000, int(_I16.min) - 1, int(_I16.min), 0,
                        int(_I16.max), int(_I16.max) + 1, 100000,
                        int(_I32.max) + 1)),
       st.sampled_from((-(2 ** 40), -1, int(_I16.max) + 1, 2 ** 40)))
def test_select_with_literals_outside_the_stored_range(operand, low, high):
    _same(lambda bat: ops.select_range(bat, low, high), operand)
    _same(lambda bat: ops.select_range(bat, low, None), operand)
    _same(lambda bat: ops.select_eq(bat, low), operand)
    # the scan path, without the ordered tail the binary search needs
    narrow, wide = operand
    for bat in (narrow, wide):
        bat.props.tordered = False
    _same(lambda bat: ops.select_range(bat, low, high), operand)
    _same(lambda bat: ops.select_eq(bat, high), operand)


# ----------------------------------------------------------------------
# the hazards of narrow arithmetic, pinned as correct answers
# ----------------------------------------------------------------------
def _narrow_int_bat(values):
    column = catalog_column("int", values)
    assert column.data.dtype == np.int16
    bat = BAT(column_from_values("oid", list(range(len(values)))), column)
    bat.props = compute_props(bat)
    return bat


def test_int16_times_int16_does_not_wrap():
    # 30000 * 30000 wraps to -5888 in int16; the atom is int (int32)
    bat = _narrow_int_bat([30000, -30000, 2])
    product = ops.multiplex("*", bat, bat)
    assert product.tail.data.dtype == np.int32
    assert [t for _h, t in product.to_pairs()] == [900000000, 900000000, 4]


def test_int16_plus_a_literal_past_int16_does_not_overflow():
    # int16 + 100000 raises OverflowError under numpy 2's promotion
    bat = _narrow_int_bat([30000, -5, 0])
    total = ops.multiplex("+", bat, 100000)
    assert [t for _h, t in total.to_pairs()] == [130000, 99995, 100000]
    assert [t for _h, t in ops.multiplex("neg", bat).to_pairs()] \
        == [-30000, 5, 0]


# ----------------------------------------------------------------------
# the narrowing rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("values, dtype", [
    ([0, 1, int(_I16.max)], np.int16),
    ([int(_I16.min), 5], np.int16),
    ([0, int(_I16.max) + 1], np.int32),
    ([int(_I16.min) - 1], np.int32),
    ([int(_I32.max)], np.int32),
    ([int(_I32.max) + 1], np.int64),
    ([int(_I32.min) - 1, 0], np.int64),
])
def test_narrowest_picks_the_smallest_covering_width(values, dtype):
    assert catalog_column("long", values).data.dtype == dtype


@pytest.mark.parametrize("atom, values", [
    ("bool", [True, False]), ("double", [1.0, 2.0]),
    ("short", [1, 2]), ("string", ["a", "b"]), ("long", []),
])
def test_narrowest_leaves_other_columns_alone(atom, values):
    column = column_from_values(atom, values)
    assert narrowest(column) is column


def test_a_narrow_column_counts_its_stored_bytes():
    column = catalog_column("oid", list(range(5000)))
    assert column.data.dtype == np.int16
    assert column.nbytes == 10000 and column.width == 2
    # a narrower array of any other kind is stored at the atom's width
    assert FixedColumn("long", np.arange(3, dtype=np.int8)).data.dtype \
        == np.int64
    assert FixedColumn("long", np.arange(3, dtype=np.uint16)).data.dtype \
        == np.int64
