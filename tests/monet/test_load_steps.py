"""The load's shortcuts equal the general paths they skip.

Each load step pays once: ``key`` flags of compact integer columns come
from a bool table instead of a sort, a datavector whose attribute heads
are the extent takes the tail as it is instead of searching for every
position, and the reorder sorts a var column's ranks at the narrowest
width.  Each test draws operands and checks the shortcut against the
general computation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OperatorError
from repro.monet import MonetKernel, atoms, bat_from_pairs, properties
from repro.monet.accelerators.datavector import (DataVectorRegistry,
                                                 build_datavector)
from repro.monet.bat import BAT
from repro.monet.column import FixedColumn, column_from_values
from repro.monet.operators.sort import _rank_dtype, sort_tail
from repro.monet.properties import _is_key
from repro.monet.vectorized import _DENSE_FLOOR, _table_span

INT_DTYPES = (np.int16, np.int32, np.int64)


@st.composite
def integer_keys(draw):
    """Keys of one integer width: at either extreme of the width or
    anywhere in it, over a span below, at or above the table rule's
    floor, with or without duplicates."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    span = draw(st.sampled_from(
        [1, 2, 17, _DENSE_FLOOR, _DENSE_FLOOR + 1, 1 << 20, 1 << 40]))
    lo = draw(st.one_of(st.just(int(info.min)),
                        st.just(int(info.max) - span + 1),
                        st.just(-span // 2),
                        st.integers(int(info.min), int(info.max))))
    lo = max(int(info.min), min(lo, int(info.max)))
    hi = min(int(info.max), lo + span - 1)
    values = draw(st.lists(st.integers(lo, hi), max_size=300,
                           unique=draw(st.booleans())))
    return np.array(values, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(integer_keys(), st.randoms(use_true_random=False))
def test_is_key_equals_the_sort(keys, random):
    expected = len(np.unique(keys)) == len(keys)
    assert _is_key(keys) == expected
    shuffled = keys.copy()
    random.shuffle(shuffled)
    assert _is_key(shuffled) == expected


@pytest.mark.parametrize("dtype", INT_DTYPES)
def test_is_key_of_compact_integers_never_sorts(dtype, monkeypatch):
    # shuffled, so the strictly-increasing check cannot settle it
    info = np.iinfo(dtype)
    keys = np.random.default_rng(3).permutation(
        np.arange(1000) + (int(info.max) - 999)).astype(dtype)
    assert _table_span(keys.min(), keys.max(), len(keys)) is not None

    def no_sort(*_args, **_kwargs):
        raise AssertionError("np.unique ran on a compact integer key")
    monkeypatch.setattr(properties.np, "unique", no_sort)
    assert _is_key(keys)
    keys[5] = keys[6]
    assert not _is_key(keys)


def test_is_key_of_a_var_column_takes_the_table():
    # a string column's ranks lie in [0, distinct values): compact
    bat = bat_from_pairs("oid", "string",
                         enumerate(["b", "a", "c", "d", "a"]))
    ranks = bat.tail.order_keys()
    assert _table_span(ranks.min(), ranks.max(), len(ranks)) is not None
    assert not _is_key(ranks)
    assert _is_key(ranks[:4])


def _search_vector(attr_bat, extent):
    """The datavector's value column by the search path: each head's
    extent position by binary search, the tails permuted by them."""
    heads = np.asarray(attr_bat.head.logical(), dtype=np.int64)
    positions = np.searchsorted(extent, heads)
    assert np.array_equal(extent[positions], heads)
    return attr_bat.tail.take(np.argsort(positions, kind="stable"))


def _raw_array(column):
    return column.indices if hasattr(column, "indices") else column.data


def _raw(column):
    return np.asarray(_raw_array(column)).tobytes()


@st.composite
def extents_and_values(draw):
    """A strictly ascending extent (dense or with gaps, stored at a
    narrow width or not) and one value per oid (ints or strings)."""
    n = draw(st.integers(1, 80))
    gaps = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    base = draw(st.integers(0, 1000))
    extent = base + np.cumsum(gaps) - gaps[0]
    if draw(st.booleans()):
        extent = np.arange(base, base + n)
    strings = draw(st.booleans())
    element = st.sampled_from(["x", "yy", "", "zzz", "w"]) if strings \
        else st.integers(-50, 50)
    values = draw(st.lists(element, min_size=n, max_size=n))
    return extent.astype(np.int64), ("string" if strings else "int"), \
        values


@settings(max_examples=150, deadline=None)
@given(extents_and_values(), st.randoms(use_true_random=False))
def test_datavector_fast_path_equals_the_search_path(drawn, random):
    extent, atom, values = drawn
    # the extent stored narrow, as the load stores it
    registry = DataVectorRegistry("C", FixedColumn(
        atoms.OID, extent.astype(np.int16) if extent.max() < 32768
        else extent))
    exact = BAT(column_from_values("oid", extent),
                column_from_values(atom, values))
    order = list(range(len(extent)))
    random.shuffle(order)
    shuffled = exact.take(np.array(order, dtype=np.int64))
    expected = _search_vector(exact, np.asarray(registry.extent))
    for bat in (exact, shuffled):
        vector = build_datavector(bat, registry).vector
        assert _raw(vector) == _raw(expected)
        assert list(vector.logical()) == list(expected.logical())
    # the fast path's vector is a copy with a heap of its own
    vector = exact.accel["datavector"].vector
    assert vector.heaps[0] is not exact.tail.heaps[0]
    assert not np.shares_memory(_raw_array(vector),
                                _raw_array(exact.tail))
    if len(extent) > 1:
        partial = exact.take(np.arange(len(extent) - 1))
        with pytest.raises(OperatorError):
            build_datavector(partial, registry)


def test_datavector_rejects_heads_outside_the_extent():
    registry = DataVectorRegistry("C", column_from_values("oid",
                                                          [1, 2, 3]))
    bat = bat_from_pairs("oid", "int", [(1, 5), (2, 6), (9, 7)])
    with pytest.raises(OperatorError):
        build_datavector(bat, registry)


def test_load_takes_the_fast_path_for_every_plain_attribute(
        monkeypatch):
    from repro.monet.accelerators import datavector

    def no_search(*_args, **_kwargs):
        raise AssertionError("a load-time datavector searched")
    monkeypatch.setattr(datavector, "sorted_lookup", no_search)
    kernel = MonetKernel()
    kernel.bulk_load("T_a", "oid", [3, 5, 8], "string", ["q", "p", "q"],
                     group="T")
    kernel.bulk_load("T_b", "oid", [3, 5, 8], "int", [9, 7, 8],
                     group="T")
    kernel.create_extent("T", "T_a")
    kernel.create_datavectors("T", ["T_a", "T_b"])
    assert list(kernel.get("T_b").accel["datavector"].vector
                .logical()) == [9, 7, 8]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="abcé\0", max_size=4), max_size=120),
       st.booleans())
def test_sort_tail_on_narrow_ranks_equals_int64_ranks(values, ascending):
    bat = bat_from_pairs("oid", "string", enumerate(values))
    ranks = np.asarray(bat.tail.order_keys(), dtype=np.int64)
    expected = np.argsort(ranks, kind="stable")
    if not ascending:
        expected = expected[::-1]
    out = sort_tail(bat, ascending=ascending)
    assert out.head.logical().tolist() == expected.tolist()
    assert out.tail.logical().tolist() == \
        [values[i] for i in expected]


def test_sort_tail_above_the_int16_ranks():
    values = ["v%06d" % (i * 7919 % 40_000) for i in range(40_000)]
    bat = bat_from_pairs("oid", "string", enumerate(values))
    assert _rank_dtype(len(bat.tail.heap)) == np.int32
    expected = np.argsort(np.asarray(bat.tail.order_keys(),
                                     dtype=np.int64), kind="stable")
    assert np.array_equal(sort_tail(bat).head.logical(), expected)


def test_rank_dtype_is_the_narrowest_holding_every_rank():
    assert _rank_dtype(0) == np.int16
    assert _rank_dtype(32_767) == np.int16
    assert _rank_dtype(32_768) == np.int32
    assert _rank_dtype(2 ** 31) == np.int64
