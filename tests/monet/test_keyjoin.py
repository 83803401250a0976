"""Direct-address kernels: key joins, compact-range membership, exact
integer offsets.

* ``keyjoin`` — a join whose inner head is an integer key with a
  compact span scatters ``slot[key - base] = position`` and gathers per
  outer BUN; it equals ``hashjoin`` BUN for BUN, props and alignment
  included (missing, out-of-range, duplicate and negative outer keys,
  int32/int64 on either side, empty operands, a span at and one past
  the compactness threshold, a reopened mmap kernel), and is chosen
  only under its side conditions — among them the compactness rule,
  which counts the outer's probes as well as the inner's keys;
* compact-range ``membership_mask`` — a bool table over the right
  keys' span equals the naive set probe on the same edge cases;
* no wraparound — int32 and int64 keys at their extremes, on either
  side, compare exactly in every direct-address kernel, with the naive
  kernels as the oracle.
"""

import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.monet import (MonetKernel, Props, bat_from_pairs, compute_props,
                         dispatch_disabled, get_optimizer, verify)
from repro.monet import operators as ops
from repro.monet import vectorized as vz
from repro.monet.operators import naive

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: a table of this many slots passes the compactness rule for any n
FLOOR = vz._DENSE_FLOOR


def _inner(keys, atom="long"):
    """Inner operand keyed on ``keys`` with tails ``10 * key``; declared
    a key but not ordered, so mergejoin cannot take it."""
    inner = bat_from_pairs(atom, "long", [(k, 10 * k) for k in keys])
    inner.props = Props(hkey=True)
    return inner


def _outer(tails, atom="long"):
    outer = bat_from_pairs("oid", atom, list(enumerate(tails)))
    outer.props = compute_props(outer)
    return outer


def _assert_keyjoin_equals_hashjoin(outer, inner):
    out = ops.join(outer, inner)
    assert get_optimizer().last["join"] == "keyjoin"
    with dispatch_disabled():
        reference = ops.join(outer, inner)
        assert get_optimizer().last["join"] == "hashjoin"
    assert out.to_pairs() == reference.to_pairs()
    assert out.props == reference.props
    verify(out)
    if len(reference) == len(outer):
        assert out.head is outer.head and out.alignment == outer.alignment
    return out


#: outer keys no inner holds: int32 extremes fit either atom
_FAR = [-2 ** 31, 2 ** 31 - 1]


@st.composite
def key_joins(draw):
    inner_atom = draw(st.sampled_from(["int", "long"]))
    outer_atom = draw(st.sampled_from(["int", "long"]))
    base = draw(st.sampled_from([-60, 0, 1000]))
    keys = [base + k for k in draw(st.permutations(draw(
        st.lists(st.integers(0, 120), unique=True, min_size=1,
                 max_size=30))))]
    missing = [base - 1, base + 121, base + 500] + _FAR
    tails = draw(st.lists(st.sampled_from(keys + missing), max_size=30))
    return _outer(tails, outer_atom), _inner(keys, inner_atom)


@settings(**SETTINGS)
@given(case=key_joins())
def test_keyjoin_equals_hashjoin(case):
    _assert_keyjoin_equals_hashjoin(*case)


def test_keyjoin_edge_operands():
    inner = _inner([5, -3, 8, 0])
    assert _assert_keyjoin_equals_hashjoin(_outer([]), inner) \
        .to_pairs() == []
    every = _assert_keyjoin_equals_hashjoin(_outer([0, 8, -3, 5]), inner)
    assert every.to_pairs() == [(0, 0), (1, 80), (2, -30), (3, 50)]
    dup = _assert_keyjoin_equals_hashjoin(
        _outer([8, 8, 4, -3, 2 ** 31 - 1, -4]), inner)
    assert dup.to_pairs() == [(0, 80), (1, 80), (3, -30)]
    # an empty inner has no span: the fallback answers
    out = ops.join(_outer([1, 2]), _inner([]))
    assert get_optimizer().last["join"] == "hashjoin"
    assert out.to_pairs() == []


@pytest.mark.parametrize("span, variant", [(FLOOR, "keyjoin"),
                                           (FLOOR + 1, "hashjoin")])
def test_keyjoin_span_threshold(span, variant):
    inner = _inner([span - 1, 0, 7])
    outer = _outer([0, 7, span - 1, span, -1, 3])
    out = ops.join(outer, inner)
    assert get_optimizer().last["join"] == variant
    with dispatch_disabled():
        reference = ops.join(outer, inner)
    assert out.to_pairs() == reference.to_pairs() \
        == [(0, 0), (1, 70), (2, 10 * (span - 1))]
    verify(out)


def _naive_pairs(outer, inner):
    left, right = naive.match(outer.tail.keys(), inner.head.keys())
    heads, tails = outer.head.logical(), inner.tail.logical()
    return list(zip(heads[left].tolist(), tails[right].tolist()))


def test_a_small_inner_probed_by_a_long_outer_takes_the_table(monkeypatch):
    """The compactness rule counts the probes: an inner of 100 keys
    spanning 100,000 values fails ``max(2**16, 4 * 100)`` but fits
    ``4 * (100 + 30,000)``, so the join scatters a table instead of
    sorting (counted, not timed) and equals the naive join."""
    join_module = importlib.import_module("repro.monet.operators.join")
    calls = Counter()
    for variant in ("_keyjoin", "_hashjoin"):
        def counting(*args, _variant=variant, _kernel=getattr(
                join_module, variant)):
            calls[_variant] += 1
            return _kernel(*args)
        monkeypatch.setattr(join_module, variant, counting)
    rng = np.random.default_rng(7)
    span = 100_000
    keys = np.concatenate(([0, span - 1],
                           rng.choice(np.arange(1, span - 1), 98,
                                      replace=False)))
    assert span > max(FLOOR, vz._DENSE_FACTOR * len(keys))
    inner = _inner(rng.permutation(keys).tolist())
    outer = _outer(rng.integers(-5, span + 5, 30_000).tolist()
                   + keys[:50].tolist())
    assert span <= vz._DENSE_FACTOR * (len(inner) + len(outer))
    out = ops.join(outer, inner)
    assert calls == Counter(_keyjoin=1)
    assert out.to_pairs() == _naive_pairs(outer, inner)
    assert len(out) >= 50


@st.composite
def probed_spans(draw):
    """A small inner whose span lies just inside or just past the
    probe-counting bound ``4 * (n_inner + n_outer)``, and past the
    build-side-only bound ``max(2**16, 4 * n_inner)`` either way."""
    n_inner = draw(st.integers(2, 30))
    n_outer = draw(st.integers(2 ** 14, 2 ** 14 + 64))
    bound = vz._DENSE_FACTOR * (n_inner + n_outer)
    span = bound + draw(st.sampled_from([0, 1]))
    inner_keys = draw(st.lists(st.integers(1, span - 2), unique=True,
                               min_size=n_inner - 2, max_size=n_inner - 2))
    keys = draw(st.permutations([0, span - 1] + inner_keys))
    base = draw(st.sampled_from([-60, 0, 150_000]))
    keys = [base + k for k in keys]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    probes = rng.choice(np.asarray(keys + [base - 1, base + span]),
                        n_outer)
    return _outer(probes.tolist()), _inner(keys), span <= bound


@settings(**dict(SETTINGS, max_examples=15))
@given(case=probed_spans())
def test_keyjoin_across_the_probe_counting_boundary(case):
    outer, inner, compact = case
    out = ops.join(outer, inner)
    assert get_optimizer().last["join"] == (
        "keyjoin" if compact else "hashjoin")
    with dispatch_disabled():
        reference = ops.join(outer, inner)
    assert out.to_pairs() == reference.to_pairs() \
        == _naive_pairs(outer, inner)
    assert out.props == reference.props


def test_keyjoin_on_a_reopened_kernel(tmp_path):
    kernel = MonetKernel()
    keys = [9, 3, 12, 5, 0, 7]
    kernel.bulk_load("K_val", "oid", keys, "int", [2 * k for k in keys])
    kernel.save(tmp_path / "db")
    inner = MonetKernel.open(tmp_path / "db").get("K_val")
    assert isinstance(inner.head.data, np.memmap)
    assert inner.props.hkey and not inner.props.hordered
    out = _assert_keyjoin_equals_hashjoin(
        _outer([12, 4, 0, 0, 99, 5], "oid"), inner)
    assert out.to_pairs() == [(0, 24), (2, 0), (3, 0), (5, 10)]


def test_keyjoin_dispatch_conditions():
    outer = _outer([1, 2, 3])
    with dispatch_disabled() as optimizer:
        ops.join(outer, _inner([3, 1, 2]))
        assert "join:keyjoin" not in optimizer.stats
    # without hkey an inner head may match more than once
    unkeyed = _inner([3, 1, 2])
    unkeyed.props = Props()
    ops.join(outer, unkeyed)
    assert get_optimizer().last["join"] == "hashjoin"
    # a span wider than the rule allows
    ops.join(outer, _inner([3, 1, 2 ** 40]))
    assert get_optimizer().last["join"] == "hashjoin"
    # float keys, on either side
    floats = bat_from_pairs("double", "long", [(2.0, 1), (1.0, 2)])
    floats.props = Props(hkey=True)
    ops.join(_outer([1.0, 2.5], "double"), floats)
    assert get_optimizer().last["join"] == "hashjoin"
    ops.join(_outer([1.0, 2.0], "double"), _inner([2, 1]))
    assert get_optimizer().last["join"] == "hashjoin"
    # var-sized keys compare on heap indices, never by address
    names = bat_from_pairs("string", "long", [("b", 1), ("a", 2)])
    names.props = Props(hkey=True)
    out = ops.join(_outer(["a", "c"], "string"), names)
    assert get_optimizer().last["join"] == "hashjoin"
    assert out.to_pairs() == [(0, 2)]


# ----------------------------------------------------------------------
# compact-range membership
# ----------------------------------------------------------------------
@st.composite
def memberships(draw):
    base = draw(st.sampled_from([-60, 0, 1000]))
    near = st.integers(base - 3, base + 40)
    right = draw(st.lists(near, max_size=30))
    left = draw(st.lists(near | st.sampled_from(_FAR), max_size=30))
    left_dtype, right_dtype = draw(st.tuples(
        st.sampled_from([np.int32, np.int64]),
        st.sampled_from([np.int32, np.int64])))
    return (np.asarray(left, dtype=left_dtype),
            np.asarray(right, dtype=right_dtype))


@settings(**SETTINGS)
@given(case=memberships(), right_sorted=st.booleans())
def test_compact_membership_matches_naive(case, right_sorted):
    left, right = case
    if right_sorted:
        right = np.sort(right)
    assert np.array_equal(vz.membership_mask(left, right),
                          naive.membership_mask(left, right))


@pytest.mark.parametrize("span, search_calls",
                         [(FLOOR, 0), (FLOOR + 1, 1)])
def test_membership_table_span_threshold(monkeypatch, span, search_calls):
    calls = []
    search = vz.sorted_lookup
    monkeypatch.setattr(vz, "sorted_lookup", lambda *a: calls.append(1)
                        or search(*a))
    right = np.asarray([span - 1, 0, 7, 7])
    left = np.asarray([0, 7, span - 1, span, -1, 3])
    assert np.array_equal(vz.membership_mask(left, right),
                          naive.membership_mask(left, right))
    assert len(calls) == search_calls


# ----------------------------------------------------------------------
# no wraparound: int32 and int64 keys at their extremes
# ----------------------------------------------------------------------
def _partition(keys):
    values = [int(v) for v in keys]
    return [[a == b for b in values] for a in values]


_by_dtype = {
    np.int32: st.integers(-5, 5) | st.integers(2 ** 31 - 2, 2 ** 31 - 1),
    np.int64: (st.integers(-5, 5) | st.integers(2 ** 63 - 3, 2 ** 63 - 1)
               | st.just(-2 ** 63)),
}


@st.composite
def typed_keys(draw):
    dtype = draw(st.sampled_from(sorted(_by_dtype, key=str)))
    return np.asarray(draw(st.lists(_by_dtype[dtype], max_size=20)),
                      dtype=dtype)


@settings(**SETTINGS)
@given(typed_keys(), typed_keys())
def test_mixed_integer_dtypes_match_naive(left, right):
    for got, want in zip(vz.MultiMap(right).match(left),
                         naive.match(left, right)):
        assert np.array_equal(got, want)
    assert np.array_equal(vz.MultiMap(right).lookup_first(left),
                          naive.lookup_first(right, left))
    assert np.array_equal(vz.membership_mask(left, right),
                          naive.membership_mask(left, right))
    codes, n = vz.factorize(np.concatenate([left, right]))
    assert _partition(codes) == _partition(list(left) + list(right))
    assert len(codes) == 0 or codes.max() < n
    unique_right = np.asarray(sorted(set(right.tolist())),
                              dtype=right.dtype)
    table = vz.key_table(unique_right)
    if table is not None:
        for got, want in zip(vz.key_lookup(table, left),
                             naive.match(left, unique_right)):
            assert np.array_equal(got, want)
