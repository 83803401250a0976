"""Joins and predicates through the layouts the kernel already stores.

* ``datavectorjoin`` — ``join(nav, attr)`` against an attribute BAT
  with a datavector probes the sorted class extent and gathers the
  value vector; it equals ``hashjoin`` BUN for BUN (sparse and dense
  extents, fixed and string vectors, missing/duplicate/empty outer
  oids, a reopened mmap kernel) and is chosen only under its side
  conditions;
* multiplex over heap codes — a function over one string BAT is
  evaluated once per distinct heap value present and gathered by heap
  index; it equals the decode-every-BUN path for every registered
  function, errors included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError
from repro.monet import (MonetKernel, bat_from_pairs, compute_props,
                         dispatch_disabled, get_optimizer, verify)
from repro.monet import operators as ops
from repro.monet.column import VarColumn
from repro.monet.multiproc import result_checksum

SETTINGS = dict(max_examples=30, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

#: extent oids of class C: a sparse extent (a probe must search) and
#: a dense one not starting at zero (a probe is a subtraction)
EXTENTS = {"sparse": [3, 7, 8, 12, 20, 21, 30],
           "dense": [10, 11, 12, 13, 14, 15, 16]}
MISSING = [0, 4, 9, 17, 99]
VALUES = [5, -3, 8, 1, 9, 2, 0]
NAMES = ["pear", "", "fig", "pear", "ümlaut", "fig", "kiwi"]


def _kernel(extent):
    kernel = MonetKernel()
    kernel.bulk_load("C_val", "oid", extent, "int", VALUES, group="C")
    kernel.bulk_load("C_name", "oid", extent, "string", NAMES, group="C")
    kernel.create_extent("C", "C_val")
    kernel.create_datavectors("C", ["C_val", "C_name"])
    # tail-sorted, as the section 6 load leaves every attribute: the
    # head is a key but no longer ordered, so mergejoin cannot fire
    kernel.reorder_on_tail(["C_val", "C_name"])
    return kernel


KERNELS = {kind: _kernel(extent) for kind, extent in EXTENTS.items()}


def _outer(tails):
    outer = bat_from_pairs("oid", "oid", list(enumerate(tails)))
    outer.props = compute_props(outer)
    return outer


def _assert_equals_hashjoin(outer, inner):
    out = ops.join(outer, inner)
    assert get_optimizer().last["join"] == "datavectorjoin"
    with dispatch_disabled():
        reference = ops.join(outer, inner)
        assert get_optimizer().last["join"] == "hashjoin"
    assert out.to_pairs() == reference.to_pairs()
    assert out.props == reference.props
    verify(out)
    if len(reference) == len(outer):
        assert out.head is outer.head and out.alignment == outer.alignment
    return out


@st.composite
def outer_joins(draw):
    kind = draw(st.sampled_from(sorted(EXTENTS)))
    tails = draw(st.lists(st.sampled_from(EXTENTS[kind] + MISSING),
                          max_size=30))
    return kind, tails


@settings(**SETTINGS)
@given(case=outer_joins(), attr=st.sampled_from(["C_val", "C_name"]))
def test_datavectorjoin_equals_hashjoin(case, attr):
    kind, tails = case
    _assert_equals_hashjoin(_outer(tails), KERNELS[kind].get(attr))


@pytest.mark.parametrize("kind", sorted(EXTENTS))
def test_datavectorjoin_edge_operands(kind):
    extent = EXTENTS[kind]
    for attr in ("C_val", "C_name"):
        inner = KERNELS[kind].get(attr)
        every = _assert_equals_hashjoin(_outer(extent[::-1]), inner)
        assert len(every) == len(extent)
        assert _assert_equals_hashjoin(_outer([]), inner).to_pairs() == []
        assert _assert_equals_hashjoin(_outer(MISSING), inner) \
            .to_pairs() == []
    dup = _assert_equals_hashjoin(
        _outer([extent[3], extent[3], 4, extent[0]]),
        KERNELS[kind].get("C_val"))
    assert dup.to_pairs() == [(0, 1), (1, 1), (3, 5)]


@pytest.mark.parametrize("kind", sorted(EXTENTS))
def test_datavectorjoin_on_a_reopened_kernel(tmp_path, kind):
    KERNELS[kind].save(tmp_path / "db")
    reopened = MonetKernel.open(tmp_path / "db")
    extent = EXTENTS[kind]
    outer = _outer([extent[6], extent[0], 4, extent[2], extent[2], 99])
    for attr in ("C_val", "C_name"):
        out = _assert_equals_hashjoin(outer, reopened.get(attr))
        assert out.to_pairs() == \
            ops.join(outer, KERNELS[kind].get(attr)).to_pairs()


def test_datavectorjoin_dispatch_conditions():
    kernel = KERNELS["sparse"]
    outer = _outer([3, 12, 30])
    inner = kernel.get("C_val")
    with dispatch_disabled() as optimizer:
        ops.join(outer, inner)
        assert "join:datavectorjoin" not in optimizer.stats
    # without hkey the datavector is not known to be a bijection
    unkeyed = bat_from_pairs("oid", "int", inner.to_pairs())
    unkeyed.accel = inner.accel
    ops.join(outer, unkeyed)
    assert get_optimizer().last["join"] == "hashjoin"
    # a var-sized outer tail never probes the oid extent
    keyed_names = bat_from_pairs("string", "int", [("fig", 1), ("x", 2)])
    keyed_names.props = compute_props(keyed_names)
    keyed_names.accel = inner.accel
    out = ops.join(kernel.get("C_name"), keyed_names)
    assert get_optimizer().last["join"] == "hashjoin"
    assert sorted(out.to_pairs()) == [(8, 1), (21, 1)]


# ----------------------------------------------------------------------
# multiplex over heap codes
# ----------------------------------------------------------------------
#: scalar operands the registered functions are tried with
SCALARS = ["", "fig", "ü", 1, 2.5, True]


def _outcome(call):
    """``("ok", checksums)`` or ``("error", type)`` of one multiplex."""
    try:
        out = call()
    except Exception as exc:    # the two paths must fail alike
        return ("error", type(exc))
    return ("ok", result_checksum(np.asarray(out.head.logical())),
            result_checksum(np.asarray(out.tail.logical())),
            out.tail.atom.name)


def _operand_lists(fname, bat):
    arity = ops.get_function(fname).arity or 1
    for position in range(arity):
        for scalar in SCALARS:
            operands = [scalar] * arity
            operands[position] = bat
            yield operands


def _assert_codes_equal_decode(bat):
    assert isinstance(bat.tail, VarColumn)
    for fname in ops.function_names():
        for operands in _operand_lists(fname, bat):
            coded = _outcome(lambda: ops.multiplex(fname, *operands))
            assert get_optimizer().last["multiplex"] == "codes"
            with dispatch_disabled():
                decoded = _outcome(lambda: ops.multiplex(fname, *operands))
                assert get_optimizer().last["multiplex"] == "synced"
            assert coded == decoded, (fname, operands[1:])


string_values = st.one_of(
    st.lists(st.sampled_from(["", "a", "fig", "Clerk#1", "ü", "日本"]),
             max_size=20),
    st.lists(st.sampled_from(["", "MAIL"]), min_size=10, max_size=40),
    st.lists(st.just(""), max_size=10))


@settings(**SETTINGS)
@given(values=string_values, keep=st.integers(0, 20))
def test_multiplex_over_codes_equals_decoding_every_bun(values, keep):
    bat = bat_from_pairs("oid", "string", list(enumerate(values)))
    _assert_codes_equal_decode(bat)
    # a heap larger than the column: a prefix keeps the whole heap
    _assert_codes_equal_decode(ops.slice_bunches(bat, 0, keep))


def test_multiplex_over_codes_edge_columns():
    empty = bat_from_pairs("oid", "string", [])
    _assert_codes_equal_decode(empty)
    names = KERNELS["sparse"].get("C_name")       # a stored string column
    _assert_codes_equal_decode(names)
    out = ops.multiplex("contains", names, "i")
    assert get_optimizer().last["multiplex"] == "codes"
    assert sorted(out.to_pairs()) == [(3, False), (7, False), (8, True),
                                      (12, False), (20, False), (21, True),
                                      (30, True)]
    assert out.head is names.head and out.alignment == names.alignment


def test_typed_errors_are_unchanged_over_codes():
    bat = bat_from_pairs("oid", "string", [(1, "a"), (2, "b")])
    for call in (lambda: ops.multiplex("+", bat, 1),
                 lambda: ops.multiplex("-", bat, "x")):
        with pytest.raises(Exception) as coded:
            call()
        with dispatch_disabled():
            with pytest.raises(Exception) as decoded:
                call()
        assert coded.type is decoded.type
        assert str(coded.value) == str(decoded.value)
    with pytest.raises(OperatorError):
        ops.multiplex("+", bat, "x")          # concatenates, then typed
