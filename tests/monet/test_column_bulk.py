"""Column-at-a-time coercion against the per-value definition.

``column_from_values`` coerces a numpy array in bulk: a numeric array
for a fixed atom is kind- and range-checked once and cast, and a var
atom's values are interned in first-appearance order with one
``coerce`` per distinct value.  The definition is the per-value path
(the same values as a list): for every atom and every input — empty
arrays, duplicates, unicode and empty strings, NaN, bool arrays,
out-of-range and negative integers, non-str objects in string
columns, multi-character chars — both give the same column or raise
the same error type.  ``_is_key``'s strictly-increasing shortcut is
checked against the ``np.unique`` definition the same way.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import AtomError
from repro.monet import atoms as _atoms
from repro.monet import bat_from_pairs
from repro.monet import operators as ops
from repro.monet.column import VarColumn, column_from_values
from repro.monet.properties import _is_key

SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ATOM_NAMES = sorted(name for name in _atoms.ATOMS if name != "void")

_EDGES = [0, 1, -1, 2 ** 15 - 1, 2 ** 15, -(2 ** 15) - 1, 2 ** 31 - 1,
          2 ** 31, -(2 ** 31) - 1, 2 ** 63 - 1, -(2 ** 63)]


def _int_arrays():
    def build(dtype):
        info = np.iinfo(dtype)
        edges = [e for e in _EDGES if info.min <= e <= info.max]
        values = st.one_of(st.integers(int(info.min), int(info.max)),
                           st.sampled_from(edges + [int(info.max)]))
        return st.lists(values, max_size=12).map(
            lambda items: np.array(items, dtype=dtype))
    return st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                            np.uint8, np.uint16, np.uint32,
                            np.uint64]).flatmap(build)


_TEXT = st.one_of(st.text(max_size=4),
                  st.sampled_from(["", "a", "\u00e9", "e\u0301"]))

_OBJECTS = st.one_of(
    _TEXT, st.integers(-3, 3), st.floats(allow_nan=True),
    st.booleans(), st.none(), st.just([1]), st.just("multi-char"))


def _object_array(items):
    # one object per slot, even for list items
    array = np.empty(len(items), dtype=object)
    for position, item in enumerate(items):
        array[position] = item
    return array


ARRAYS = st.one_of(
    _int_arrays(),
    hnp.arrays(st.sampled_from([np.float32, np.float64]),
               st.integers(0, 10),
               elements=st.floats(allow_nan=True, allow_infinity=True,
                                  width=32)),
    hnp.arrays(np.bool_, st.integers(0, 10)),
    st.lists(_TEXT, max_size=12).map(lambda items: np.array(items + [""],
                                                            dtype=str)[:-1]),
    st.lists(_TEXT, max_size=12).map(_object_array),
    st.lists(_OBJECTS, max_size=12).map(_object_array),
)


def _outcome(build):
    try:
        column = build()
    except Exception as error:      # the type is the contract
        return type(error)
    if isinstance(column, VarColumn):
        return ("var", column.indices.dtype.str, column.indices.tolist(),
                list(column.heap.values), column.heap.nbytes)
    return ("fixed", column.data.dtype.str, column.data.tobytes())


@settings(**SETTINGS)
@given(atom=st.sampled_from(ATOM_NAMES), values=ARRAYS)
# rounded to float64 first (a Python float) this int lands on a
# float32 tie, rounded once it does not
@example(atom="float", values=np.array([2 ** 60 + 2 ** 36 + 1]))
# a finite double beyond float32's range, and an int beyond any double
@example(atom="float", values=np.array([1.0, 1e300]))
@example(atom="double", values=_object_array([10 ** 400]))
def test_array_path_equals_per_value_path(atom, values):
    bulk = _outcome(lambda: column_from_values(atom, values))
    assert bulk == _outcome(lambda: column_from_values(atom,
                                                       list(values)))
    if isinstance(bulk, tuple) and bulk[0] == "fixed":
        column = column_from_values(atom, values)
        assert not np.shares_memory(column.data, values)


@pytest.mark.parametrize("atom, values", [
    ("float", [1e300]),
    ("float", np.array([-1e300])),
    ("float", _object_array([10 ** 40])),
    ("double", [10 ** 400]),
    ("double", _object_array([-(10 ** 400)])),
])
def test_out_of_range_float_values_raise_atom_error(atom, values):
    with pytest.raises(AtomError, match="out of range|too large"):
        column_from_values(atom, values)


@pytest.mark.parametrize("atom", ["float", "double"])
def test_nan_and_infinities_stay_float_values(atom):
    values = [np.nan, np.inf, -np.inf]
    for given in (values, np.array(values)):
        data = column_from_values(atom, given).data
        assert np.isnan(data[0]) and data[1:].tolist() == [np.inf, -np.inf]


@pytest.mark.parametrize("atom, values, distinct", [
    ("long", np.arange(50, dtype=np.int64), 0),
    ("oid", np.arange(50, dtype=np.int32), 0),
    ("double", np.linspace(0, 1, 50), 0),
    ("instant", np.arange(50, dtype=np.int32), 0),
    ("string", np.array(["b", "a", "b", "c"] * 10, dtype=object), 3),
    ("char", np.array(list("RANRA"), dtype=object), 3),
])
def test_array_path_coerces_once_per_distinct_value(atom, values, distinct,
                                                    monkeypatch):
    spec = _atoms.atom(atom)
    calls = []
    real = spec.coerce
    monkeypatch.setattr(spec, "coerce",
                        lambda value: calls.append(value) or real(value))
    column_from_values(atom, values)
    assert len(calls) == distinct


def test_var_column_interns_in_first_appearance_order():
    column = column_from_values("string",
                                np.array(["b", "a", "b", "", "é"],
                                         dtype=object))
    assert column.heap.values == ["b", "a", "", "é"]
    assert column.indices.tolist() == [0, 1, 0, 2, 3]


def test_pairjoin_builds_its_result_without_per_bun_coercion(monkeypatch):
    left = bat_from_pairs("oid", "long", [(i, i % 7) for i in range(60)])
    right = bat_from_pairs("oid", "long", [(i, i % 5) for i in range(40)])
    expected = ops.pairjoin([left, right]).to_pairs()
    calls = []
    real = _atoms.OID.coerce
    monkeypatch.setattr(_atoms.OID, "coerce",
                        lambda value: calls.append(value) or real(value))
    result = ops.pairjoin([left, right])
    assert result.to_pairs() == expected and len(result) > 100
    assert calls == []


KEY_ARRAYS = st.one_of(
    hnp.arrays(np.int64, st.integers(0, 30),
               elements=st.integers(-5, 5)),
    hnp.arrays(np.float64, st.integers(0, 30),
               elements=st.floats(allow_nan=True, allow_infinity=True)),
    hnp.arrays(np.float64, st.integers(0, 30),
               elements=st.sampled_from([0.0, -0.0, 1.0, np.nan])),
    st.lists(st.integers(1, 3), max_size=30).map(
        lambda steps: np.cumsum(np.array(steps, dtype=np.int64))),
    st.lists(st.integers(0, 3), max_size=30).map(
        lambda steps: np.cumsum(np.array(steps, dtype=np.int32))),
)


@settings(**SETTINGS)
@given(keys=KEY_ARRAYS)
def test_is_key_equals_the_unique_definition(keys):
    expected = len(keys) <= 1 or len(np.unique(keys)) == len(keys)
    assert _is_key(keys) == expected
