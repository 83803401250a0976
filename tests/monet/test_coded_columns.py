"""A var column built from codes plus a vocabulary.

``column_from_values`` takes a string column in three forms: as
:class:`Coded` codes into a vocabulary, as an object array (factorized
by one dict pass, then built by the same routine), and as a list,
which ``VarColumn.from_values`` interns value by value — the
definition.  All three must give the same heap (values in
first-appearance order, ``nbytes``) and the same indices, for empty
columns, one distinct value, codes that skip vocabulary entries,
repeated vocabulary entries, empty strings and non-ASCII text.  A
code outside the vocabulary, or a code array that is not integer,
raises ``BATError`` and never wraps.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import BATError
from repro.monet.column import Coded, VarColumn, column_from_values

SETTINGS = dict(max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

_WORDS = st.one_of(st.text(max_size=3),
                   st.sampled_from(["", "a", "\u00e9", "e\u0301",
                                    "\u65e5\u672c", "\U0001f600"]))

_CODE_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8,
                np.uint16, np.uint32, np.uint64]


@st.composite
def coded_columns(draw):
    """``(atom, codes, vocabulary)``: a vocabulary of 1..8 entries,
    repeats allowed, and 0..20 codes drawn from a subset of them."""
    atom = draw(st.sampled_from(["string", "char"]))
    words = st.text(min_size=1, max_size=1) if atom == "char" else _WORDS
    vocabulary = draw(st.lists(words, min_size=1, max_size=8))
    named = draw(st.lists(st.integers(0, len(vocabulary) - 1),
                          min_size=1, max_size=len(vocabulary)))
    codes = draw(st.lists(st.sampled_from(named), max_size=20))
    dtype = draw(st.sampled_from(_CODE_DTYPES))
    return atom, np.array(codes, dtype=dtype), vocabulary


def _state(column):
    return (type(column), column.atom.name, column.indices.dtype.str,
            column.indices.tolist(), list(column.heap.values),
            column.heap.nbytes, column.heap.lookup)


@settings(**SETTINGS)
@given(case=coded_columns(), as_array=st.booleans())
def test_coded_object_and_per_value_columns_are_equal(case, as_array):
    atom, codes, vocabulary = case
    decoded = [vocabulary[code] for code in codes.tolist()]
    objects = np.empty(len(decoded), dtype=object)
    objects[:] = decoded
    given_vocabulary = np.array(vocabulary, dtype=object) if as_array \
        else vocabulary
    coded = column_from_values(atom, Coded(codes, given_vocabulary),
                               label="c")
    expected = _state(VarColumn.from_values(atom, decoded, label="c"))
    assert _state(coded) == expected
    assert _state(column_from_values(atom, objects, label="c")) == expected
    assert coded.logical().tolist() == decoded
    assert not np.shares_memory(coded.indices, codes)


def test_a_coded_column_with_no_rows_has_an_empty_heap():
    column = column_from_values("string", Coded(
        np.empty(0, dtype=np.int8), ["a", "b"]))
    assert len(column) == 0 and column.heap.values == []
    assert column.heap.nbytes == 0


def test_one_distinct_value_and_skipped_entries():
    column = column_from_values("string", Coded(
        np.array([3, 3, 3], dtype=np.int8), ["a", "b", "c", "\u00e9"]))
    assert column.heap.values == ["\u00e9"]
    assert column.indices.tolist() == [0, 0, 0]
    assert column.heap.nbytes == len("\u00e9".encode("utf-8")) + 1


@pytest.mark.parametrize("codes", [
    np.array([0, -1], dtype=np.int64),
    np.array([-128], dtype=np.int8),
    np.array([3], dtype=np.int16),
    np.array([2 ** 63], dtype=np.uint64),
    np.array([2 ** 32 + 1], dtype=np.int64),
])
def test_codes_outside_the_vocabulary_raise(codes):
    with pytest.raises(BATError, match="codes must lie"):
        column_from_values("string", Coded(codes, ["a", "b", "c"]))


@pytest.mark.parametrize("codes", [
    np.array([0.0, 1.0]),
    np.array([True, False]),
    np.array(["0"], dtype=object),
    np.array([[0, 1]], dtype=np.int64),
    [0, 1.5],
])
def test_codes_that_are_not_an_integer_array_raise(codes):
    with pytest.raises(BATError, match="integer array"):
        column_from_values("string", Coded(codes, ["a", "b"]))


def test_coded_input_needs_a_var_atom():
    with pytest.raises(BATError, match="var atom"):
        column_from_values("long", Coded(np.array([0]), [1]))


def test_a_vocabulary_entry_is_coerced_once_however_often_coded(
        monkeypatch):
    from repro.monet import atoms as _atoms
    calls = []
    real = _atoms.STRING.coerce
    monkeypatch.setattr(_atoms.STRING, "coerce",
                        lambda value: calls.append(value) or real(value))
    column_from_values("string", Coded(
        np.array([1, 0, 1, 1, 0], dtype=np.int8), ["x", "y", "unused"]))
    assert calls == ["y", "x"]
