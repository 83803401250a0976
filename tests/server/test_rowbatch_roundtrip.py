"""A RowBatch keeps its digest at every hop it can travel.

Random flat batches — int (several widths), float with NaN payloads,
infinities and -0.0, bool, unicode and empty strings, reference
columns, a ``None``-bearing object column; zero rows, one field;
sliced, strided and big-endian columns — take the path a served result
takes: encoded once in the worker, its outcome pickled through the
worker pipe, held in the result cache, then sent as a binary frame
and decoded by the client.  Wherever
it is decoded the value must still be a batch with the same
``result_checksum``, and that checksum must equal the one of the plain
row list ``list(batch)``: the digest is a function of the rows, not of
how they are held or how wide a column is stored.

The second half states the digest's contract as a handful of concrete
examples and then breaks the implementation six ways (dropped field
name, column order ignored, storage width leaking in, NaN payloads
leaking in, row order ignored, row lists digested per element); every
mutant must fail the contract.
"""

import pickle
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.moa.values import Ref, Row, RowBatch
from repro.monet import multiproc
from repro.monet.multiproc import TaskOutcome, result_checksum
from repro.server import (WeightedLRU, decode_value, recv_frame,
                          send_binary_frame)
from repro.server.protocol import (decode_binary_message,
                                   encode_binary_message)


def _nan(payload):
    """A float64 NaN carrying ``payload`` in its mantissa."""
    bits = 0x7FF8000000000000 | (payload & 0x7FFFFFFFFFFFF)
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOATS = st.one_of(
    st.floats(allow_nan=False), st.just(-0.0), st.just(float("inf")),
    st.just(float("-inf")), st.integers(0, 2 ** 40).map(_nan))


def _fixed(dtype, elements):
    def build(values):
        return np.array(values, dtype=dtype)
    return lambda rows: st.lists(elements, min_size=rows,
                                 max_size=rows).map(build)


def _objects(elements):
    def build(values):
        return np.fromiter(values, dtype=object, count=len(values))
    return lambda rows: st.lists(elements, min_size=rows,
                                 max_size=rows).map(build)


#: name -> rows -> strategy of (column, ref_class)
COLUMN_KINDS = {
    "int64": _fixed(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1)),
    "int32": _fixed(np.int32, st.integers(-2 ** 31, 2 ** 31 - 1)),
    "int16": _fixed(np.int16, st.integers(-2 ** 15, 2 ** 15 - 1)),
    "float64": _fixed(np.float64, FLOATS),
    "float32": _fixed(np.float32, st.floats(width=32, allow_nan=False)),
    "bool": _fixed(np.bool_, st.booleans()),
    "text": _objects(st.text(max_size=12)),
    "ascii": _objects(st.text(alphabet="abc xyz", max_size=6)),
    "nullable": _objects(st.one_of(st.none(), st.integers(-9, 9),
                                   st.text(max_size=3))),
    "ref": _fixed(np.int64, st.integers(0, 2 ** 40)),
}

#: physical layouts a column may arrive in, all with equal contents
LAYOUTS = {
    "plain": lambda column: column,
    "sliced": lambda column: np.concatenate(
        [column[:1], column, column[:1]])[1:len(column) + 1],
    "strided": lambda column: np.repeat(column, 2)[::2],
    "big_endian": lambda column: column.astype(
        column.dtype.newbyteorder(">")) if column.dtype.kind in "if"
    and column.dtype.itemsize > 1 else column,
}


@st.composite
def batches(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)),
                          min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        column = draw(COLUMN_KINDS[kind](rows))
        layout = draw(st.sampled_from(sorted(LAYOUTS)))
        if rows:
            column = LAYOUTS[layout](column)
        columns.append(column)
    return RowBatch(["f%d" % index for index in range(len(kinds))],
                    columns,
                    ["Order" if kind == "ref" else None
                     for kind in kinds])


def _through_binary(batch):
    body = encode_binary_message({"payload": batch})
    return decode_value(decode_binary_message(body)["payload"])


def _from_worker(batch):
    """The outcome a worker ships for ``batch``: the canonical value
    checksummed and encoded once, pickled through the pipe."""
    canonical = {"kind": "value", "value": batch}
    outcome = TaskOutcome("q", result_checksum(canonical),
                          encode_binary_message(canonical), 0.0, None,
                          1, 0)
    return pickle.loads(pickle.dumps(outcome))


def _through_cache(body):
    cache = WeightedLRU(1 << 24)
    cache.put((1, "q"), ({"type": "result"}, body), weight=len(body))
    return cache.get((1, "q"))[1]


def _inline(body):
    left, right = socket.socketpair()
    try:
        send_binary_frame(left, body)
        return decode_value(recv_frame(right))
    finally:
        left.close()
        right.close()


@settings(max_examples=120, deadline=None)
@given(batches())
def test_every_hop_keeps_the_digest(batch):
    digest = result_checksum(batch)
    rows = list(batch)
    # representation-independent: the row list hashes the same
    assert result_checksum(rows) == digest
    assert len(rows) == len(batch)

    outcome = _from_worker(batch)
    assert outcome.checksum == result_checksum(
        {"kind": "value", "value": rows})
    body = _through_cache(outcome.body)
    assert body == outcome.body          # cached bytes, served as-is

    arrivals = {"worker": outcome.value(), "inline": _inline(body)}
    for hop, canonical in arrivals.items():
        assert result_checksum(canonical) == outcome.checksum, hop
        arrived = canonical["value"]
        assert isinstance(arrived, RowBatch), hop
        assert arrived.names == batch.names
        assert arrived.ref_classes == batch.ref_classes
        assert result_checksum(arrived) == digest, hop
        assert result_checksum(list(arrived)) == digest, hop
        # chained: what arrived survives another encoding too
        assert result_checksum(_through_binary(arrived)) == digest


def test_binary_wire_ships_columns_as_buffers_and_decodes_views():
    batch = RowBatch(["k", "v", "s"],
                     [np.arange(1000, dtype=np.int64),
                      np.linspace(0.0, 1.0, 1000),
                      np.array(["row%d" % i for i in range(1000)],
                               dtype=object)],
                     ["Order", None, None])
    body = encode_binary_message({"payload": batch})
    # 16 bytes a row of numbers, ~10 a row of text (bytes + int32 end)
    assert len(body) < 1000 * (16 + 12)
    arrived = decode_value(decode_binary_message(body)["payload"])
    for column in arrived.columns[:2]:
        assert not column.flags.writeable and not column.flags.owndata
    assert arrived == list(batch)
    assert arrived[999]["s"] == "row999"
    assert arrived[10:12] == [batch[10], batch[11]]


def test_marker_collision_and_malformed_batches():
    tricky = {"__batch__": ["not", "a", "batch"], "refs": 1}
    assert _through_binary(tricky) == tricky
    for wire in ({"__batch__": ["a"], "refs": [None], "cols": []},
                 {"__batch__": ["a", "a"], "refs": [None, None],
                  "cols": [[], []]},
                 {"__batch__": ["a"], "cols": [[1]]},
                 {"__batch__": ["a"], "refs": ["Order"],
                  "cols": [{"__ndo__": ["x"]}]}):
        with pytest.raises(ProtocolError):
            decode_value(wire)


# ----------------------------------------------------------------------
# the digest contract, and mutants that must break it
# ----------------------------------------------------------------------
def _batch(**columns):
    return RowBatch(list(columns), [np.asarray(column) for column
                                    in columns.values()])


def digest_contract():
    """Concrete statements of what the columnar digest promises."""
    a = np.array([3, 1, 2], dtype=np.int64)
    b = np.array([30, 10, 20], dtype=np.int64)
    base = result_checksum(_batch(a=a, b=b))
    # field names are part of the value
    assert result_checksum(_batch(a=a, c=b)) != base
    # which column carries which values matters
    assert result_checksum(_batch(a=b, b=a)) != base
    # row order is part of the value (it carries ORDER BY)
    assert result_checksum(_batch(a=a[::-1], b=b[::-1])) != base
    # ... but not how wide a column is stored
    assert result_checksum(_batch(a=a.astype(np.int16),
                                  b=b.astype(np.int32))) == base
    # ... nor whether the rows are held as rows
    assert result_checksum([Row([("a", int(x)), ("b", int(y))])
                            for x, y in zip(a, b)]) == base
    # one NaN, whatever its payload; -0.0 is not 0.0
    quiet = _batch(f=np.array([float("nan"), 1.0]))
    assert result_checksum(_batch(f=np.array([_nan(12345), 1.0]))) \
        == result_checksum(quiet) \
        == result_checksum([Row([("f", _nan(7))]), Row([("f", 1.0)])])
    assert result_checksum(_batch(f=np.array([-0.0]))) \
        != result_checksum(_batch(f=np.array([0.0])))
    # a reference column is not its oids, nor another class's
    refs = RowBatch(["r"], [a], ["Order"])
    assert result_checksum(refs) != result_checksum(_batch(r=a))
    assert result_checksum(refs) \
        != result_checksum(RowBatch(["r"], [a], ["Part"]))
    assert result_checksum(refs) == result_checksum(
        [Row([("r", Ref("Order", int(oid)))]) for oid in a])
    # strings are delimited: moving a character across rows shows
    assert result_checksum(_batch(s=np.array(["ab", "c"], dtype=object))) \
        != result_checksum(_batch(s=np.array(["a", "bc"], dtype=object)))


def test_digest_contract_holds():
    digest_contract()


def _feed_table_without_names(digest, names, rows, columns):
    digest.update(b"T%d,%d[" % (len(names), rows))
    for ref_class, values in columns:
        multiproc._feed_column(digest, ref_class, values)


def _feed_table_unordered(digest, names, rows, columns):
    import hashlib
    digest.update(b"T%d,%d[" % (len(names), rows))
    for name in names:
        multiproc._feed(digest, name)
    parts = []
    for ref_class, values in columns:
        part = hashlib.sha1()
        multiproc._feed_column(part, ref_class, values)
        parts.append(part.digest())
    for part in sorted(parts):
        digest.update(part)


_real_feed_column = multiproc._feed_column


def _feed_column_at_storage_width(digest, ref_class, values):
    if isinstance(values, np.ndarray) and values.dtype.kind in "if":
        digest.update(np.ascontiguousarray(values).tobytes())
    else:
        _real_feed_column(digest, ref_class, values)


def _feed_column_sorted(digest, ref_class, values):
    if isinstance(values, np.ndarray) and values.dtype.kind in "if":
        values = np.sort(values)
    elif not isinstance(values, np.ndarray):
        values = sorted(values)
    _real_feed_column(digest, ref_class, values)


def _feed_column_untyped_values(digest, ref_class, values):
    if isinstance(values, np.ndarray):
        _real_feed_column(digest, ref_class, values)
    else:
        digest.update(b"o")
        for item in values:
            multiproc._feed(digest, item)


MUTANTS = {
    "dropped field name": ("_feed_table", _feed_table_without_names),
    "column order ignored": ("_feed_table", _feed_table_unordered),
    "storage width leaks in": ("_feed_column",
                               _feed_column_at_storage_width),
    "NaN payload leaks in": ("_one_nan", lambda floats: floats),
    "row order ignored": ("_feed_column", _feed_column_sorted),
    "row lists digested per element": ("_feed_column",
                                       _feed_column_untyped_values),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutants_are_killed(monkeypatch, mutant):
    name, replacement = MUTANTS[mutant]
    monkeypatch.setattr(multiproc, name, replacement)
    with pytest.raises(AssertionError):
        digest_contract()
