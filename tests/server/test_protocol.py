"""Wire protocol units: framing, the value codec, the cache.

The codec contract under test is *checksum-exact round-tripping*: for
every value the executor can ship, decoding its one binary encoding
must carry the same sha1 result checksum as the value — that is what
lets the client re-verify a served payload byte-for-byte.
"""

import json
import socket
import threading
import tracemalloc

import numpy as np
import pytest

from repro.errors import FrameTooLargeError, ProtocolError
from repro.moa.values import Ref, Row, RowBatch
from repro.monet.mil import MILProgram, Var
from repro.monet.multiproc import result_checksum
from repro.server import (WeightedLRU, decode_program, decode_value,
                          encode_binary_message, encode_program,
                          encode_value, recv_frame, send_binary_frame,
                          send_frame)
from repro.server import protocol as proto


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    left, right = socket.socketpair()
    try:
        payload = {"type": "moa", "query": "count(Item)", "id": 7}
        send_frame(left, payload)
        assert recv_frame(right) == payload
        send_frame(right, {"ok": True})
        assert recv_frame(left) == {"ok": True}
    finally:
        left.close()
        right.close()


def test_frame_eof_and_truncation():
    left, right = socket.socketpair()
    left.close()
    assert recv_frame(right) is None           # clean EOF -> None
    right.close()

    left, right = socket.socketpair()
    try:
        left.sendall(b"\x00\x00\x00\x10partial")   # 16 promised, 7 sent
        left.close()
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        right.close()


def test_frame_size_guard():
    left, right = socket.socketpair()
    try:
        left.sendall((proto.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_untrusted_read_grows_only_with_the_bytes_received():
    """A length word alone must not make the reader commit the frame's
    size: announce 64 MiB, send 1 KiB, hang up."""
    announced = 64 << 20
    left, right = socket.socketpair()
    try:
        left.sendall(announced.to_bytes(4, "big") + b"x" * 1024)
        left.close()
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError):
                recv_frame(right)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        right.close()
    assert peak < 4 << 20


@pytest.mark.parametrize("trusted", [False, True])
def test_binary_frame_decodes_read_only_either_way(trusted):
    env = {"a": np.arange(1 << 16, dtype=np.int64)}
    left, right = socket.socketpair()
    try:
        sender = threading.Thread(target=send_binary_frame, args=(
            left, encode_binary_message(env)))
        sender.start()
        received = recv_frame(right, trusted=trusted)
        sender.join()
    finally:
        left.close()
        right.close()
    assert not received["a"].flags.writeable
    assert np.array_equal(received["a"], env["a"])


def test_undecodable_frame():
    left, right = socket.socketpair()
    try:
        body = b"\xff\xfenot json"
        left.sendall(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# value codec
# ----------------------------------------------------------------------
CODEC_VALUES = [
    None,
    True,
    42,
    -1.5,
    float("nan"),
    float("inf"),
    "clerk#000001",
    b"\x00\x01raw",
    np.arange(5, dtype=np.int64),
    np.asarray([1.5, float("nan"), float("-inf")]),
    np.asarray(["a", "bb", None], dtype=object),
    [1, "two", [3.0, None]],
    (1, (2, 3)),
    {"kind": "value", "value": [1.0, 2.0]},
    {"kind": "bat", "head": np.arange(3), "tail": np.asarray([9, 8, 7])},
    {1: "int-keyed", 2: "also"},
    {(2, 3): "tuple-keyed"},
    {"__nd__": "marker-collision"},
    Row([("region", "EUROPE"), ("total", 12.5)]),
    Ref("Order", 101),
    [Row([("x", Ref("Item", 3)), ("ys", (1, 2))])],
]


def _through_frame(value):
    """``value`` encoded once, sent as one binary frame over a real
    socket and decoded — the reply path."""
    left, right = socket.socketpair()
    try:
        send_binary_frame(left, encode_binary_message(value))
        return decode_value(recv_frame(right))
    finally:
        left.close()
        right.close()


@pytest.mark.parametrize("value", CODEC_VALUES,
                         ids=[repr(v)[:40] for v in CODEC_VALUES])
def test_codec_checksum_exact(value):
    decoded = _through_frame(value)
    assert result_checksum(decoded) == result_checksum(value)


def test_codec_rejects_unknown_types():
    with pytest.raises(ProtocolError):
        encode_value(object(), proto.BufferSink())
    with pytest.raises(ProtocolError):
        encode_binary_message({"kind": "value", "value": {1, 2}})


def test_ndarray_roundtrip_is_bit_exact():
    array = np.asarray([0.1, 1e-300, -0.0, 3.141592653589793])
    decoded = _through_frame(array)
    assert decoded.dtype == array.dtype
    assert decoded.tobytes() == array.tobytes()


# ----------------------------------------------------------------------
# binary columnar frames
# ----------------------------------------------------------------------
#: Codec edge cases the binary wire must get right beyond the shared
#: list: empty buffers, non-contiguous views, empty object arrays, and
#: a plain dict colliding with the buffer-marker key.
BINARY_EDGE_VALUES = [
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64).reshape(0, 3),
    np.arange(20, dtype=np.float64)[::2],          # sliced: strided
    np.arange(12, dtype=np.int32).reshape(3, 4).T,  # transposed view
    np.asarray([], dtype=object),
    {"__ndbuf__": "marker-collision"},
    {"head": np.arange(4), "tail": np.arange(4)},   # equal columns
]

BINARY_VALUES = CODEC_VALUES + BINARY_EDGE_VALUES


@pytest.mark.parametrize("value", BINARY_VALUES,
                         ids=[repr(v)[:40] for v in BINARY_VALUES])
def test_binary_message_checksum_exact(value):
    blob = proto.encode_binary_message(value)
    decoded = decode_value(proto.decode_binary_message(blob))
    assert result_checksum(decoded) == result_checksum(value)


@pytest.mark.parametrize("value", BINARY_VALUES,
                         ids=[repr(v)[:40] for v in BINARY_VALUES])
def test_json_and_binary_wires_agree(value):
    """A reply as it travels: a JSON header frame carrying the sha1
    checksum, then the value's one encoding as a binary frame on the
    same socket.  The digest the header announces is the digest of
    the decoded body.  (The name dates from the retired base64-in-JSON
    reply wire.)"""
    left, right = socket.socketpair()
    try:
        send_frame(left, {"type": "result", "id": 1,
                          "checksum": result_checksum(value)})
        send_binary_frame(left, encode_binary_message(value))
        header = recv_frame(right)
        body = decode_value(recv_frame(right))
    finally:
        left.close()
        right.close()
    assert header["type"] == "result"
    assert header["checksum"] == result_checksum(body) \
        == result_checksum(value)


def test_binary_frame_socket_roundtrip_zero_copy():
    left, right = socket.socketpair()
    try:
        message = {"type": "result",
                   "payload": {"kind": "bat",
                               "head": np.arange(1000),
                               "tail": np.arange(1000) * 0.5},
                   "checksum": "abc"}
        metered = []
        send_binary_frame(left, encode_binary_message(message))
        received = recv_frame(right, meter=metered.append)
        decoded = decode_value(received["payload"])
        assert decoded["head"].tolist() == list(range(1000))
        # zero-copy decode: the arrays are read-only views over the
        # received bytes, not copies
        assert not received["payload"]["head"].flags.writeable
        assert metered and metered[0] > 2 * 8000    # both raw buffers
    finally:
        left.close()
        right.close()


def test_read_ahead_stream_reads_a_small_reply_in_one_socket_read():
    """A client's stream: both frames of a small reply arrive in one
    read, the bytes it read ahead stay for the next frame, and a body
    of the scratch size or more is read straight into its buffer."""
    left, right = socket.socketpair()
    reads = []

    class Counting:
        def recv_into(self, view):
            count = right.recv_into(view)
            reads.append((len(view), count))
            return count
    try:
        wide = np.arange(10_000, dtype=np.int64)        # 80 KB
        proto.send_reply(left, {"type": "result", "id": 1},
                         encode_binary_message({"value": 7}))
        send_binary_frame(left, encode_binary_message({"value": wide}))
        left.close()
        stream = proto.ReadAhead(Counting())
        assert recv_frame(stream, trusted=True)["id"] == 1
        assert recv_frame(stream, trusted=True) == {"value": 7}
        assert len(reads) == 1
        arrived = recv_frame(stream, trusted=True)["value"]
        assert arrived.tolist() == wide.tolist()
        assert not arrived.flags.writeable
        assert any(size >= 64 << 10 for size, _count in reads[1:])
        assert recv_frame(stream, trusted=True) is None
    finally:
        left.close()
        right.close()


def test_oversize_binary_frame_is_refused_before_allocation():
    left, right = socket.socketpair()
    try:
        word = proto._BINARY_FLAG | (proto.MAX_FRAME_BYTES + 1)
        left.sendall(word.to_bytes(4, "big"))
        with pytest.raises(FrameTooLargeError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_corrupt_binary_payloads_raise_typed():
    # header length word overrunning the payload
    with pytest.raises(ProtocolError):
        proto.decode_binary_message(b"\x00\x00\xff\xff{}")
    # announced buffer overrunning the payload
    header = json.dumps({"msg": {"__ndbuf__": 0, "dtype": "<i8",
                                 "shape": [100]},
                         "buffers": [800]}).encode()
    blob = len(header).to_bytes(4, "big") + header + b"\x00" * 16
    with pytest.raises(ProtocolError):
        proto.decode_binary_message(blob)
    # not a header at all
    with pytest.raises(ProtocolError):
        proto.decode_binary_message(b"\x00\x00\x00\x04asdf")


def test_unresolved_buffer_marker_rejected_in_json_context():
    with pytest.raises(ProtocolError):
        decode_value({"__ndbuf__": 0, "dtype": "<i8", "shape": [1]})


# ----------------------------------------------------------------------
# MIL program codec
# ----------------------------------------------------------------------
def test_program_roundtrip():
    program = MILProgram()
    selected = program.emit("select", [Var("Item_quantity"), 10, 40])
    program.emit("multiplex", [selected, 2.0], fn="*", target="scaled")
    program.emit("aggr_all", [Var("scaled")], fn="sum", target="total")
    decoded = decode_program(json.loads(json.dumps(
        encode_program(program))))
    assert decoded.render() == program.render()


def test_program_codec_rejects_malformed():
    with pytest.raises(ProtocolError):
        decode_program({"not": "a program"})
    with pytest.raises(ProtocolError):
        decode_program({"stmts": [{"target": "x"}]})
    with pytest.raises(ProtocolError):
        decode_program({"stmts": [{"target": "x", "op": "select",
                                   "args": [[1, 2]]}]})
    # literals are scalars: anything else has no wire form
    program = MILProgram()
    program.emit("select", [Var("Item_quantity"), (1, 2)])
    with pytest.raises(ProtocolError):
        encode_program(program)


# ----------------------------------------------------------------------
# the weighted LRU: plan-cache use (every entry weighs 1)
# ----------------------------------------------------------------------
def test_lru_eviction_order_and_stats():
    cache = WeightedLRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refreshes a's recency
    cache.put("c", 3)                   # evicts b, the LRU entry
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    snap = cache.snapshot()
    assert snap["size"] == 2
    assert snap["evictions"] == 1
    assert snap["hits"] == 3
    assert snap["misses"] == 1
    assert 0 < snap["hit_rate"] < 1


def test_lru_capacity_zero_disables():
    cache = WeightedLRU(0)
    assert cache.put("a", 1) is False
    assert cache.get("a") is None
    assert len(cache) == 0
    assert cache.stats.misses == 1


def test_lru_invalidate_predicate():
    cache = WeightedLRU(8)
    for generation in (1, 2):
        for name in ("x", "y"):
            cache.put((name, generation), name * generation)
    assert cache.invalidate(lambda key: key[1] < 2) == 2
    assert len(cache) == 2
    assert cache.get(("x", 2)) == "xx"
    assert cache.invalidate() == 2
    assert len(cache) == 0


def test_lru_invalidate_counts_evictions_and_invalidations():
    """Regression: invalidate() used to drop entries without touching
    the counters, so generation-bump sweeps were invisible in the
    server stats."""
    cache = WeightedLRU(8)
    for generation in (1, 2):
        for name in ("x", "y"):
            cache.put((name, generation), name)
    assert cache.invalidate(lambda key: key[1] < 2) == 2
    snap = cache.snapshot()
    assert snap["evictions"] == 2
    assert snap["invalidations"] == 2
    cache.invalidate()
    snap = cache.snapshot()
    assert snap["evictions"] == 4
    assert snap["invalidations"] == 4


# ----------------------------------------------------------------------
# the weighted LRU: result-cache use (a reply weighs its body's bytes)
# ----------------------------------------------------------------------
def _bat(base, n=64):
    return {"kind": "bat", "head": np.arange(n) + base,
            "tail": (np.arange(n) + base) * 0.5}


def _put_reply(cache, key, value, **header):
    """Cache a reply the way the service does: its header and the
    encoded body, weighted by the body's length."""
    body = encode_binary_message(value)
    header.setdefault("checksum", result_checksum(value))
    return cache.put(key, (dict(header, type="result"), body),
                     weight=len(body))


def _decoded_hit(cache, key):
    _header, body = cache.get(key)
    return decode_value(proto.decode_binary_message(body))


def test_result_cache_hit_roundtrip_and_counters():
    cache = WeightedLRU(1 << 20)
    value = _bat(0)
    assert _put_reply(cache, (1, "q"), value, pid=7) is True
    header, body = cache.get((1, "q"))
    assert isinstance(body, bytes)
    assert header["type"] == "result"
    assert header["checksum"] == result_checksum(value)
    assert header["pid"] == 7
    assert result_checksum(decode_value(
        proto.decode_binary_message(body))) == header["checksum"]
    assert cache.get((1, "other")) is None
    snap = cache.snapshot()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["weight"] == len(body)
    assert 0 < snap["weight"] <= snap["peak_weight"] <= snap["capacity"]


def test_result_cache_responses_are_mutation_isolated():
    """Regression for the serving-path shallow copy: the cached entry
    and every served response used to share the same nested payload
    structure, so one client mutating its reply corrupted everyone
    else's.  A cached reply is immutable bytes now: every hit decodes
    afresh, and nothing decoded can reach the cache."""
    cache = WeightedLRU(1 << 20)
    source = {"kind": "value", "value": [1, 2, 3], "cols": _bat(5)}
    _put_reply(cache, (1, "q"), source)
    first = _decoded_hit(cache, (1, "q"))
    first["value"].append("poison")
    first.clear()
    # the source value the worker encoded is also out of reach
    source["value"].append("poison")
    second = _decoded_hit(cache, (1, "q"))
    assert second["value"] == [1, 2, 3]
    assert not second["cols"]["head"].flags.writeable


def test_result_cache_source_array_mutation_cannot_corrupt():
    cache = WeightedLRU(1 << 20)
    column = np.arange(32, dtype=np.int64)
    _put_reply(cache, (1, "q"), {"col": column})
    column[0] = -999
    assert _decoded_hit(cache, (1, "q"))["col"][0] == 0


def _wide_batch(rows=500):
    return RowBatch(
        ["k", "v", "s"],
        [np.arange(rows, dtype=np.int64), np.linspace(0.0, 1.0, rows),
         np.fromiter(("s%d" % i for i in range(rows)), dtype=object,
                     count=rows)],
        ["Order", None, None])


def test_result_cache_batches_are_mutation_isolated():
    """The batch twin of the two tests above: neither a served
    response nor the source value can reach the cached columns."""
    cache = WeightedLRU(1 << 20)
    source = _wide_batch()
    digest = result_checksum(source)
    _put_reply(cache, (1, "q"), {"kind": "value", "value": source})
    first = _decoded_hit(cache, (1, "q"))["value"]
    assert isinstance(first, RowBatch) and first is not source
    with pytest.raises(ValueError):
        first.columns[0][0] = -999              # read-only views
    first.columns[1] = np.zeros(len(first))     # a fresh container ...
    first.columns.pop()
    source.columns[0][0] = -999                 # ... and copied bytes
    second = _decoded_hit(cache, (1, "q"))["value"]
    assert result_checksum(second) == digest
    assert second[0]["k"] == Ref("Order", 0)


def test_batch_bookkeeping_never_builds_a_row(monkeypatch):
    """Encoding (worker), checksumming, caching and decoding a batch
    touch its columns only; a ``Row`` exists only once someone
    iterates."""
    built = []
    original = Row.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Row, "__init__", counting)
    batch = _wide_batch()
    cache = WeightedLRU(1 << 20)
    _put_reply(cache, (1, "q"), {"kind": "value", "value": batch})
    for _ in range(3):
        decoded = _decoded_hit(cache, (1, "q"))["value"]
    result_checksum(decoded)
    assert built == []
    assert len(list(batch)) == 500 and len(built) == 500


def test_result_cache_byte_budget_is_a_hard_ceiling():
    budget = 4096
    cache = WeightedLRU(budget)
    for index in range(16):
        _put_reply(cache, (1, "q%d" % index), _bat(index * 100))
        assert cache.snapshot()["weight"] <= budget
    snap = cache.snapshot()
    assert snap["evictions"] >= 1
    assert snap["weight"] <= budget and snap["peak_weight"] <= budget
    # a single value larger than the whole budget is never admitted
    assert _put_reply(cache, (1, "big"),
                      {"col": np.zeros(budget, dtype=np.int64)}) is False
    assert cache.get((1, "big")) is None
    assert cache.snapshot()["weight"] <= budget


def test_result_cache_generation_invalidation():
    cache = WeightedLRU(1 << 20)
    _put_reply(cache, (1, "q"), _bat(0))
    _put_reply(cache, (2, "q"), _bat(1))
    dropped = cache.invalidate(lambda key: key[0] == 1)
    assert dropped == 1
    assert cache.get((1, "q")) is None
    assert cache.get((2, "q")) is not None
    snap = cache.snapshot()
    assert snap["invalidations"] == 1


def test_result_cache_zero_budget_disables():
    cache = WeightedLRU(0)
    assert _put_reply(cache, (1, "q"), _bat(0)) is False
    assert cache.get((1, "q")) is None
    assert len(cache) == 0


def test_result_cache_is_thread_safe_under_contention():
    cache = WeightedLRU(64 * 1024)
    bodies = [encode_binary_message(_bat(index)) for index in range(10)]
    errors = []

    def hammer(seed):
        try:
            for index in range(150):
                body = bodies[index % 10]
                cache.put((seed, index % 10), ({"t": seed}, body),
                          weight=len(body))
                hit = cache.get((seed, (index * 7) % 10))
                if hit is not None:
                    proto.decode_binary_message(hit[1])
        except Exception as exc:        # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert cache.snapshot()["weight"] <= 64 * 1024


def test_lru_is_thread_safe_under_contention():
    cache = WeightedLRU(16)
    errors = []

    def hammer(seed):
        try:
            for index in range(300):
                cache.put((seed, index % 20), index)
                cache.get((seed, (index * 7) % 20))
        except Exception as exc:        # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 16
