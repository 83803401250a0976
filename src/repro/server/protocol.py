"""Wire protocol: length-prefixed frames + the one reply encoding.

Framing
-------

Every message is one **frame**: a 4-byte big-endian length word
followed by that many payload bytes.  With the top bit of the length
word clear the payload is UTF-8 JSON (requests, control frames and
reply headers); with it set the payload is a **binary columnar
message** (below), the encoded body of one result.  Frames above
:data:`MAX_FRAME_BYTES` are refused with a typed
:class:`~repro.errors.ProtocolError` before any allocation, so a
corrupt length prefix cannot balloon memory (the cap is below 2**31,
so the flag bit can never be mistaken for length).  ``recv_frame``
returns ``None`` on a clean EOF at a frame boundary (peer closed) and
raises on a mid-frame truncation.

Binary columnar messages
------------------------

A query result is encoded exactly once, by the worker that computed
it (:func:`encode_binary_message`, called from
:mod:`repro.monet.multiproc`); from there to the client the bytes are
opaque — the server caches and forwards them without decoding.
The message (Arrow-IPC-shaped: one JSON header describing column
buffers, then the raw buffers) ships every fixed-dtype ndarray as its
raw little-endian bytes::

    u32 BE  header_length
    header  UTF-8 JSON {"msg": <message>, "buffers": [len, ...]}
    pad to 8-byte alignment, then each buffer 8-aligned in order

In the header's ``msg`` tree an array leaf is a ``{"__ndbuf__": i,
"dtype": ..., "shape": ...}`` marker naming buffer ``i``; buffer
offsets are implicit (sequential, 8-aligned), so the header does not
depend on its own length.  Decoding resolves markers to read-only
ndarray **views** over the received bytes: zero copies on the reply
path.

A reply travels one way, on both of its hops: the JSON header frame
followed by the body as one binary frame (:func:`send_reply`).  The
worker process that encoded a result sends it to the server this way,
and the server forwards the body it read to the client the same way.
No end copies the body: the sender writes the length words, the header
and the body as one gather write (``sendmsg``) of the buffers they
are, and a ``trusted`` reader (:func:`read_frame`: the server reading
its own workers, the client reading its own server) reads each frame
with ``recv_into`` into one buffer sized from its length word (the
server reads a worker's reply ahead, 64 KiB at a time, so a small
reply costs one read and only those first bytes are copied).  The
client then decodes a binary frame in place into read-only arrays;
the server never decodes it (:func:`recv_reply`).  The server reads
every frame a client sends in chunks, so its memory grows only with
the bytes a peer actually sends.

Value codec
-----------

Query results travel in the canonical form the multi-process
dispatcher produces (:func:`repro.monet.multiproc.ship_value`), which
is not JSON-native: numpy arrays, ``Row``/``Ref`` values, bytes.
:func:`encode_value`/:func:`decode_value` are exact inverses **with
respect to the sha1 result checksum**: fixed-dtype arrays travel as
raw buffers (bit-exact), object arrays element-wise, tuples degrade
to lists (checksum-equivalent by design), and numpy scalars degrade
to Python numbers (likewise).  A ``RowBatch`` (a set of flat tuples
held column-wise) travels as ``{"__batch__": names, "refs": classes,
"cols": [...]}``: each fixed-width column is a buffer like any other,
a string column is its UTF-8 bytes plus every string's end offset,
and no ``Row`` exists on either side until the receiver iterates.
The client re-checksums the decoded payload against the worker's
digest, so any codec asymmetry is caught per response, not trusted.

Non-finite floats ride on Python's JSON ``NaN``/``Infinity`` literals
(both ends of this protocol are this package).
"""

import base64
import json
import struct

import numpy as np

from .. import faults
from ..errors import EvaluationError, FrameTooLargeError, ProtocolError
from ..monet.heap import utf8_column
from ..monet.mil import MILProgram, MILStmt, Var
from ..monet.multiproc import is_batch, is_ref, is_row

#: Refuse frames above this many payload bytes (2**28 = 256 MiB).
MAX_FRAME_BYTES = 1 << 28

_LENGTH = struct.Struct(">I")

#: Top bit of the length word: the payload is a binary columnar frame.
_BINARY_FLAG = 0x80000000

_HEADER_LEN = struct.Struct(">I")

#: Column buffers start (and stay) 8-byte aligned within the payload.
_BUFFER_ALIGN = 8

#: Chaos injection points of the wire (see :mod:`repro.faults`):
#: ``send.reset`` raises/crashes before any bytes go out (connection
#: reset), ``send.torn`` (``tear`` action) writes the length prefix
#: plus a fraction of the body and then concludes (a frame torn
#: mid-send), ``recv.delay`` stalls the receive path (slow-loris).
faults.declare("protocol.send.reset", "protocol.send.torn",
               "protocol.recv.delay")

#: Marker keys reserved by the codec; a plain dict containing any of
#: them (or non-string keys) is encoded in the explicit pair-list form.
_MARKERS = frozenset(("__ndo__", "__ndbuf__", "__row__",
                      "__ref__", "__bytes__", "__tuple__", "__dict__",
                      "__var__", "__batch__"))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _send_frames(sock, *frames):
    """Write ``(flag, body)`` frames, through the chaos injection
    points.  An oversized frame is refused before any byte goes out.

    The length words and bodies go out as one gather write
    (``sendmsg``), never joined into a copy, so a wide body crosses
    this hop as the buffer it already is."""
    for _flag, body in frames:
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError("refusing to send %d-byte frame (max %d)"
                                % (len(body), MAX_FRAME_BYTES))
    faults.fire("protocol.send.reset")
    parts = [part for flag, body in frames
             for part in (_LENGTH.pack(flag | len(body)), body)]
    spec = faults.fire("protocol.send.torn")
    if spec is not None:
        total = sum(len(part) for part in parts)
        _send_parts(sock, parts, _LENGTH.size + int(
            (total - _LENGTH.size) * spec.fraction))
        spec.conclude()
    _send_parts(sock, parts)


def _send_parts(sock, parts, limit=None):
    """``sendall`` over a list of buffers (the first ``limit`` bytes
    of them, when given): one ``sendmsg`` per attempt, resumed after a
    short write."""
    views = []
    for part in parts:
        view = memoryview(part).cast("B")
        if limit is not None:
            view = view[:max(0, limit)]
            limit -= len(view)
        if view:
            views.append(view)
    while views:
        sent = sock.sendmsg(views)
        while sent:
            if sent < len(views[0]):
                views[0] = views[0][sent:]
                break
            sent -= len(views.pop(0))


def _json_bytes(obj):
    return json.dumps(obj, allow_nan=True,
                      separators=(",", ":")).encode("utf-8")


def send_frame(sock, obj):
    """Serialise ``obj`` as JSON and write one frame."""
    _send_frames(sock, (0, _json_bytes(obj)))


def send_binary_frame(sock, body):
    """Write an encoded message ``body`` (see
    :func:`encode_binary_message`) as one binary frame.

    Same chaos injection points (``protocol.send.reset`` /
    ``protocol.send.torn``) and the same size cap as the JSON path —
    the framing hardening does not fork per frame kind.
    """
    _send_frames(sock, (_BINARY_FLAG, body))


def send_reply(sock, header, body):
    """An inline ``result`` reply: the JSON ``header`` frame, then the
    encoded payload ``body`` as one binary frame — written together,
    so a reply is refused whole or sent whole."""
    _send_frames(sock, (0, _json_bytes(header)), (_BINARY_FLAG, body))


def _recv_exact(sock, nbytes, trusted=False):
    """Exactly ``nbytes``; ``None`` on EOF before the last byte.

    From a ``trusted`` peer the bytes land in one buffer sized from the
    announced length (``recv_into``: no per-chunk allocations, no
    join).  From any other peer memory grows only with the bytes that
    arrive (chunks of at most 1 MiB, joined at the end), so a length
    word alone cannot make the reader commit the frame's size.
    """
    if trusted:
        view = memoryview(bytearray(nbytes))
        got = 0
        while got < nbytes:
            count = sock.recv_into(view[got:])
            if not count:
                return None
            got += count
        return view.toreadonly()
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock, trusted=False):
    """One frame, undecoded: ``(binary, payload)``, or ``None`` on a
    clean EOF at a frame boundary.

    Parses the length word and its binary flag, refuses an announced
    length above :data:`MAX_FRAME_BYTES` with the typed
    :class:`~repro.errors.FrameTooLargeError` (a ProtocolError
    subclass) before any allocation, and raises ProtocolError on a
    mid-frame truncation.  ``trusted`` is for a peer whose length words
    are believed: the payload is read into one buffer sized from the
    length word and returned as a read-only ``memoryview``.
    """
    word = _recv_exact(sock, _LENGTH.size, True)
    if word is None:
        return None
    (word,) = _LENGTH.unpack(word)
    length = word & ~_BINARY_FLAG
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError("refusing %d-byte frame (max %d)"
                                 % (length, MAX_FRAME_BYTES))
    payload = _recv_exact(sock, length, trusted)
    if payload is None:
        raise ProtocolError("connection closed mid-frame "
                            "(%d bytes expected)" % length)
    return bool(word & _BINARY_FLAG), payload


def _json_payload(payload):
    try:
        return json.loads(str(payload, "utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError("undecodable frame: %s" % exc) from exc


def recv_frame(sock, meter=None, trusted=False):
    """Read and decode one frame; ``None`` on clean EOF at a frame
    boundary.

    A binary frame decodes as a binary columnar message (array leaves
    come back as read-only ndarray views over the received bytes), any
    other as JSON.  Framing, the size cap (the server answers a
    :class:`~repro.errors.FrameTooLargeError` with an error frame
    before hanging up) and ``trusted`` are :func:`read_frame`'s;
    without ``trusted`` (the server reading requests from any peer,
    the handshake included) the reader's memory grows only with the
    bytes actually received.  ``meter``, when given, is called with the
    frame's total on-wire byte count (length word included).
    """
    faults.fire("protocol.recv.delay")
    frame = read_frame(sock, trusted)
    if frame is None:
        return None
    binary, payload = frame
    if meter is not None:
        meter(_LENGTH.size + len(payload))
    if binary:
        # read-only: the decoded arrays are views of this one buffer
        return decode_binary_message(payload)
    return _json_payload(payload)


#: Bytes :class:`_ReadAhead` asks the socket for per read: every
#: reply of a served SQL mix fits, and it costs about 2 us to allocate.
_READ_AHEAD = 64 << 10


class _ReadAhead:
    """A trusted peer's socket, read ahead into one scratch buffer, so
    a reply of a few KB costs one ``recv_into`` for both its frames
    (each read releases the GIL, and every re-acquire can queue behind
    the server's other threads).  A read at least the scratch size
    goes straight into the caller's buffer.  ``wait()`` runs before
    every read of the socket: it returns once a byte (or EOF) is there
    to read, or raises to abandon the reply."""

    __slots__ = ("sock", "wait", "scratch", "ahead")

    def __init__(self, sock, wait):
        self.sock = sock
        self.wait = wait
        self.scratch = memoryview(bytearray(_READ_AHEAD))
        self.ahead = self.scratch[:0]

    def recv_into(self, view):
        if not self.ahead:
            self.wait()
            if len(view) >= len(self.scratch):
                return self.sock.recv_into(view)
            self.ahead = self.scratch[:self.sock.recv_into(self.scratch)]
        count = min(len(view), len(self.ahead))
        view[:count] = self.ahead[:count]
        self.ahead = self.ahead[count:]
        return count


def recv_reply(sock, wait):
    """Read one :func:`send_reply` pair from a trusted peer that sends
    nothing else until it is asked again: the JSON header decoded, the
    body the read-only buffer it was read into, left encoded.  ``wait``
    as in :class:`_ReadAhead`.  Raises ProtocolError when the peer
    closes first or the frames are not a JSON header followed by a
    binary body."""
    stream = _ReadAhead(sock, wait)
    header = read_frame(stream, True)
    body = None if header is None else read_frame(stream, True)
    if body is None or header[0] or not body[0]:
        raise ProtocolError("expected a reply: a JSON header frame, "
                            "then a binary body frame")
    return _json_payload(header[1]), body[1]


# ----------------------------------------------------------------------
# value codec
# ----------------------------------------------------------------------
class BufferSink:
    """Collects the column buffers of one binary message.

    ``add`` registers an array's raw little-endian bytes and returns
    its ``__ndbuf__`` marker.
    """

    __slots__ = ("buffers",)

    def __init__(self):
        self.buffers = []               # memoryviews, in buffer order

    def add(self, array):
        data = np.ascontiguousarray(array)
        if data.dtype.byteorder == ">":
            data = np.ascontiguousarray(
                data.astype(data.dtype.newbyteorder("<")))
        self.buffers.append(memoryview(data).cast("B") if data.nbytes
                            else memoryview(b""))
        return {"__ndbuf__": len(self.buffers) - 1,
                "dtype": data.dtype.str, "shape": list(data.shape)}


def encode_value(value, sink):
    """Canonical shipped value -> JSON-safe structure.

    Fixed-dtype ndarrays leave the tree as ``__ndbuf__`` markers; their
    bytes go to the :class:`BufferSink`, which
    :func:`encode_binary_message` lays out after the header.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        # checksum canon treats numpy scalars and Python numbers
        # identically, so the degrade is digest-preserving
        return value.item()
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return {"__ndo__": [encode_value(item, sink)
                                for item in value.tolist()]}
        return sink.add(value)
    if is_batch(value):
        return {"__batch__": list(value.names),
                "refs": list(value.ref_classes),
                "cols": [_encode_column(column, sink)
                         for column in value.columns]}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item, sink)
                              for item in value]}
    if isinstance(value, list):
        return [encode_value(item, sink) for item in value]
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value) \
                and not (_MARKERS & set(value)):
            return {key: encode_value(item, sink)
                    for key, item in value.items()}
        return {"__dict__": [[encode_value(key, sink),
                              encode_value(item, sink)]
                             for key, item in value.items()]}
    if is_row(value):
        return {"__row__": [[name, encode_value(item, sink)]
                            for name, item in zip(value.names,
                                                  value.values)]}
    if is_ref(value):
        return {"__ref__": [value.class_name, int(value.oid)]}
    raise ProtocolError("cannot encode value of type %s"
                        % type(value).__name__)


def _encode_column(column, sink):
    """One batch column: a string column ships as its UTF-8 bytes plus
    the end offset of every string (two buffers instead of one JSON
    string per row); every other column as the array it is."""
    items = column.tolist() if column.dtype == object else ()
    if items and set(map(type, items)) == {str}:
        lengths, data = utf8_column(items)
        ends = np.cumsum(lengths)
        if len(data) < 1 << 31:
            ends = ends.astype(np.int32)
        return {"utf8": encode_value(
                    np.frombuffer(data, dtype=np.uint8), sink),
                "ends": encode_value(ends, sink)}
    return encode_value(column, sink)


def _decode_column(obj):
    if isinstance(obj, dict) and "utf8" in obj:
        data = decode_value(obj["utf8"]).tobytes()
        ends = decode_value(obj["ends"]).tolist()
        spans = list(zip([0] + ends, ends))
        text = data.decode("utf-8")
        if len(text) == len(data):      # ASCII: chars are bytes
            strings = [text[start:end] for start, end in spans]
        else:
            strings = [data[start:end].decode("utf-8")
                       for start, end in spans]
        return np.fromiter(strings, dtype=object, count=len(strings))
    return decode_value(obj)


def decode_value(obj):
    """JSON structure -> canonical value (inverse of encode_value).

    Actual ndarrays pass through untouched: a binary frame resolves
    its ``__ndbuf__`` markers to array views at receive time, so the
    tree reaching this decoder mixes JSON structure with live arrays.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, list):
        return [decode_value(item) for item in obj]
    if isinstance(obj, dict):
        if "__ndbuf__" in obj:
            # only ever valid inside a binary frame, where the marker
            # is resolved to its array before this decoder runs
            raise ProtocolError("unresolved column-buffer marker "
                                "outside a binary frame")
        if "__bytes__" in obj:
            return base64.b64decode(obj["__bytes__"])
        if "__ndo__" in obj:
            array = np.empty(len(obj["__ndo__"]), dtype=object)
            for index, item in enumerate(obj["__ndo__"]):
                array[index] = decode_value(item)
            return array
        if "__tuple__" in obj:
            return tuple(decode_value(item)
                         for item in obj["__tuple__"])
        if "__dict__" in obj:
            return {_hashable(decode_value(key)): decode_value(item)
                    for key, item in obj["__dict__"]}
        if "__row__" in obj:
            from ..moa.values import Row
            return Row([(name, decode_value(item))
                        for name, item in obj["__row__"]])
        if "__ref__" in obj:
            from ..moa.values import Ref
            class_name, oid = obj["__ref__"]
            return Ref(class_name, oid)
        if "__batch__" in obj:
            from ..moa.values import RowBatch
            try:
                return RowBatch(obj["__batch__"],
                                [_decode_column(column)
                                 for column in obj["cols"]],
                                obj["refs"])
            except (KeyError, TypeError, ValueError, AttributeError,
                    EvaluationError) as exc:
                raise ProtocolError("malformed row batch on the wire: "
                                    "%r" % (exc,)) from exc
        return {key: decode_value(item) for key, item in obj.items()}
    raise ProtocolError("cannot decode wire value %r" % (obj,))


def _hashable(key):
    return tuple(key) if isinstance(key, list) else key


# ----------------------------------------------------------------------
# binary columnar messages
# ----------------------------------------------------------------------
def _align(offset):
    return (offset + _BUFFER_ALIGN - 1) & ~(_BUFFER_ALIGN - 1)


def encode_binary_message(obj) -> bytes:
    """``obj`` as a binary payload body (no outer length word)."""
    sink = BufferSink()
    header = json.dumps(
        {"msg": encode_value(obj, sink=sink),
         "buffers": [len(view) for view in sink.buffers]},
        allow_nan=True, separators=(",", ":")).encode("utf-8")
    parts = [_HEADER_LEN.pack(len(header)), header]
    cursor = _HEADER_LEN.size + len(header)
    for view in sink.buffers:
        aligned = _align(cursor)
        if aligned != cursor:
            parts.append(b"\x00" * (aligned - cursor))
        parts.append(view)
        cursor = aligned + len(view)
    return b"".join(parts)


def _resolve_buffers(obj, buffers):
    """Replace ``__ndbuf__`` markers with (read-only) array views."""
    if isinstance(obj, dict):
        if "__ndbuf__" in obj:
            try:
                view = buffers[obj["__ndbuf__"]]
                dtype = np.dtype(obj["dtype"])
                shape = tuple(obj["shape"])
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                raise ProtocolError("malformed column-buffer marker "
                                    "%r" % (obj,)) from exc
            array = np.frombuffer(view, dtype=dtype)
            return array.reshape(shape)
        return {key: _resolve_buffers(item, buffers)
                for key, item in obj.items()}
    if isinstance(obj, list):
        return [_resolve_buffers(item, buffers) for item in obj]
    return obj


def decode_binary_message(payload):
    """Inverse of :func:`encode_binary_message`.

    ``payload`` may be any buffer (``bytes``, a ``memoryview``) —
    the resolved arrays are zero-copy read-only views into it, so the
    caller's buffer must outlive them (numpy keeps a reference).
    """
    payload = memoryview(payload)
    try:
        if len(payload) < _HEADER_LEN.size:
            raise ProtocolError("binary payload shorter than its "
                                "header length word")
        (header_len,) = _HEADER_LEN.unpack_from(payload, 0)
        header_end = _HEADER_LEN.size + header_len
        if header_end > len(payload):
            raise ProtocolError("binary header (%d bytes) overruns "
                                "the %d-byte payload"
                                % (header_len, len(payload)))
        header = json.loads(bytes(payload[_HEADER_LEN.size:header_end])
                            .decode("utf-8"))
        if not isinstance(header, dict) or "msg" not in header:
            raise ProtocolError("malformed binary header")
        lengths = header.get("buffers", [])
        buffers = []
        cursor = header_end
        for nbytes in lengths:
            start = _align(cursor)
            cursor = start + int(nbytes)
            if cursor > len(payload):
                raise ProtocolError(
                    "column buffer overruns the payload "
                    "(%d bytes announced past offset %d, %d total)"
                    % (nbytes, start, len(payload)))
            buffers.append(payload[start:cursor])
        return _resolve_buffers(header["msg"], buffers)
    except (UnicodeDecodeError, ValueError, struct.error) as exc:
        raise ProtocolError("undecodable binary frame: %s"
                            % exc) from exc


# ----------------------------------------------------------------------
# MIL program codec
# ----------------------------------------------------------------------
#: The literal argument types a MIL statement carries (JSON-native).
_LITERALS = (type(None), bool, int, float, str)


def _encode_arg(arg):
    if isinstance(arg, Var):
        return {"__var__": arg.name}
    if isinstance(arg, (np.bool_, np.integer, np.floating)):
        return arg.item()
    if isinstance(arg, _LITERALS):
        return arg
    raise ProtocolError("MIL literal of type %s has no wire form"
                        % type(arg).__name__)


def encode_program(program):
    """A :class:`~repro.monet.mil.MILProgram` as a JSON structure.

    Statement arguments distinguish variable/catalog references
    (``{"__var__": name}``) from literal scalars, which ride as the
    JSON values they are.
    """
    return {"stmts": [{"target": stmt.target, "op": stmt.op,
                       "args": [_encode_arg(arg) for arg in stmt.args],
                       "fn": stmt.fn} for stmt in program]}


def decode_program(obj):
    """Inverse of :func:`encode_program`."""
    if not isinstance(obj, dict) or "stmts" not in obj:
        raise ProtocolError("malformed MIL program on the wire")
    program = MILProgram()
    for stmt in obj["stmts"]:
        try:
            args = [arg if isinstance(arg, _LITERALS)
                    else Var(arg["__var__"]) for arg in stmt["args"]]
            program.stmts.append(MILStmt(stmt["target"], stmt["op"],
                                         args, fn=stmt.get("fn")))
        except (KeyError, TypeError) as exc:
            raise ProtocolError("malformed MIL statement: %r"
                                % (stmt,)) from exc
    return program
