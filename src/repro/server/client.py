"""QueryClient: the library side of the wire protocol.

Connects, reads the ``hello`` (exposing the session's pinned catalog
generation, and answering an auth challenge when the server demands
one), then issues synchronous requests.  Every ``result`` frame is
decoded back to the canonical value form and **re-checksummed
locally** against the worker's shipped sha1 — a checksum mismatch
raises :class:`~repro.errors.ProtocolError`, so a client never
silently consumes a corrupted or mis-encoded result.  ``error``
frames re-raise as the matching typed exception from
:mod:`repro.errors` (:class:`~repro.errors.ServerOverloadedError`,
:class:`~repro.errors.QueryTimeoutError`, ...).

Result payloads arrive as one binary frame after their JSON header:
raw little-endian column buffers, decoded zero-copy into read-only
ndarrays.  Replies are read through one
:class:`~repro.server.protocol.ReadAhead` stream per connection, so a
small reply's two frames cost one socket read; a reconnect starts a
fresh stream.

Resilience (opt-in via ``retries``)
-----------------------------------

Every request this protocol can express is an idempotent read
against a pinned catalog generation, so a lost reply is safe to ask
for again.  With ``retries=N`` the client transparently retries a
request up to N times when

* the transport dies (EOF, reset, torn frame, socket timeout) —
  surfaced as :class:`~repro.errors.ConnectionLostError`; the client
  reconnects (running the hello/auth handshake again; note the new
  session may pin a **newer generation**) and resends; or
* the server sheds load — :class:`~repro.errors.ServerOverloadedError`
  or its quota subclass; the client backs off (exponential + jitter)
  and resends on the same connection.

Each attempt carries a fresh unique request ``id`` which the server
echoes; a stale ``result`` frame from an abandoned attempt is
discarded instead of being mistaken for the current reply.  When the
budget runs out, :class:`~repro.errors.RetriesExhaustedError` chains
the final failure.  :class:`~repro.errors.ServerDrainingError` and
:class:`~repro.errors.AuthError` are deliberate refusals and are
never retried.
"""

import itertools
import random
import socket
import time

from .. import errors as _errors
from ..errors import (AuthError, ConnectionLostError, ProtocolError,
                      RetriesExhaustedError, ServerDrainingError,
                      ServerError, ServerOverloadedError)
from ..monet.multiproc import result_checksum
from .protocol import (ReadAhead, decode_value, encode_program, recv_frame,
                       send_frame)


class ClientReply:
    """One decoded result: the value plus its serving metadata."""

    __slots__ = ("value", "canonical", "checksum", "elapsed_ms",
                 "service_ms", "generation", "pid", "plan_cached",
                 "result_cached", "faults", "payload_bytes")

    def __init__(self, canonical, response):
        #: the canonical shipped form ({"kind": ...}-style)
        self.canonical = canonical
        #: the bare result: a scalar, a ``{name: value}`` MIL env, or —
        #: for a set of tuples — a :class:`~repro.moa.values.RowBatch`
        #: over the received column buffers, which is a sequence of
        #: ``Row`` (``len``, indexing, slicing, iteration, ``==`` with a
        #: row list) that builds each row only when asked for it
        self.value = _bare_value(canonical)
        self.checksum = response["checksum"]
        self.elapsed_ms = response.get("elapsed_ms")
        self.service_ms = response.get("service_ms")
        self.generation = response.get("generation")
        self.pid = response.get("pid")
        #: True when the worker served a cached MIL plan (moa only)
        self.plan_cached = response.get("plan_cached")
        #: True when the parent-side result cache answered
        self.result_cached = response.get("result_cached", False)
        #: simulated cold-start page faults of this execution; None
        #: unless the request asked with ``buffer_stats=True``
        self.faults = response.get("faults")
        #: byte length of the encoded payload
        self.payload_bytes = response.get("payload_bytes")

    def __repr__(self):
        return ("ClientReply(sha1=%s, gen=%s, %sms%s%s)"
                % (self.checksum[:10], self.generation,
                   self.service_ms,
                   ", plan_cached" if self.plan_cached else "",
                   ", result_cached" if self.result_cached else ""))


def _bare_value(canonical):
    if isinstance(canonical, dict):
        kind = canonical.get("kind")
        if kind == "value":
            return canonical["value"]
        if kind == "bat":
            return canonical
        # a MIL fetch env: {name: canonical}
        return {name: _bare_value(item)
                for name, item in canonical.items()}
    return canonical


class QueryClient:
    """A synchronous client for one server connection (= session).

    The catalog generation pinned at connect time is
    :attr:`generation`; every reply carries the generation it was
    served from.  Once the connection has had an answer that
    generation no longer changes — reconnect (explicitly, or
    implicitly through a retry after a lost connection) to observe a
    writer's bump.  The first answer may come from a newer generation
    than the hello's: a save landing before it re-pins the session
    (see :meth:`repro.server.service.QueryService._submit_pinned`).
    Every decoded result is re-checksummed against the shipped sha1.

    Parameters
    ----------
    connect_timeout:
        Seconds to establish the TCP connection (and, per frame, to
        complete the hello/auth handshake).
    auth_token:
        Shared secret presented when the server's hello demands auth.
    retries:
        Retry budget per request for lost connections and shed load
        (``0`` — the default — surfaces the first failure typed).
    backoff_base / backoff_max:
        Exponential backoff schedule between retries: attempt ``k``
        sleeps ``min(backoff_max, backoff_base * 2**(k-1))`` scaled
        by a uniform jitter in [0.5, 1.0].
    request_timeout:
        Socket timeout while awaiting a reply (``None`` = wait
        forever); an expiry counts as a lost connection, which a
        retry budget turns into reconnect-and-resend.
    """

    def __init__(self, host, port, connect_timeout=10.0,
                 auth_token=None, retries=0,
                 backoff_base=0.05, backoff_max=2.0,
                 request_timeout=None):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.auth_token = auth_token
        self.retries = max(0, int(retries))
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.request_timeout = request_timeout
        #: times the transport was re-established by the retry layer
        self.reconnects = 0
        #: retry attempts spent across all requests
        self.retries_used = 0
        #: cumulative frame bytes read off the socket (all replies)
        self.bytes_received = 0
        self._rng = random.Random()
        self._ids = itertools.count(1)
        self._id_prefix = "c%08x" % self._rng.getrandbits(32)
        self._sock = None
        self._stream = None
        self._connect()

    def _connect(self):
        """(Re-)establish the transport: TCP + hello/auth."""
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP,
                            socket.TCP_NODELAY, 1)
            hello = recv_frame(sock)
            if not isinstance(hello, dict):
                raise ProtocolError("no hello from server")
            if hello.get("type") == "error":
                raise _error_for(hello)
            if hello.get("type") != "hello":
                raise ProtocolError("unexpected first frame %r"
                                    % (hello,))
            if hello.get("auth_required"):
                if self.auth_token is None:
                    raise AuthError(
                        "server requires an auth token and none was "
                        "configured")
                send_frame(sock, {"type": "auth",
                                  "token": self.auth_token})
                hello = recv_frame(sock)
                if not isinstance(hello, dict):
                    raise ProtocolError("no hello after auth")
                if hello.get("type") == "error":
                    raise _error_for(hello)
                if hello.get("type") != "hello":
                    raise ProtocolError(
                        "unexpected post-auth frame %r" % (hello,))
        except BaseException:
            sock.close()
            raise
        sock.settimeout(self.request_timeout)
        self._sock = sock
        self._stream = ReadAhead(sock)
        #: wire protocol version the server speaks
        self.protocol = hello.get("protocol")
        #: catalog generation this session is pinned to
        self.generation = hello.get("generation")

    def _meter(self, nbytes):
        self.bytes_received += nbytes

    # ------------------------------------------------------------------
    def _next_id(self):
        return "%s-%d" % (self._id_prefix, next(self._ids))

    def _recv(self):
        """One frame; transport failures (EOF, reset, torn frame,
        timeout) raise :class:`~repro.errors.ConnectionLostError`."""
        try:
            frame = recv_frame(self._stream, meter=self._meter,
                               trusted=True)
        except socket.timeout as exc:
            raise ConnectionLostError(
                "timed out after %.3gs awaiting the reply"
                % self.request_timeout) from exc
        except OSError as exc:
            raise ConnectionLostError(
                "transport failed awaiting the reply: %s"
                % exc) from exc
        except ProtocolError as exc:
            raise ConnectionLostError(
                "reply could not be read: %s" % exc) from exc
        if frame is None:
            raise ConnectionLostError("server closed the connection")
        return frame

    def _recv_matching(self, rid):
        """The reply for request ``rid``.

        ``error`` frames raise typed regardless of id — an id-less
        error (e.g. the server's final drain frame) answers whatever
        is pending.  A ``result`` header is followed by its payload
        frame, which is read into ``payload``.  Stale
        ``result`` replies from an abandoned earlier attempt on this
        connection are discarded, payload frame included.
        """
        while True:
            response = self._recv()
            if response.get("type") == "error":
                raise _error_for(response)
            if response.get("type") == "result":
                response["payload"] = self._recv()
            if "id" in response and response["id"] != rid:
                continue            # stale reply of an abandoned try
            return response

    def _request_once(self, request):
        rid = self._next_id()
        stamped = dict(request)
        stamped["id"] = rid
        try:
            send_frame(self._sock, stamped)
        except OSError as exc:
            raise ConnectionLostError(
                "transport failed sending the request: %s"
                % exc) from exc
        return self._recv_matching(rid)

    def _backoff(self, attempt):
        pause = min(self.backoff_max,
                    self.backoff_base * (2.0 ** (attempt - 1)))
        if pause > 0.0:
            time.sleep(pause * (0.5 + 0.5 * self._rng.random()))

    def _request(self, request):
        attempts = 0
        while True:
            try:
                return self._request_once(request)
            except (ConnectionLostError,
                    ServerOverloadedError) as exc:
                # never retry a deliberate refusal to serve
                if isinstance(exc, ServerDrainingError):
                    raise
                if attempts >= self.retries:
                    if self.retries > 0:
                        raise RetriesExhaustedError(
                            "request failed after %d attempts: %s"
                            % (attempts + 1, exc),
                            attempts=attempts + 1) from exc
                    raise
                attempts += 1
                self.retries_used += 1
                self._backoff(attempts)
                if isinstance(exc, ConnectionLostError):
                    try:
                        self._sock.close()
                    except OSError:
                        pass
                    # the fresh session may pin a newer generation
                    self._connect()
                    self.reconnects += 1

    def _result(self, request, timeout=None, buffer_stats=False):
        if timeout is not None:
            request["timeout"] = timeout
        if buffer_stats:
            request["buffer_stats"] = True
        response = self._request(request)
        if response.get("type") != "result":
            raise ProtocolError("expected a result frame, got %r"
                                % (response.get("type"),))
        canonical = decode_value(response["payload"])
        if result_checksum(canonical) != response["checksum"]:
            raise ProtocolError(
                "shipped payload does not match its sha1 checksum "
                "(%s)" % response["checksum"])
        return ClientReply(canonical, response)

    # ------------------------------------------------------------------
    # request types
    #
    # Every executable request takes ``timeout`` (seconds, server-side
    # kill of an overdue query) and ``buffer_stats``: True makes the
    # worker simulate this execution's page faults from a cold start
    # and fills :attr:`ClientReply.faults` (the result cache is
    # bypassed); by default nothing is simulated and it stays None.
    # ------------------------------------------------------------------
    def moa(self, query_text, timeout=None, buffer_stats=False):
        """Execute a textual MOA query; returns a :class:`ClientReply`."""
        return self._result({"type": "moa", "query": query_text},
                            timeout, buffer_stats)

    def sql(self, query_text, timeout=None, buffer_stats=False):
        """Execute SQL text through the server's SQL front-end
        (parse -> bind -> lower to the same MIL pipeline as ``moa``);
        returns a :class:`ClientReply`.  Malformed text answers a
        typed :class:`~repro.errors.SqlParseError`, an unsupported
        construct a :class:`~repro.errors.SqlUnsupportedError` —
        neither is retryable, and the connection survives both."""
        return self._result({"type": "sql", "query": query_text},
                            timeout, buffer_stats)

    def mil(self, program, fetch, timeout=None, buffer_stats=False):
        """Execute a :class:`~repro.monet.mil.MILProgram`; the reply
        value maps each name in ``fetch`` to its result."""
        return self._result(
            {"type": "mil", "program": encode_program(program),
             "fetch": list(fetch)}, timeout, buffer_stats)

    def stats(self):
        """The server's aggregate stats dict."""
        response = self._request({"type": "stats"})
        if response.get("type") != "stats":
            raise ProtocolError("expected a stats frame")
        return response["stats"]

    def ping(self):
        """Liveness check; returns the session's pinned generation."""
        response = self._request({"type": "ping"})
        if response.get("type") != "pong":
            raise ProtocolError("expected a pong frame")
        return response["generation"]

    # ------------------------------------------------------------------
    def close(self):
        try:
            send_frame(self._sock, {"type": "close"})
        except OSError:
            pass
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, _exc_type, _exc, _tb):
        self.close()


def _error_for(response):
    """The typed exception for an ``error`` frame."""
    name = response.get("error", "ServerError")
    message = response.get("message", "")
    cls = getattr(_errors, str(name), None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = ServerError
    return cls("%s (from server)" % message)
