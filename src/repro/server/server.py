"""The socket front-end: one listener, one thread per connection.

Each accepted connection becomes a :class:`~repro.server.service.
Session` (pinning the catalog generation current at accept time) and
receives a ``hello`` frame carrying that generation.  A save landing
before the session's first answer re-pins it once, so that answer and
every later one come from the newer generation; each ``result``
carries the generation it was served from.  The connection then
speaks a strict request/response protocol — one frame in, one
frame out — over :mod:`repro.server.protocol` framing:

================  ====================================================
request type       response
================  ====================================================
``moa``            ``result`` (rows/scalar + sha1 checksum)
``sql``            ``result`` for SQL text (parse -> bind -> lower)
``mil``            ``result`` ``{name: value}`` for the fetch list
``stats``          ``stats`` (latency percentiles, cache hit rates...)
``ping``           ``pong`` (generation echo, liveness)
``close``          connection shut down cleanly
================  ====================================================

The three executable requests (``moa``/``sql``/``mil``) take two
optional fields: ``timeout`` (``null`` or a finite number of seconds
> 0) and ``buffer_stats`` (boolean).  Page-fault simulation is
pay-per-use: a ``result`` frame carries ``faults`` only when its
request set ``buffer_stats`` — the count is that one execution's,
simulated from a cold start.

Requests and control frames are JSON.  A ``result`` reply is its JSON
header frame followed by the payload as one binary frame: the bytes
the worker encoded (see :mod:`repro.server.protocol`), forwarded
without being decoded here.

Failures never tear the connection: any :class:`~repro.errors.
ReproError` — a plan the worker's verifier refused included
(:class:`~repro.errors.PlanVerificationError`, or
:class:`~repro.errors.PlanBudgetExceededError` over the service's
budget) — becomes an ``error`` frame ``{"error": <class name>,
"message": ..., "retryable": bool}`` the client re-raises as the
matching typed exception (the ``retryable`` bit is the server-side
:data:`~repro.errors.RETRYABLE` verdict, for clients that do not
know the class).  Only protocol-level corruption (undecodable frame) closes
the socket — and even an oversized frame is answered with a typed
:class:`~repro.errors.FrameTooLargeError` frame before the hang-up.

Hardening knobs (all off by default):

* ``auth_token`` — the hello announces ``auth_required`` and the
  first client frame must be ``{"type": "auth", "token": ...}``;
  a wrong or missing token earns an :class:`~repro.errors.AuthError`
  frame and a closed socket, before any session (or worker pool)
  is allocated;
* ``quota_rps``/``quota_burst`` — a per-connection token bucket over
  executable requests; an exhausted bucket answers
  :class:`~repro.errors.QuotaExceededError` but keeps the connection;
* :meth:`QueryServer.drain` — graceful shutdown: stop accepting,
  finish in-flight requests up to a deadline, answer anything newly
  submitted (and any straggler still running at the deadline) with a
  typed :class:`~repro.errors.ServerDrainingError` frame.
"""

import hmac
import os
import socket
import threading
import time
import weakref

from .. import faults
from ..errors import (AuthError, FrameTooLargeError, InjectedFaultError,
                      ProtocolError, QuotaExceededError, ReproError,
                      ServerDrainingError, is_retryable)
from .protocol import recv_frame, send_frame, send_reply


def _error_frame(exc):
    """The typed ``error`` frame for ``exc``.

    Carries the exception class name (the client re-raises the
    matching type) and the server's retryability verdict from the
    :data:`~repro.errors.RETRYABLE` taxonomy, so even a client that
    does not know the class can still decide whether resubmitting the
    identical request can ever succeed.
    """
    return {"type": "error", "error": type(exc).__name__,
            "message": str(exc), "retryable": is_retryable(exc)}

#: Bump when the frame/request shape changes incompatibly.
PROTOCOL_VERSION = 3

#: Pending connections the listener queues before refusing more.
LISTEN_BACKLOG = 64

#: Seconds an unauthenticated connection gets to present its token
#: (bounds the slow-loris surface of the auth handshake).
AUTH_TIMEOUT = 10.0

#: Chaos injection points of the serving loop (see :mod:`repro.
#: faults`): ``handle.delay`` stalls a request before execution
#: (drives drain/straggler and client-timeout paths), ``reply.drop``
#: swallows one reply (the connection stays up, the client never
#: hears back), ``reply.reset`` hangs up instead of replying.
faults.declare("server.handle.delay", "server.reply.drop",
               "server.reply.reset")

#: Request types that execute work (and are subject to quotas and
#: draining); ``ping``/``stats``/``close`` stay exempt so liveness
#: checks keep answering under load and during drain.
EXECUTABLE_TYPES = frozenset(("moa", "sql", "mil"))


class _TokenBucket:
    """Per-connection request-rate limiter (quota_rps > 0)."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate, burst):
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = self.burst
        self._stamp = time.monotonic()

    def take(self):
        now = time.monotonic()
        self._tokens = min(
            self.burst,
            self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens < 1.0:
            return False
        self._tokens -= 1.0
        return True


class QueryServer:
    """Serves a :class:`~repro.server.service.QueryService` over TCP.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  The server owns only sockets and threads — the
    service (pools, caches, admission) is injected and may outlive it.
    """

    def __init__(self, service, host="127.0.0.1", port=0,
                 auth_token=None, quota_rps=0.0, quota_burst=None):
        self.service = service
        self.host = host
        self.port = port
        #: shared secret every connection must present (None = open)
        self.auth_token = auth_token
        #: sustained executable requests/second per connection
        #: (0 = unlimited); burst defaults to max(1, quota_rps)
        self.quota_rps = float(quota_rps or 0.0)
        self.quota_burst = quota_burst
        self._sock = None
        self._address = None
        self._fork_hook_registered = False
        self._accept_thread = None
        self._conns = []             # [(thread, socket)] still live
        self._conn_lock = threading.Lock()
        self._running = False
        self._draining = False
        #: executable requests being handled or replied to (drain
        #: waits on this falling to zero)
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ------------------------------------------------------------------
    @property
    def address(self):
        """``(host, port)`` actually bound (after :meth:`start`);
        stays readable after the listener closes (stop/drain)."""
        return self._address

    def start(self):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self.host, self.port))
        self._address = self._sock.getsockname()[:2]
        self._sock.listen(LISTEN_BACKLOG)
        # fork-based worker pools inherit the listening fd; without
        # this, the kernel keeps completing handshakes on the port
        # after stop()/drain() for as long as any worker lives (the
        # new connections just never get accepted).  Close the
        # inherited copy in every forked child.
        if not self._fork_hook_registered:
            self._fork_hook_registered = True
            ref = weakref.ref(self)

            def _close_inherited_listener():
                server = ref()
                if server is not None and server._sock is not None:
                    try:
                        server._sock.close()
                    except OSError:
                        pass

            os.register_at_fork(after_in_child=_close_inherited_listener)
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True)
        self._accept_thread.start()
        return self

    def _accept_loop(self):
        while self._running:
            try:
                conn, _peer = self._sock.accept()
            except OSError:
                break                       # listener closed: stopping
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="serve-conn", daemon=True)
            with self._conn_lock:
                self._conns = [(t, c) for t, c in self._conns
                               if t.is_alive()]
                self._conns.append((thread, conn))
            thread.start()

    def _send_error(self, conn, exc, request=None):
        """Best-effort typed ``error`` frame for ``exc``."""
        error = _error_frame(exc)
        if request is not None and "id" in request:
            error["id"] = request["id"]
        try:
            send_frame(conn, error)
        except OSError:
            pass

    def _authenticate(self, conn):
        """Run the shared-secret handshake; True when authenticated.

        Runs *before* any session (hence worker pool) is allocated,
        so unauthenticated peers cannot spend server resources, and
        under a socket deadline so they cannot park the thread.
        """
        try:
            conn.settimeout(AUTH_TIMEOUT)
            send_frame(conn, {"type": "hello",
                              "protocol": PROTOCOL_VERSION,
                              "auth_required": True})
            frame = recv_frame(conn)
        except (OSError, ProtocolError):
            conn.close()
            return False
        token = frame.get("token") if isinstance(frame, dict) else None
        if not (isinstance(frame, dict) and frame.get("type") == "auth"
                and isinstance(token, str)
                and hmac.compare_digest(token, self.auth_token)):
            self.service.count("auth_failures")
            self._send_error(conn, AuthError("bad or missing token"))
            conn.close()
            return False
        conn.settimeout(None)
        return True

    def _serve_connection(self, conn):
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.auth_token is not None and not self._authenticate(conn):
            return
        try:
            session = self.service.session()
        except ReproError as exc:
            self._send_error(conn, exc)
            conn.close()
            return
        bucket = None
        if self.quota_rps > 0.0:
            burst = self.quota_burst
            if burst is None:
                burst = max(1.0, self.quota_rps)
            bucket = _TokenBucket(self.quota_rps, burst)
        try:
            send_frame(conn, {"type": "hello",
                              "protocol": PROTOCOL_VERSION,
                              "generation": session.generation,
                              "procs": self.service.procs})
            while self._running:
                try:
                    request = recv_frame(conn)
                except FrameTooLargeError as exc:
                    # answer oversize with a typed frame, then hang
                    # up: the offending frame's bytes are unread, so
                    # the stream cannot be resynchronised
                    self._send_error(conn, exc)
                    break
                except ProtocolError:
                    break                    # corrupt frame: hang up
                if request is None or not isinstance(request, dict):
                    break
                rtype = request.get("type")
                if rtype == "close":
                    break
                # an executable request stays in flight until its
                # reply is out, so a drain never overtakes a reply
                executable = rtype in EXECUTABLE_TYPES
                if executable:
                    with self._inflight_cv:
                        self._inflight += 1
                try:
                    keep = self._reply(conn, session, request, rtype,
                                       bucket)
                finally:
                    if executable:
                        with self._inflight_cv:
                            self._inflight -= 1
                            self._inflight_cv.notify_all()
                if not keep:
                    break
        except OSError:
            pass                             # peer vanished mid-frame
        finally:
            session.close()
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def _reply(self, conn, session, request, rtype, bucket):
        """Answer one request; False when the connection must close.

        A ``result`` response carries its payload as ``body``: the
        bytes the worker encoded, sent as they are — one binary frame
        after the JSON header frame.  Everything else (errors, stats,
        pongs) is one JSON frame.
        """
        response = self._respond(session, request, rtype, bucket)
        if "id" in request:
            response["id"] = request["id"]
        try:
            faults.fire("server.reply.drop")
        except InjectedFaultError:
            return True           # reply swallowed: client retries
        try:
            faults.fire("server.reply.reset")
        except InjectedFaultError:
            return False          # connection reset before reply
        body = response.pop("body", None)
        try:
            if body is None:
                send_frame(conn, response)
            else:
                send_reply(conn, response, body)
        except ProtocolError as exc:
            # an unshippable (oversized) result still answers with a
            # typed error frame — never a torn socket
            self._send_error(conn, exc, request)
        return True

    def _respond(self, session, request, rtype, bucket):
        """Policy wrapper around :meth:`_handle`: drain + quota."""
        if rtype in EXECUTABLE_TYPES:
            if self._draining:
                exc = ServerDrainingError(
                    "server is draining; not accepting new work")
                self.service.count("drain_rejections")
                return _error_frame(exc)
            if bucket is not None and not bucket.take():
                exc = QuotaExceededError(
                    "per-connection quota of %.3g requests/s exceeded"
                    % self.quota_rps)
                self.service.count("quota_rejections")
                return _error_frame(exc)
        return self._handle(session, request)

    def _handle(self, session, request):
        rtype = request.get("type")
        if rtype == "ping":
            return {"type": "pong", "generation": session.generation}
        if rtype == "stats":
            return {"type": "stats", "stats": self.service.stats()}
        try:
            faults.fire("server.handle.delay")
            return session.execute(request)
        except Exception as exc:        # noqa: BLE001 — error frame
            # a failing request must answer, never tear the
            # connection: ReproErrors keep their class name (the
            # client re-raises the matching type), anything else
            # degrades to a generic ServerError on the client side
            self.service.count_error(exc)
            return _error_frame(exc)

    # ------------------------------------------------------------------
    def drain(self, timeout=5.0):
        """Graceful shutdown: finish in-flight work, then stop.

        Closes the listener (no new connections), answers newly
        submitted executable requests with typed
        :class:`~repro.errors.ServerDrainingError` frames, waits up
        to ``timeout`` seconds for requests already executing to
        finish, then sends a best-effort id-less drain-error frame to
        every connection still open (a client parked on a reply sees
        the typed error, not a silent hang-up) and calls
        :meth:`stop`.  Returns True when the server drained fully
        within the deadline.
        """
        self._draining = True
        self._close_listener()
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cv.wait(remaining)
            drained = self._inflight == 0
        with self._conn_lock:
            conns = [conn for thread, conn in self._conns
                     if thread.is_alive()]
        exc = ServerDrainingError("server shut down while draining")
        for conn in conns:
            # stragglers (and idle clients) get a final typed frame;
            # id-less, so a pending request treats it as its answer
            self._send_error(conn, exc)
        self.stop()
        return drained

    def _close_listener(self):
        """Tear the listener down immediately.

        ``close()`` alone is not enough: the accept thread is blocked
        inside ``accept()``, and on Linux that in-flight syscall keeps
        the socket alive — the port stays in LISTEN and the *next*
        connect still succeeds.  ``shutdown()`` first wakes the
        blocked ``accept()`` and removes the LISTEN state at once.
        """
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass

    def stop(self):
        """Stop accepting, close every connection, join the threads."""
        self._running = False
        self._close_listener()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._conn_lock:
            conns = list(self._conns)
        for _thread, conn in conns:
            # unblock handlers parked in recv_frame: their recv
            # returns EOF/EBADF and the session closes cleanly
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for thread, _conn in conns:
            thread.join(timeout=5.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, _exc_type, _exc, _tb):
        self.stop()
