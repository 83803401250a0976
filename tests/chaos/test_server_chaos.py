"""End-to-end resilience: faults on the wire and in the server.

A live :class:`QueryServer` on an ephemeral port, with faults
injected into the reply path, the worker pool, and the connection
lifecycle.  The contract throughout: a client request either returns
a checksum-verified result (possibly after transparent retries) or
raises a **typed** exception — never a wrong answer, a silent hang,
or an undecodable torn stream.
"""

import socket
import struct
import threading
import time
import tracemalloc

import pytest

from repro import faults
from repro.errors import (AuthError, ConnectionLostError,
                          FrameTooLargeError, InjectedFaultError,
                          ProtocolError, QuotaExceededError,
                          RetriesExhaustedError, ServerDrainingError,
                          ServerOverloadedError)
from repro.server import (MAX_FRAME_BYTES, QueryClient, QueryServer,
                          QueryService, recv_frame, send_frame)
from repro.sql.suite import sql_text
from repro.tpcd import load_tpcd, open_tpcd, save_tpcd

from chaos_utils import HAVE_FORK, wide_value

pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="server tests fork worker pools")


def _client(server, **kwargs):
    host, port = server.address
    return QueryClient(host, port, **kwargs)


@pytest.fixture(scope="module")
def server(db_dir):
    service = QueryService(db_dir, procs=1)
    with QueryServer(service) as srv:
        yield srv
    service.close()


def test_chaos_suite_covers_every_declared_point():
    """Every declared injection point is swept somewhere in this
    suite; instrumenting a new site fails here until covered."""
    covered = {
        # tests/chaos/test_storage_chaos.py
        "storage.save.begin", "storage.save.heaps_written",
        "storage.save.manifest_written", "storage.write_array.torn",
        "storage.write_array.staged", "storage.write_array.synced",
        "storage.write_array.renamed", "storage.manifest.torn",
        "storage.manifest.staged", "storage.manifest.synced",
        "storage.manifest.renamed",
        # tests/chaos/test_multiproc_chaos.py
        "multiproc.task.start", "multiproc.task.mid",
        "multiproc.task.post_result",
        # this module (the two send points on the worker hop too, in
        # tests/chaos/test_multiproc_chaos.py)
        "protocol.send.reset", "protocol.send.torn",
        "protocol.recv.delay", "server.handle.delay",
        "server.reply.drop", "server.reply.reset",
        "service.session.fork",
    }
    assert set(faults.registered_points()) == covered


# ----------------------------------------------------------------------
# wire-level faults (socketpair: no server needed)
# ----------------------------------------------------------------------
def test_send_reset_fires_before_any_bytes():
    left, right = socket.socketpair()
    try:
        with faults.use(faults.FaultPlan().arm("protocol.send.reset")):
            with pytest.raises(InjectedFaultError):
                send_frame(left, {"type": "ping"})
        left.close()
        assert recv_frame(right) is None     # clean EOF: no bytes sent
    finally:
        right.close()


def test_torn_frame_is_detected_not_decoded():
    left, right = socket.socketpair()
    try:
        plan = faults.FaultPlan().arm("protocol.send.torn",
                                      action="tear", fraction=0.5)
        with faults.use(plan):
            with pytest.raises(InjectedFaultError):
                send_frame(left, {"type": "result",
                                  "payload": list(range(64))})
        left.close()
        # the receiver sees a mid-frame truncation, typed — it can
        # never mistake half a frame for a whole one
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        right.close()


def test_recv_delay_stalls_the_receive_path():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"type": "pong"})
        plan = faults.FaultPlan().arm("protocol.recv.delay",
                                      action="delay", delay_s=0.2)
        with faults.use(plan):
            started = time.monotonic()
            assert recv_frame(right) == {"type": "pong"}
            assert time.monotonic() - started >= 0.2
    finally:
        left.close()
        right.close()


def test_oversize_frame_answered_with_typed_error(server):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10.0)
    try:
        hello = recv_frame(sock)
        assert hello["type"] == "hello"
        # announce a frame just past the cap; the body never follows
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        reply = recv_frame(sock)
        assert reply["type"] == "error"
        assert reply["error"] == "FrameTooLargeError"
        assert recv_frame(sock) is None      # then the server hangs up
    finally:
        sock.close()
    # and the QueryClient surface raises it typed
    with _client(server) as client:
        assert issubclass(FrameTooLargeError, ProtocolError)
        assert client.ping() == client.generation    # server healthy


def test_torn_binary_frame_is_detected_not_decoded():
    import numpy as np

    from repro.server import encode_binary_message, send_binary_frame
    left, right = socket.socketpair()
    try:
        plan = faults.FaultPlan().arm("protocol.send.torn",
                                      action="tear", fraction=0.5)
        body = encode_binary_message({"kind": "value",
                                      "value": np.arange(4096)})
        with faults.use(plan):
            with pytest.raises(InjectedFaultError):
                send_binary_frame(left, body)
        left.close()
        # half a binary frame is as undecodable as half a JSON one
        with pytest.raises(ProtocolError):
            recv_frame(right)
    finally:
        right.close()


def test_torn_wide_reply_is_detected_not_decoded():
    """The reply's frames go out as one gather write of separate
    buffers; a tear still cuts them at a byte, not at a buffer."""
    from repro.server import encode_binary_message, send_reply
    body = memoryview(bytearray(
        encode_binary_message(wide_value()))).toreadonly()
    left, right = socket.socketpair()
    received = {}

    def reader():
        try:
            received["header"] = recv_frame(right)
            recv_frame(right)
        except ProtocolError as exc:
            received["error"] = exc

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        plan = faults.FaultPlan().arm("protocol.send.torn",
                                      action="tear", fraction=0.5)
        with faults.use(plan):
            with pytest.raises(InjectedFaultError):
                send_reply(left, {"type": "result"}, body)
        left.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        # the header frame arrived whole, the body frame torn: typed
        assert received["header"] == {"type": "result"}
        assert isinstance(received["error"], ProtocolError)
    finally:
        right.close()


def test_oversize_binary_frame_answered_with_typed_error(server):
    from repro.server import protocol as proto
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=10.0)
    try:
        hello = recv_frame(sock)
        assert hello["type"] == "hello"
        # an oversize announcement with the binary flag bit set is
        # refused before any allocation, same as the JSON path
        word = proto._BINARY_FLAG | (MAX_FRAME_BYTES + 1)
        sock.sendall(struct.pack(">I", word))
        reply = recv_frame(sock)
        assert reply["type"] == "error"
        assert reply["error"] == "FrameTooLargeError"
        assert recv_frame(sock) is None
    finally:
        sock.close()
    # the next client still round-trips fine afterwards
    with _client(server) as client:
        assert client.ping() == client.generation


def test_binary_client_retries_through_reply_faults(
        server, serial_checksums):
    plan = faults.FaultPlan().arm("server.reply.reset", times=1)
    with faults.use(plan):
        with _client(server, retries=3,
                     backoff_base=0.01) as client:
            reply = client.sql(sql_text(6))
            assert reply.checksum == serial_checksums[6]
            assert client.retries_used >= 1


# ----------------------------------------------------------------------
# client retry/backoff through reply-path faults
# ----------------------------------------------------------------------
def test_client_retries_through_dropped_reply(server, serial_checksums):
    plan = faults.FaultPlan().arm("server.reply.drop", times=1)
    client = _client(server, retries=2, backoff_base=0.01,
                     request_timeout=1.0)
    try:
        with faults.use(plan):
            reply = client.sql(sql_text(6))
        assert reply.checksum == serial_checksums[6]
        assert plan.fired("server.reply.drop") == 1
        assert client.retries_used == 1
        assert client.reconnects == 1        # timeout => reconnect
    finally:
        client.close()


def test_client_retries_through_connection_reset(server,
                                                 serial_checksums):
    plan = faults.FaultPlan().arm("server.reply.reset", times=1)
    client = _client(server, retries=2, backoff_base=0.01)
    try:
        with faults.use(plan):
            reply = client.sql(sql_text(12))
        assert reply.checksum == serial_checksums[12]
        assert client.reconnects == 1
    finally:
        client.close()


def test_retries_exhausted_is_typed_and_chains_the_cause(server):
    plan = faults.FaultPlan().arm("server.reply.reset", times=None)
    client = _client(server, retries=2, backoff_base=0.01)
    try:
        with faults.use(plan):
            with pytest.raises(RetriesExhaustedError) as info:
                client.sql(sql_text(6))
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, ConnectionLostError)
    finally:
        client.close()


def test_zero_retries_surfaces_the_underlying_error(server):
    plan = faults.FaultPlan().arm("server.reply.reset", times=1)
    client = _client(server)                 # retries=0: the default
    try:
        with faults.use(plan):
            with pytest.raises(ConnectionLostError) as info:
                client.sql(sql_text(6))
        assert not isinstance(info.value, RetriesExhaustedError)
    finally:
        client.close()


# ----------------------------------------------------------------------
# quotas
# ----------------------------------------------------------------------
def test_quota_exceeded_is_typed_and_connection_survives(db_dir):
    service = QueryService(db_dir, procs=1)
    server = QueryServer(service, quota_rps=0.5, quota_burst=1)
    server.start()
    try:
        with _client(server) as client:
            client.sql(sql_text(6))          # burst token spent
            with pytest.raises(QuotaExceededError):
                client.sql(sql_text(6))
            assert client.ping() == client.generation   # exempt
            assert isinstance(QuotaExceededError(""),
                              ServerOverloadedError)
            stats = client.stats()           # exempt too
        assert stats["counters"]["quota_rejections"] >= 1
    finally:
        server.stop()
        service.close()


def test_retrying_client_rides_out_the_quota(db_dir, serial_checksums):
    service = QueryService(db_dir, procs=1)
    server = QueryServer(service, quota_rps=5.0, quota_burst=1)
    server.start()
    try:
        client = _client(server, retries=8, backoff_base=0.1,
                         backoff_max=0.5)
        try:
            for number in (6, 6, 6):
                assert client.sql(sql_text(number)).checksum == \
                    serial_checksums[number]
            assert client.retries_used >= 1      # backoff did work
            assert client.reconnects == 0        # same connection
        finally:
            client.close()
    finally:
        server.stop()
        service.close()


# ----------------------------------------------------------------------
# auth
# ----------------------------------------------------------------------
def test_auth_token_gate(db_dir, serial_checksums):
    service = QueryService(db_dir, procs=1)
    server = QueryServer(service, auth_token="open-sesame")
    server.start()
    try:
        host, port = server.address
        with pytest.raises(AuthError):
            QueryClient(host, port)              # no token configured
        with pytest.raises(AuthError):
            QueryClient(host, port, auth_token="wrong")
        with QueryClient(host, port,
                         auth_token="open-sesame") as client:
            assert client.generation is not None
            assert client.sql(sql_text(6)).checksum == serial_checksums[6]
            stats = client.stats()
        # two failed handshakes: the token-less client hung up at the
        # challenge, the wrong-token client was refused
        assert stats["counters"]["auth_failures"] == 2
    finally:
        server.stop()
        service.close()


def test_announced_frame_costs_the_server_nothing_before_its_bytes(db_dir):
    """A peer that announces a frame just under the cap at the
    handshake and then sends nothing: the server, parked reading it,
    must not have allocated the announced size."""
    service = QueryService(db_dir, procs=1)
    server = QueryServer(service, auth_token="open-sesame")
    server.start()
    peer = socket.create_connection(server.address)
    tracemalloc.start()
    try:
        assert recv_frame(peer)["type"] == "hello"
        before, _peak = tracemalloc.get_traced_memory()
        peer.sendall(struct.pack(">I", MAX_FRAME_BYTES - 1))
        time.sleep(0.5)                  # the handler reads the word
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        peer.close()
        server.stop()
        service.close()
    assert after - before < 16 << 20
    assert peak - before < 16 << 20


# ----------------------------------------------------------------------
# degraded mode: crash-retry in the service
# ----------------------------------------------------------------------
def test_service_resubmits_over_one_crash_transparently(
        db_dir, serial_checksums):
    # each worker crashes on its second task (skip=1): the client's
    # second request crashes its worker, the service resubmits to the
    # respawned one (hit 1: skipped) and the reply still verifies
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="crash", skip=1)
    service = QueryService(db_dir, procs=1, fault_plan=plan,
                           result_cache_bytes=0)
    server = QueryServer(service)
    server.start()
    try:
        with _client(server) as client:
            assert client.sql(sql_text(1)).checksum == serial_checksums[1]
            assert client.sql(sql_text(6)).checksum == serial_checksums[6]
            stats = client.stats()
        assert stats["counters"]["crash_retries"] >= 1
        assert stats["counters"]["errors"] == 0
    finally:
        server.stop()
        service.close()


def test_pool_stuck_respawning_degrades_typed(db_dir):
    # every task of every worker crashes: the resubmit budget runs
    # out and the service degrades to ServerOverloadedError
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="crash", times=None)
    service = QueryService(db_dir, procs=1, fault_plan=plan,
                           result_cache_bytes=0)
    server = QueryServer(service)
    server.start()
    try:
        with _client(server) as client:
            with pytest.raises(ServerOverloadedError):
                client.sql(sql_text(6))
            stats = client.stats()
        assert stats["counters"]["crash_retries"] >= 1
        assert stats["counters"]["overloads"] >= 1
    finally:
        server.stop()
        service.close()


# ----------------------------------------------------------------------
# graceful drain
# ----------------------------------------------------------------------
def test_drain_finishes_stragglers_and_refuses_new_work(
        db_dir, serial_checksums):
    service = QueryService(db_dir, procs=1)
    server = QueryServer(service)
    server.start()
    straggler = {}
    try:
        early = _client(server)
        bystander = _client(server)
        early.sql(sql_text(6))               # pool warm

        plan = faults.FaultPlan().arm("server.handle.delay",
                                      action="delay", delay_s=0.8)

        def slow_request():
            try:
                straggler["reply"] = early.sql(sql_text(12))
            except BaseException as exc:     # noqa: BLE001
                straggler["error"] = exc

        with faults.use(plan):
            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.25)                 # request is in-flight
            drained = server.drain(timeout=10.0)
            thread.join(timeout=30)
        # the in-flight request finished inside the drain window...
        assert drained is True
        assert straggler["reply"].checksum == serial_checksums[12]
        # ...while new work was refused typed, and new connections
        # are no longer accepted
        with pytest.raises(ServerDrainingError):
            bystander.sql(sql_text(6))
        host, port = server.address
        with pytest.raises((ConnectionError, OSError)):
            socket.create_connection((host, port), timeout=0.5)
        early.close()
        bystander.close()
    finally:
        server.stop()
        service.close()


def test_drain_deadline_sends_typed_error_to_stragglers(db_dir):
    service = QueryService(db_dir, procs=1)
    server = QueryServer(service)
    server.start()
    straggler = {}
    try:
        client = _client(server)
        client.sql(sql_text(6))              # pool warm
        plan = faults.FaultPlan().arm("server.handle.delay",
                                      action="delay", delay_s=3.0)

        def slow_request():
            try:
                straggler["reply"] = client.sql(sql_text(12))
            except BaseException as exc:     # noqa: BLE001
                straggler["error"] = exc

        with faults.use(plan):
            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.25)
            drained = server.drain(timeout=0.2)
            thread.join(timeout=30)
        assert drained is False
        # the straggler was not left hanging on a torn socket: it got
        # the server's final typed drain frame
        assert isinstance(straggler.get("error"), ServerDrainingError)
        client.close()
    finally:
        server.stop()
        service.close()


# ----------------------------------------------------------------------
# a save racing a new session's pool
# ----------------------------------------------------------------------
def test_save_between_session_read_and_fork_serves_the_newer_generation(
        tiny_tpcd, tmp_path, serial_checksums):
    """A writer saving while a new session forks its pool pins the
    session to the generation it has just pruned.  The session's
    first request meets CatalogChangedError in the worker, so the
    service re-pins the session, which has no answer yet, once to the
    generation on disk and runs the request there."""
    db_dir = tmp_path / "db"
    load_tpcd(tiny_tpcd, db_dir=db_dir)
    plan = faults.FaultPlan().arm("service.session.fork",
                                  action="delay", delay_s=1.0)
    saved = threading.Event()

    def writer():
        while not plan.fired("service.session.fork"):
            time.sleep(0.005)
        db, _report = open_tpcd(db_dir)
        save_tpcd(db, db_dir)
        saved.set()

    service = QueryService(db_dir, procs=1)
    try:
        thread = threading.Thread(target=writer)
        with faults.use(plan):
            thread.start()
            session = service.session()
        thread.join(timeout=30)
        # the save finished inside the window, before the fork
        assert saved.is_set()
        with session:
            # without the re-pin: CatalogChangedError here, from the worker
            # opening a generation whose files the save had pruned
            response = session.execute({"type": "sql",
                                        "query": sql_text(6)})
        assert session.generation == response["generation"] == 2
        assert response["checksum"] == serial_checksums[6]
        assert service.pool_generations() == [2]
        assert service.stats()["counters"]["session_repins"] == 1
    finally:
        service.close()


def test_save_between_session_and_first_open_serves_the_newer_generation(
        tiny_tpcd, tmp_path, serial_checksums):
    """The last window of the race above: a save landing after
    ``session()`` re-checked the generation, but before the new pool's
    workers first map the catalog (lazily, at their first task),
    prunes the files they would map.  The session had no answer at the
    old generation yet, so its first request re-pins it to the new one
    and runs once more instead of failing with CatalogChangedError."""
    db_dir = tmp_path / "db"
    load_tpcd(tiny_tpcd, db_dir=db_dir)
    service = QueryService(db_dir, procs=1)
    try:
        with service.session() as session:
            assert session.generation == 1
            db, _report = open_tpcd(db_dir)
            save_tpcd(db, db_dir)
            response = session.execute({"type": "sql",
                                        "query": sql_text(6)})
            assert session.generation == response["generation"] == 2
            assert response["checksum"] == serial_checksums[6]
        assert service.stats()["counters"]["session_repins"] == 1
        assert service.pool_generations() == [2]
    finally:
        service.close()


def test_a_session_with_an_answer_keeps_its_generation(
        tiny_tpcd, tmp_path, serial_checksums):
    """Only a session with no answer yet moves: once its workers have
    mapped the catalog, a later save is invisible to it."""
    db_dir = tmp_path / "db"
    load_tpcd(tiny_tpcd, db_dir=db_dir)
    service = QueryService(db_dir, procs=1)
    try:
        with service.session() as session:
            first = session.execute({"type": "sql", "query": sql_text(6)})
            db, _report = open_tpcd(db_dir)
            save_tpcd(db, db_dir)
            second = session.execute({"type": "sql",
                                      "query": sql_text(14)})
            assert first["generation"] == second["generation"] \
                == session.generation == 1
            assert second["checksum"] == serial_checksums[14]
        assert service.stats()["counters"]["session_repins"] == 0
    finally:
        service.close()
