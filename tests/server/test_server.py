"""Live query-service tests: sockets, concurrency, caches, pinning.

A real :class:`QueryServer` runs on an ephemeral localhost port over
a saved tiny TPC-D catalog; clients connect over TCP exactly like the
CLI would.  The core contract everywhere: a served result's sha1
checksum equals serial execution of the same query (the client
re-verifies each decoded payload against the shipped digest on its
own, so every assertion below rides on verified payloads).
"""

import multiprocessing
import pathlib
import runpy
import threading
import time

import pytest

from repro import faults
from repro.errors import (ProtocolError, QueryTimeoutError,
                          ServerError, ServerOverloadedError,
                          SqlParseError)
from repro.monet import MILProgram, MonetKernel, Var
from repro.monet.multiproc import (result_checksum, run_program_serial,
                                   ship_value)
from repro.server import QueryClient, QueryServer, QueryService
from repro.server.protocol import (decode_binary_message, decode_value,
                                   encode_binary_message, encode_program)
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES, load_tpcd, open_tpcd
from repro.tpcd.loader import save_tpcd

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="server tests fork worker pools (spawn "
                          "re-imports per worker, too slow for tier-1)")


@pytest.fixture(scope="module")
def db_dir(tiny_tpcd, tmp_path_factory):
    path = tmp_path_factory.mktemp("servedb") / "db"
    load_tpcd(tiny_tpcd, db_dir=path)
    return path


@pytest.fixture(scope="module")
def serial_checksums(db_dir):
    db, _report = open_tpcd(db_dir)
    return {number: result_checksum(ship_value(QUERIES[number].run(db)))
            for number in sorted(QUERIES)}


@pytest.fixture(scope="module")
def server(db_dir):
    service = QueryService(db_dir, procs=2,
                           result_cache_bytes=1 << 20)
    with QueryServer(service) as srv:
        yield srv
    service.close()


@pytest.fixture(scope="module")
def uncached_server(db_dir):
    """A server with no result cache, so every request executes."""
    service = QueryService(db_dir, procs=2)
    with QueryServer(service) as srv:
        yield srv
    service.close()


def _connect(server):
    host, port = server.address
    return QueryClient(host, port)


# ----------------------------------------------------------------------
# basic requests
# ----------------------------------------------------------------------
def test_hello_and_ping(server):
    with _connect(server) as client:
        assert client.protocol == 3
        assert client.generation == 1
        assert client.ping() == 1


def test_tpcd_query_checksum_and_value(server, serial_checksums,
                                       tiny_tpcd_db):
    with _connect(server) as client:
        reply = client.sql(sql_text(6))
        assert reply.checksum == serial_checksums[6]
        assert reply.value == pytest.approx(QUERIES[6].run(tiny_tpcd_db))
        assert reply.generation == 1
        assert reply.elapsed_ms >= 0.0
        assert reply.service_ms >= reply.elapsed_ms


def test_tpcd_param_overrides_change_the_result(server):
    with _connect(server) as client:
        base = client.sql(sql_text(6))
        widened = client.sql(sql_text(6, {"qty": 100}))
        assert widened.checksum != base.checksum


def test_moa_text_query_matches_query_driver(server, serial_checksums):
    with _connect(server) as client:
        reply = client.moa(QUERIES[1].texts()[0])
        assert reply.checksum == serial_checksums[1]
        rows = reply.value
        assert rows and hasattr(rows[0], "names")    # decoded Rows


def test_mil_program_over_the_wire(server, db_dir):
    program = MILProgram()
    selected = program.emit("select", [Var("Item_quantity"), 10, 40])
    joined = program.emit("join", [selected,
                                   Var("Item_extendedprice")])
    program.emit("aggr_all", [joined], fn="sum", target="total")
    kernel = MonetKernel.open(db_dir)
    _env, expected = run_program_serial(kernel, program, ["total"])
    with _connect(server) as client:
        reply = client.mil(program, ["total"])
        assert reply.checksum == expected
        assert "total" in reply.value


def test_catalog_shadowing_mil_plan_is_served_like_serial(db_dir):
    """A plan may read catalog ``Item_quantity`` and then assign that
    name: the worker's verifier lints it as a ``shadows-catalog``
    warning, not an error; the served answer is the serial one (the
    read before the
    assignment sees the catalog BAT, the read after it the variable);
    and a later request on the same worker still reads the catalog BAT
    unchanged, because the interpreter writes only its environment."""
    from repro.analysis.verify import (catalog_stats_from_kernel,
                                       check_program)

    program = MILProgram()
    program.emit("aggr_all", [Var("Item_quantity")], fn="sum",
                 target="before")
    program.emit("multiplex", [Var("Item_quantity"), 2.0], fn="*",
                 target="Item_quantity")
    program.emit("aggr_all", [Var("Item_quantity")], fn="sum",
                 target="after")
    probe = MILProgram()
    probe.emit("ident", [Var("Item_quantity")], target="column")
    kernel = MonetKernel.open(db_dir)
    env, expected = run_program_serial(kernel, program,
                                       ["before", "after"])
    assert env["after"]["value"] == 2 * env["before"]["value"] > 0
    _probe_env, probe_expected = run_program_serial(kernel, probe,
                                                    ["column"])
    plan = check_program(program, catalog=catalog_stats_from_kernel(kernel),
                         roots={"before", "after"})
    assert [(finding.level, finding.code, finding.index)
            for finding in plan.findings] \
        == [("warning", "shadows-catalog", 1)]

    service = QueryService(db_dir, procs=1)
    try:
        with QueryServer(service) as srv, _connect(srv) as client:
            reply = client.mil(program, ["before", "after"])
            assert reply.checksum == expected
            assert reply.value["after"] == 2 * reply.value["before"]
            again = client.mil(probe, ["column"])
            assert again.pid == reply.pid          # the same worker
            assert again.checksum == probe_expected
    finally:
        service.close()


def test_malformed_requests_raise_typed_errors(server):
    with _connect(server) as client:
        with pytest.raises(ProtocolError):
            client.moa("")
        # retired requests (the hand-driver query, the spool
        # negotiation) are just unknown types now
        for retired in ({"type": "tpcd", "number": 6},
                        {"type": "wire", "spool": True}):
            with pytest.raises(ProtocolError,
                               match="unknown request type"):
                client._request(retired)
        with pytest.raises(SqlParseError):
            client.sql("select frum lineitem")
        # the connection survives an error frame
        assert client.ping() == 1


def test_moa_syntax_error_is_typed_and_non_fatal(server):
    from repro.errors import MOAError
    with _connect(server) as client:
        with pytest.raises(MOAError):
            client.moa("select[((((Item)")
        assert client.ping() == 1


# ----------------------------------------------------------------------
# the SQL front-end over the wire
# ----------------------------------------------------------------------
def test_sql_over_the_wire_matches_the_moa_path(server,
                                                serial_checksums):
    with _connect(server) as client:
        for number in (1, 3, 6):
            reply = client.sql(sql_text(number))
            assert reply.checksum == serial_checksums[number]


def test_sql_served_on_both_wire_formats(server, uncached_server,
                                        serial_checksums):
    """Both sources of a reply's bytes — a worker execution, and the
    result cache re-sending the bytes a worker encoded earlier — serve
    the serial checksum for Q3.  (The name dates from the retired
    spool, the second way a reply once travelled.)"""
    text = sql_text(3)
    with _connect(uncached_server) as client:
        executed = client.sql(text)
        assert executed.result_cached is False
    with _connect(server) as client:
        client.sql(text)
        cached = client.sql(text)
        assert cached.result_cached is True
    assert executed.checksum == cached.checksum == serial_checksums[3]
    assert executed.payload_bytes == cached.payload_bytes


def test_sql_prepared_plans_are_cached_per_worker(server):
    text = sql_text(6)
    with _connect(server) as client:
        procs = server.service.procs
        # pigeonhole: more submissions than workers guarantees some
        # worker sees the identical text twice
        replies = [client.sql(text) for _ in range(procs + 1)]
        assert any(r.plan_cached or r.result_cached for r in replies)


def test_sql_parse_error_is_typed_with_position(server):
    with _connect(server) as client:
        with pytest.raises(SqlParseError) as err:
            client.sql("select frum lineitem")
        assert "line 1, column" in str(err.value)
        assert client.ping() == 1           # the connection survives


def test_sql_unsupported_is_typed_and_non_fatal(server):
    from repro.errors import SqlUnsupportedError
    with _connect(server) as client:
        with pytest.raises(SqlUnsupportedError):
            client.sql("select rank() over (order by l_quantity) "
                       "from lineitem")
        with pytest.raises(ProtocolError):
            client.sql("   ")               # no query text at all
        assert client.ping() == 1


# ----------------------------------------------------------------------
# concurrency: >= 4 clients over the full query set
# ----------------------------------------------------------------------
def test_four_concurrent_clients_full_query_set(server,
                                                serial_checksums):
    failures = []

    def client_loop(tid):
        try:
            with _connect(server) as client:
                for number in sorted(QUERIES):
                    reply = client.sql(sql_text(number))
                    assert reply.checksum == serial_checksums[number], \
                        "client %d diverged on Q%d" % (tid, number)
        except BaseException as exc:     # noqa: BLE001
            failures.append((tid, exc))

    threads = [threading.Thread(target=client_loop, args=(tid,))
               for tid in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures


# ----------------------------------------------------------------------
# caches
# ----------------------------------------------------------------------
# flat results stay flat: the Row-construction cost gate
# ----------------------------------------------------------------------
ROWS_WIDE_K5 = ("select l_orderkey, l_partkey, l_quantity, "
                "l_extendedprice from lineitem where l_quantity < 5")

NESTED_MOA = "project[<name : n, supplies : s>](Supplier)"


def test_rows_wide_request_builds_no_row_until_iterated(
        db_dir, tiny_tpcd_db, monkeypatch):
    """A count, not a timing: serving a set of flat tuples end to end
    — worker, parent, client — constructs zero ``Row``
    objects; iterating the reply builds exactly one per row.  The
    counter is a shared-memory integer the forked workers inherit, so
    their constructions are counted too (the nested query proves it
    can see them).  Then, coarsely and uncounted: building every row of
    the reply costs less than the request that fetched it."""
    from repro.moa.values import Row, RowBatch
    from repro.sql import execute_sql

    built = multiprocessing.Value("q", 0)
    original = Row.__init__

    def counting(self, *args, **kwargs):
        with built.get_lock():
            built.value += 1
        original(self, *args, **kwargs)

    expected = list(execute_sql(tiny_tpcd_db, ROWS_WIDE_K5))
    monkeypatch.setattr(Row, "__init__", counting)
    service = QueryService(db_dir, procs=2)
    try:
        with QueryServer(service) as srv:
            host, port = srv.address
            with QueryClient(host, port) as client:
                for _ in range(4):          # reaches both workers
                    reply = client.sql(ROWS_WIDE_K5)
                assert built.value == 0
                assert isinstance(reply.value, RowBatch)
                assert len(reply.value) == len(expected) > 100
                assert reply.value[0] == expected[0]
                assert built.value == 1         # the one indexed
                built.value = 0
                assert list(reply.value) == expected
                assert built.value == len(expected)
                built.value = 0
            with QueryClient(host, port) as client:
                # a nested set needs Rows inside the worker, and the
                # counter sees them (Bags do not ship: typed error)
                with pytest.raises(ServerError):
                    client.moa(NESTED_MOA)
                assert built.value > 0
                monkeypatch.undo()          # time the real Row
                reply = client.sql(ROWS_WIDE_K5)
                request_s = min(_timed(client.sql, ROWS_WIDE_K5)
                                for _ in range(7))
                list_s = min(_timed(list, reply.value)
                             for _ in range(7))
                assert list_s < request_s, (list_s, request_s)
    finally:
        service.close()


def _timed(function, *args):
    started = time.perf_counter()
    function(*args)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
def test_plan_cache_hits_are_observable(db_dir, serial_checksums):
    # a dedicated single-worker service: the second identical Moa text
    # must land on the same (only) worker and hit its plan cache
    service = QueryService(db_dir, procs=1, result_cache_bytes=0)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            text = QUERIES[3].texts()[0]
            first = client.moa(text)
            second = client.moa(text)
            assert first.checksum == second.checksum \
                == serial_checksums[3]
            assert first.plan_cached is False
            assert second.plan_cached is True
            stats = client.stats()
    service.close()
    plan = stats["plan_cache"]
    assert plan["hits"] >= 1
    assert plan["misses"] >= 1
    assert 0.0 < plan["hit_rate"] < 1.0


def test_plan_cache_counts_are_the_replies_flags(db_dir):
    """Two clients over two workers: the service counts each reply's
    ``plan_cached`` flag once, so its hits and misses are those flags,
    and every worker misses each text exactly once."""
    texts = [QUERIES[number].texts()[0] for number in (1, 3, 6)]
    replies = []
    lock = threading.Lock()
    service = QueryService(db_dir, procs=2)

    def client_laps(srv):
        with _connect(srv) as client:
            for _lap in range(4):
                for text in texts:
                    reply = client.moa(text)
                    with lock:
                        replies.append((reply.pid, text,
                                        reply.plan_cached))

    with QueryServer(service) as srv:
        threads = [threading.Thread(target=client_laps, args=(srv,))
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        plan = service.stats()["plan_cache"]
    service.close()
    flags = [cached for _pid, _text, cached in replies]
    assert len(flags) == 24
    assert len({pid for pid, _text, _cached in replies}) == 2
    assert plan["hits"] == flags.count(True)
    assert plan["misses"] == flags.count(False) \
        == len({(pid, text) for pid, text, _cached in replies})
    assert plan["hit_rate"] == round(plan["hits"] / 24, 4)


def test_result_cache_short_circuits(db_dir, serial_checksums):
    service = QueryService(db_dir, procs=1,
                           result_cache_bytes=1 << 20)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            first = client.sql(sql_text(12))
            second = client.sql(sql_text(12))
            assert first.result_cached is False
            assert second.result_cached is True
            assert second.checksum == first.checksum \
                == serial_checksums[12]
            stats = client.stats()
    service.close()
    assert stats["result_cache"]["hits"] == 1
    assert stats["counters"]["result_cache_hits"] == 1


def test_worker_minor_faults_sum_the_executed_tasks(db_dir):
    """Each outcome carries the worker's real minor page faults over
    its task; the service adds exactly those to its counter, and a
    result-cache hit adds nothing."""
    service = QueryService(db_dir, procs=1,
                           result_cache_bytes=1 << 20)
    outcomes = []
    submit = service._submit_with_retry

    def recording(*args, **kwargs):
        outcomes.append(submit(*args, **kwargs))
        return outcomes[-1]

    service._submit_with_retry = recording
    try:
        assert service.stats()["counters"]["worker_minor_faults"] == 0
        with service.session() as session:
            for number in (1, 6, 1):
                session.execute({"type": "sql",
                                 "query": sql_text(number)})
        counters = service.stats()["counters"]
    finally:
        service.close()
    assert len(outcomes) == 2 and counters["result_cache_hits"] == 1
    assert all(isinstance(outcome.minor_faults, int)
               and outcome.minor_faults >= 0 for outcome in outcomes)
    # the first task opens the catalog and compiles: it faults
    assert outcomes[0].minor_faults > 0
    assert counters["worker_minor_faults"] \
        == sum(outcome.minor_faults for outcome in outcomes)


def test_result_cache_hits_cannot_be_corrupted_by_clients(db_dir):
    """Regression for the serving-path shallow copy: every served
    response used to share its nested payload with the cached entry,
    so one caller mutating a reply poisoned later hits.  A response's
    header is a fresh dict per request and its body a read-only
    buffer."""
    service = QueryService(db_dir, procs=1,
                           result_cache_bytes=1 << 20)
    try:
        with service.session() as session:
            request = {"type": "sql", "query": sql_text(1)}
            first = session.execute(request)
            expected = first["checksum"]
            assert memoryview(first["body"]).readonly
            # trash the served structures in place
            decode_value(decode_binary_message(first["body"])).clear()
            first.clear()
            second = session.execute(request)
            assert second["result_cached"] is True
            assert second["checksum"] == expected
            assert result_checksum(decode_value(decode_binary_message(
                second["body"]))) == expected
    finally:
        service.close()


def test_requests_equal_results_plus_errors_under_hits(db_dir):
    """Regression: ``results`` was only counted on the cache-miss
    path, so the counter identity broke as soon as the result cache
    answered anything."""
    service = QueryService(db_dir, procs=1,
                           result_cache_bytes=1 << 20)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            for _ in range(3):
                client.sql(sql_text(6))
            with pytest.raises(SqlParseError):
                client.sql("select frum lineitem")
            counters = client.stats()["counters"]
    service.close()
    assert counters["result_cache_hits"] == 2, counters
    assert counters["requests"] == 4, counters
    assert counters["requests"] \
        == counters["results"] + counters["errors"], counters
    assert counters["result_bytes"] > 0, counters


def test_result_cache_stays_within_budget_and_invalidates(db_dir):
    service = QueryService(db_dir, procs=1,
                           result_cache_bytes=1 << 20)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            for number in sorted(QUERIES):
                client.sql(sql_text(number))
            snap = client.stats()["result_cache"]
    service.close()
    assert snap["size"] >= 1
    assert snap["weight"] <= snap["capacity"] == 1 << 20
    assert snap["peak_weight"] <= snap["capacity"]


# ----------------------------------------------------------------------
# the one reply path: worker-encoded bytes after a JSON header
# ----------------------------------------------------------------------
def test_json_and_binary_wires_serve_identical_checksums(
        uncached_server, serial_checksums):
    """With no result cache to answer for them, all 15 queries execute
    and serve the serial checksums; every reply's bytes reach the
    client, its JSON header frame plus its binary payload frame.  (The
    name dates from the retired base64-in-JSON reply wire.)"""
    host, port = uncached_server.address
    with QueryClient(host, port) as client:
        payload_bytes = 0
        for number in sorted(QUERIES):
            reply = client.sql(sql_text(number))
            assert reply.result_cached is False
            assert reply.checksum == serial_checksums[number]
            payload_bytes += reply.payload_bytes
        assert client.bytes_received > payload_bytes > 0


def test_binary_wire_ships_columns_smaller_than_json(server):
    """A column-shipping MIL fetch costs its raw column bytes plus a
    small header — well under the 4/3 of base64-in-JSON, with no
    per-value text."""
    program = MILProgram()
    window = program.emit("slice", [Var("Item_quantity"), 0, 4095])
    program.emit("multiplex", [window, 1.0], fn="*", target="col")
    with _connect(server) as client:
        reply = client.mil(program, ["col"])
        received = client.bytes_received
    bat = reply.value["col"]
    raw = bat["head"].nbytes + bat["tail"].nbytes
    assert raw > 4096
    assert raw <= reply.payload_bytes < raw + 512
    assert reply.payload_bytes < received < reply.payload_bytes + 1024
    assert received < raw * 4 / 3


def test_unknown_wire_format_answers_typed_and_survives(
        server, serial_checksums):
    """The retired ``wire`` request, in any of the shapes a spool
    client once sent, answers a typed, non-retryable "unknown request
    type" error and leaves the connection serving replies."""
    from repro.server.protocol import recv_frame as _recv
    from repro.server.protocol import send_frame as _send
    with _connect(server) as client:
        for threshold in (None, -3, True, "big"):
            request = {"type": "wire", "spool": True}
            if threshold is not None:
                request["spool_threshold"] = threshold
            _send(client._sock, request)
            reply = _recv(client._sock)
            assert reply["type"] == "error"
            assert reply["error"] == "ProtocolError"
            assert "unknown request type" in reply["message"]
            assert reply["retryable"] is False
            assert client.ping() == 1
        assert client.sql(sql_text(6)).checksum == serial_checksums[6]


def test_server_process_never_encodes_or_decodes_a_payload(
        db_dir, serial_checksums, monkeypatch):
    """The worker encodes a reply once; the server only forwards the
    bytes.  With the value codec rigged to fail on the server's own
    threads once its pool has started, executed and cache-hit replies
    to sql, moa and mil requests still arrive, carrying the serial
    checksums."""
    from repro.server import protocol

    program = MILProgram()
    window = program.emit("slice", [Var("Item_extendedprice"), 0, 999])
    program.emit("multiplex", [window, 2.0], fn="*", target="col")
    _env, mil_serial = run_program_serial(MonetKernel.open(db_dir),
                                          program, ["col"])
    calls = {"sql": (lambda client: client.sql(sql_text(3)),
                     serial_checksums[3]),
             "mil": (lambda client: client.mil(program, ["col"]),
                     mil_serial),
             "moa": (lambda client: client.moa(QUERIES[1].texts()[0]),
                     serial_checksums[1])}

    service = QueryService(db_dir, procs=2, result_cache_bytes=1 << 20)
    server = QueryServer(service)
    server.start()
    try:
        host, port = server.address
        with QueryClient(host, port) as client:
            assert client.ping() == 1         # the pool is up
        rigged = []

        def rig(name):
            real = getattr(protocol, name)

            def codec(*args, **kwargs):
                if threading.current_thread().name.startswith("serve-"):
                    rigged.append(name)
                    raise AssertionError("the server ran %s" % name)
                return real(*args, **kwargs)
            monkeypatch.setattr(protocol, name, codec)

        for name in ("encode_value", "decode_value",
                     "encode_binary_message", "decode_binary_message"):
            rig(name)
        for lap in (0, 1):
            with QueryClient(host, port) as client:
                for kind, (call, expected) in sorted(calls.items()):
                    reply = call(client)
                    assert reply.checksum == expected, kind
                    assert reply.result_cached is (lap == 1), kind
                    assert call(client).result_cached is True, kind
        assert rigged == []
    finally:
        server.stop()
        service.close()


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_stats_shape_and_latency_percentiles(server):
    with _connect(server) as client:
        for _ in range(3):
            client.sql(sql_text(12))
        stats = client.stats()
    latency = stats["latency_ms"]
    assert latency["count"] >= 3
    assert latency["p50"] <= latency["p95"] <= latency["p99"]
    assert stats["counters"]["requests"] >= 3
    assert sorted(stats["buffer"]) == ["evictions", "faults", "hits"]
    pools = stats["pools"]
    assert "1" in pools
    assert pools["1"]["procs"] == 2
    assert len(pools["1"]["pids"]) == 2
    assert stats["inflight"] == 0


def test_fault_simulation_is_pay_per_use(db_dir, serial_checksums):
    """Default requests simulate nothing and report no ``faults``; a
    ``buffer_stats`` request reports its own cold-start count — the
    in-process one, whatever the worker ran before — moves
    ``stats()["buffer"]`` by exactly that, and never meets the result
    cache in either direction."""
    from repro.monet.buffer import BufferManager, use
    from repro.sql import execute_sql

    db, _report = open_tpcd(db_dir)
    manager = BufferManager()
    with use(manager):
        execute_sql(db, sql_text(6))
    cold = manager.faults
    assert cold > 0

    service = QueryService(db_dir, procs=1,
                           result_cache_bytes=1 << 20)
    with QueryServer(service) as srv:
        host, port = srv.address
        total = 0
        for _lap in range(2):
            with QueryClient(host, port) as client:
                plain = client.sql(sql_text(6))
                assert plain.faults is None
                assert client.stats()["buffer"]["faults"] == total
                for _ in range(2):       # the second one: a warm worker
                    accounted = client.sql(sql_text(6), buffer_stats=True)
                    assert accounted.checksum == serial_checksums[6]
                    assert accounted.faults == cold
                    # `plain` sits in the result cache; an accounted
                    # request must execute to have anything to count
                    assert accounted.result_cached is False
                    total += cold
                    assert client.stats()["buffer"]["faults"] == total
                hit = client.sql(sql_text(6))
                assert hit.result_cached is True
                assert hit.faults is None           # nothing stale
                assert client.stats()["buffer"]["faults"] == total
        with service.session() as session:
            with pytest.raises(ProtocolError):
                session.execute({"type": "sql", "query": sql_text(6),
                                 "buffer_stats": "yes"})
    service.close()


# ----------------------------------------------------------------------
# admission control + timeouts
# ----------------------------------------------------------------------
def _parking_service(db_dir, park_s, **options):
    """A one-worker service whose second task parks the worker for
    ``park_s`` seconds before it runs."""
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="delay", delay_s=park_s, skip=1)
    return QueryService(db_dir, procs=1, fault_plan=plan, **options)


def _occupy_the_worker(srv, service):
    """Send the parked request from a side connection; return its
    thread once the worker has it."""
    def side():
        with _connect(srv) as client:
            client.sql(sql_text(6))

    thread = threading.Thread(target=side)
    thread.start()
    deadline = time.monotonic() + 60.0
    while service.stats()["inflight"] == 0:
        assert time.monotonic() < deadline, "the parked task never ran"
        time.sleep(0.01)
    return thread


def test_admission_overload_is_typed(db_dir):
    # the pool's queue is the admission: its one worker busy and no
    # room to wait, a request is refused at once
    service = _parking_service(db_dir, 2.0, max_queue=0)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            client.sql(sql_text(6))      # pool warm, service healthy
            parked = _occupy_the_worker(srv, service)
            started = time.monotonic()
            with pytest.raises(ServerOverloadedError):
                client.sql(sql_text(6))
            assert time.monotonic() - started < 1.5
            parked.join(timeout=60)
            assert not parked.is_alive()
            assert client.sql(sql_text(6)).checksum   # healthy again
            stats = client.stats()
    service.close()
    assert stats["counters"]["overloads"] == 1
    assert stats["inflight"] == stats["queued"] == 0


@pytest.mark.parametrize("timeout", ["5", 0, -1.0, float("nan"), True],
                         ids=["string", "zero", "negative", "nan",
                              "bool"])
def test_malformed_timeout_is_refused_before_admission(db_dir, timeout):
    """Regression: a string timeout answered an untyped TypeError, zero
    and negative ones killed and respawned the worker, NaN meant no
    limit and ``true`` one second.  Only ``None`` or a finite number of
    seconds > 0 is a timeout; anything else is a typed ProtocolError
    and no worker sees the request."""
    service = QueryService(db_dir, procs=1)
    try:
        with service.session() as session:
            request = {"type": "sql", "query": sql_text(6)}
            assert session.execute(dict(request, timeout=5))["checksum"]
            respawns = service.stats()["pools"]["1"]["respawns"]
            with pytest.raises(ProtocolError, match="'timeout'"):
                session.execute(dict(request, timeout=timeout))
            assert service.stats()["pools"]["1"]["respawns"] == respawns
            assert session.execute(request)["checksum"]
    finally:
        service.close()


def test_queue_wait_past_timeout_budget_overloads(db_dir):
    service = _parking_service(db_dir, 2.0, max_queue=4)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            client.sql(sql_text(6))
            parked = _occupy_the_worker(srv, service)
            started = time.monotonic()
            with pytest.raises(ServerOverloadedError,
                               match="timeout budget"):
                client.sql(sql_text(6), timeout=0.2)
            assert time.monotonic() - started >= 0.2
            stats = client.stats()
            parked.join(timeout=60)
            assert not parked.is_alive()
    service.close()
    assert stats["counters"]["overloads"] == 1
    # the refused request left the queue; only the parked one runs
    assert stats["queued"] == 0 and stats["inflight"] == 1


def test_queued_request_is_released_at_its_timeout(db_dir):
    """Regression: the service admitted up to eight requests and the
    pool queued them again behind its one worker, so with the default
    knobs a request with ``timeout=0.2`` waited for the parked task
    and was answered after ~1.7 s.  The pool's queue is the only one
    now, and the waiting caller takes its task out of it on time."""
    service = _parking_service(db_dir, 2.0)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            client.sql(sql_text(6))
            parked = _occupy_the_worker(srv, service)
            started = time.monotonic()
            with pytest.raises(ServerOverloadedError):
                client.sql(sql_text(6), timeout=0.2)
            elapsed = time.monotonic() - started
            parked.join(timeout=60)
            assert not parked.is_alive()
            assert client.sql(sql_text(6)).checksum
    service.close()
    assert 0.2 <= elapsed < 1.0, elapsed


def test_query_timeout_kills_worker_and_recovers(db_dir,
                                                 serial_checksums):
    # every worker parks its second task: overdue by construction,
    # where a 0.1 ms budget races the pump thread's scheduling
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="delay", delay_s=60.0, skip=1)
    service = QueryService(db_dir, procs=1, fault_plan=plan)
    with QueryServer(service) as srv:
        with _connect(srv) as client:
            client.sql(sql_text(6))              # warm the worker
            before = service.stats()["pools"]["1"]["pids"]
            with pytest.raises(QueryTimeoutError):
                client.sql(sql_text(13), timeout=0.2)
            # the worker was killed and respawned; the session serves on
            reply = client.sql(sql_text(13))
            assert reply.checksum == serial_checksums[13]
            stats = client.stats()
            after = stats["pools"]["1"]["pids"]
    service.close()
    assert stats["counters"]["timeouts"] == 1
    assert stats["pools"]["1"]["respawns"] >= 1
    assert before != after


# ----------------------------------------------------------------------
# generation pinning under live rewrites
# ----------------------------------------------------------------------
@pytest.fixture()
def rewritable_db(tiny_tpcd, tmp_path):
    path = tmp_path / "db"
    load_tpcd(tiny_tpcd, db_dir=path)
    return path


def _bump_generation(db_dir):
    db, _report = open_tpcd(db_dir)
    save_tpcd(db, db_dir)                # dataset-less re-save: +1


def test_sessions_pin_their_generation_across_bumps(rewritable_db,
                                                    serial_checksums):
    service = QueryService(rewritable_db, procs=1)
    with QueryServer(service) as srv:
        old = _connect(srv)
        try:
            assert old.generation == 1
            assert old.sql(sql_text(6)).generation == 1

            _bump_generation(rewritable_db)

            # the old session still serves its pinned snapshot
            reply = old.sql(sql_text(6))
            assert reply.generation == 1
            assert reply.checksum == serial_checksums[6]

            # a new session sees the bump and gets its own pool
            with _connect(srv) as fresh:
                assert fresh.generation == 2
                fresh_reply = fresh.sql(sql_text(6))
                assert fresh_reply.generation == 2
                # a re-save of identical data: same rows, same sha1
                assert fresh_reply.checksum == serial_checksums[6]
                assert sorted(fresh.stats()["pools"]) == ["1", "2"]
        finally:
            old.close()
        # the stale pool retires once its last pinned session ends
        deadline = time.monotonic() + 10.0
        while service.pool_generations() != [2]:
            assert time.monotonic() < deadline, \
                service.pool_generations()
            time.sleep(0.02)
    service.close()


def test_clients_keep_serving_through_live_rewrites(rewritable_db,
                                                    serial_checksums):
    """The satellite stress: readers query through the server while a
    writer keeps bumping generations; every reply verifies against its
    session's pinned snapshot and nothing errors or tears."""
    service = QueryService(rewritable_db, procs=2)
    failures = []
    generations_seen = set()
    stop = threading.Event()

    with QueryServer(service) as srv:
        def reader(tid):
            try:
                while not stop.is_set():
                    with _connect(srv) as client:
                        generations_seen.add(client.generation)
                        for number in (1, 6, 12):
                            reply = client.sql(sql_text(number))
                            assert reply.generation == \
                                client.generation
                            assert reply.checksum == \
                                serial_checksums[number]
            except BaseException as exc:     # noqa: BLE001
                failures.append((tid, exc))

        threads = [threading.Thread(target=reader, args=(tid,))
                   for tid in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _round in range(2):
                time.sleep(0.3)
                _bump_generation(rewritable_db)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
    service.close()
    assert not failures, failures[:2]
    assert len(generations_seen) >= 2, generations_seen


def test_caches_stay_correct_while_workers_crash(rewritable_db,
                                                 serial_checksums):
    """The live-rewrite stress again, now with workers being killed
    under it: each worker process crashes mid-dispatch on its fourth
    task.  The service resubmits once (the respawned worker's shipped
    plan re-arms with the same skip, so the retry lands inside the
    fresh worker's grace window) and the plan/result caches must never
    convert a crash into a wrong or cross-generation answer — every
    reply that reaches a client still checksums against its session's
    pinned snapshot.

    The schedule is event-driven.  A session issues four distinct
    queries, so the fourth task of each generation's pool — the crash —
    happens whatever the result cache absorbs; the writer bumps only
    once ``crash_retries`` shows that crash absorbed, and only while
    both readers are parked between sessions: a worker respawned for a
    generation no longer on disk can answer nothing but a typed
    ``CatalogChangedError``, which is right and not this test's
    subject."""
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="crash", skip=3, times=1)
    service = QueryService(rewritable_db, procs=1,
                           result_cache_bytes=1 << 20,
                           fault_plan=plan)
    failures = []
    stop = threading.Event()
    pause = threading.Event()
    parked = threading.Barrier(3)           # two readers + the writer

    def crash_retries():
        return service.stats()["counters"]["crash_retries"]

    def await_absorbed_crash(seen):
        deadline = time.monotonic() + 60.0
        while crash_retries() <= seen and not failures:
            assert time.monotonic() < deadline, \
                "no worker crash was absorbed within 60s"
            time.sleep(0.01)

    with QueryServer(service) as srv:
        host, port = srv.address

        def reader(tid):
            try:
                while not stop.is_set():
                    if pause.is_set():
                        parked.wait(60)     # no session is open
                        parked.wait(60)     # the bump is on disk
                    # retries absorb a resubmit that crashes *again*
                    # (surfacing as retryable ServerOverloadedError)
                    with QueryClient(host, port, retries=4,
                                     backoff_base=0.01) as client:
                        for number in (1, 6, 12, 3):
                            reply = client.sql(sql_text(number))
                            assert reply.generation == \
                                client.generation
                            assert reply.checksum == \
                                serial_checksums[number]
            except BaseException as exc:     # noqa: BLE001
                failures.append((tid, exc))
                parked.abort()               # never strand the writer

        threads = [threading.Thread(target=reader, args=(tid,))
                   for tid in range(2)]
        for thread in threads:
            thread.start()
        absorbed = 0
        try:
            for _round in range(2):
                await_absorbed_crash(absorbed)
                pause.set()
                parked.wait(60)
                pause.clear()
                # nothing is in flight: whatever this generation's
                # pool crashed is counted, the next one starts here
                absorbed = crash_retries()
                _bump_generation(rewritable_db)
                parked.wait(60)
            await_absorbed_crash(absorbed)
        except threading.BrokenBarrierError:
            pass                 # a reader failed; reported below
        except BaseException:
            parked.abort()       # release parked readers, then fail
            raise
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        counters = service.stats()["counters"]
    service.close()
    assert not failures, failures[:2]
    # the fault fired in all three generations' pools and the degraded
    # path absorbed it every time
    assert counters["crash_retries"] >= 3, counters
    assert counters["errors"] == 0, counters


# ----------------------------------------------------------------------
# static plan admission (verifier + budget, in the worker, before any
# MIL statement runs)
# ----------------------------------------------------------------------
def test_error_frames_carry_the_retryability_verdict():
    from repro.errors import PlanBudgetExceededError
    from repro.server.server import _error_frame

    frame = _error_frame(ServerOverloadedError("full"))
    assert frame["type"] == "error"
    assert frame["error"] == "ServerOverloadedError"
    assert frame["retryable"] is True
    frame = _error_frame(PlanBudgetExceededError("too big"))
    assert frame["retryable"] is False


def test_plan_budget_rejects_before_any_worker_executes(db_dir):
    from repro.analysis.verify import PlanBudget
    from repro.errors import (PlanBudgetExceededError,
                              PlanVerificationError)

    service = QueryService(db_dir, procs=1,
                           plan_budget=PlanBudget(max_rows=50))
    with QueryServer(service) as srv:
        host, port = srv.address
        with QueryClient(host, port) as client:
            # over-budget moa: compiled in the worker, rejected before
            # a single statement runs, typed across the wire
            with pytest.raises(PlanBudgetExceededError):
                client.moa(QUERIES[1].texts()[0])
            # malformed mil: rejected by the worker's verifier
            bad = MILProgram()
            bad.emit("join", [Var("not_a_bat"),
                              Var("Item_quantity")])
            with pytest.raises(PlanVerificationError):
                client.mil(bad, ["whatever"])
            # over-budget mil: rejected there too
            big = MILProgram()
            big.emit("join", [Var("Item_part"), Var("Part_name")])
            with pytest.raises(PlanBudgetExceededError):
                client.mil(big, ["whatever"])
            # an under-budget plan still executes normally
            ok = MILProgram()
            window = ok.emit("slice", [Var("Item_quantity"), 0, 9])
            ok.emit("aggr_all", [window], fn="count", target="n")
            assert client.mil(ok, ["n"]).value == {"n": 9}
            counters = client.stats()["counters"]
    service.close()
    # all three rejections were counted, and of the four executable
    # requests only the under-budget plan ever produced a result
    assert counters["plan_rejections"] == 3, counters
    assert counters["results"] == 1, counters


def test_unbudgeted_service_verifies_mil_but_admits_everything(db_dir):
    from repro.errors import PlanVerificationError

    service = QueryService(db_dir, procs=1)
    with QueryServer(service) as srv:
        host, port = srv.address
        with QueryClient(host, port) as client:
            # verification still rejects malformed plans...
            bad = MILProgram()
            bad.emit("mirror", [Var("nope")])
            with pytest.raises(PlanVerificationError):
                client.mil(bad, ["x"])
            # ...including ops MIL no longer has, over catalog BATs
            for op, arity in (("sort", 1), ("difference", 2),
                              ("intersection", 2), ("kdiff", 2)):
                retired = MILProgram()
                retired.emit(op, [Var("Item_quantity"),
                                  Var("Item_discount")][:arity],
                             target="x")
                with pytest.raises(PlanVerificationError,
                                   match="unknown MIL op %r" % op):
                    client.mil(retired, ["x"])
                assert client.ping() == 1   # the connection survives
            # ...but big well-formed plans pass (no budget configured)
            reply = client.moa(QUERIES[1].texts()[0])
            assert reply.checksum
    service.close()


def _rejected_requests():
    """``(request, typed error)`` for one plan of every kind that a
    ``max_rows=50`` budget refuses, plus a malformed ``mil`` plan."""
    from repro.errors import PlanBudgetExceededError, PlanVerificationError

    big = MILProgram()
    big.emit("join", [Var("Item_part"), Var("Part_name")], target="x")
    malformed = MILProgram()
    malformed.emit("join", [Var("not_a_bat"), Var("Item_quantity")],
                   target="x")
    return [
        ({"type": "moa", "query": QUERIES[1].texts()[0]},
         PlanBudgetExceededError),
        ({"type": "sql", "query": sql_text(1)}, PlanBudgetExceededError),
        ({"type": "mil", "program": encode_program(big), "fetch": ["x"]},
         PlanBudgetExceededError),
        ({"type": "mil", "program": encode_program(malformed),
          "fetch": ["x"]}, PlanVerificationError),
    ]


def test_every_plan_kind_is_rejected_once_in_the_worker(db_dir):
    """Each kind's refused plan answers its typed error and bumps
    ``plan_rejections`` exactly once, a resubmission included (a
    refused plan never enters a plan cache), and produces no result."""
    from repro.analysis.verify import PlanBudget

    service = QueryService(db_dir, procs=1,
                           plan_budget=PlanBudget(max_rows=50))
    try:
        with service.session() as session:
            for request, error in _rejected_requests():
                for _attempt in range(2):
                    before = service.stats()["counters"]
                    with pytest.raises(error):
                        session.execute(request)
                    after = service.stats()["counters"]
                    assert after["plan_rejections"] \
                        == before["plan_rejections"] + 1, request
                    assert after["results"] == before["results"]
        # a refused plan is a rejection, not a plan-cache miss
        assert service.stats()["plan_cache"] \
            == {"hits": 0, "misses": 0, "hit_rate": 0.0}
    finally:
        service.close()


def test_the_parent_never_verifies_or_derives_catalog_stats(
        db_dir, serial_checksums, monkeypatch):
    """Every plan kind is verified in its worker only: with the
    verifier and the catalog-stats derivation rigged to fail in this
    process once the pool has forked, a malformed ``mil`` plan is still
    refused, typed, and well-formed plans of every kind still answer
    their serial checksums."""
    from repro.analysis import verify
    from repro.errors import PlanVerificationError

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the parent verified a plan")

    kernel = MonetKernel.open(db_dir)
    ok = MILProgram()
    window = ok.emit("slice", [Var("Item_quantity"), 0, 9])
    ok.emit("aggr_all", [window], fn="count", target="n")
    _env, ok_checksum = run_program_serial(kernel, ok, ["n"])
    bad = MILProgram()
    bad.emit("mirror", [Var("nope")], target="x")
    service = QueryService(db_dir, procs=1)
    try:
        with service.session() as session:
            monkeypatch.setattr(verify, "verify_program", forbidden)
            monkeypatch.setattr(verify, "_column_atom", forbidden)
            with pytest.raises(PlanVerificationError):
                session.execute({"type": "mil", "fetch": ["x"],
                                 "program": encode_program(bad)})
            served = session.execute({"type": "mil", "fetch": ["n"],
                                      "program": encode_program(ok)})
            assert served["checksum"] == ok_checksum
            served = session.execute({"type": "moa",
                                      "query": QUERIES[1].texts()[0]})
            assert served["checksum"] == serial_checksums[1]
            served = session.execute({"type": "sql",
                                      "query": sql_text(6)})
            assert served["checksum"] == serial_checksums[6]
    finally:
        service.close()


# ----------------------------------------------------------------------
# wide replies: one buffer per hop
# ----------------------------------------------------------------------
def _wide_fetch(db_dir):
    """``(program, fetch, serial env, serial checksum)`` of every Item
    attribute column fetched whole, as stored and mirrored: a reply
    of several hundred KB at the fixture's scale.  With integer
    columns in their narrowest width, the eight fixed-width columns
    this fetched before are 153 KB at SF 0.0005, every Item attribute
    column 295 KB, and both orientations of them 590 KB."""
    kernel = MonetKernel.open(db_dir)
    program = MILProgram()
    fetch = []
    for name in kernel.names():
        if name.startswith("Item_"):
            fetch.append("c%d" % len(fetch))
            program.emit("slice", [Var(name), 0, 2 ** 31 - 1],
                         target=fetch[-1])
            fetch.append("c%d" % len(fetch))
            program.emit("mirror", [Var(fetch[-2])], target=fetch[-1])
    env, checksum = run_program_serial(kernel, program, fetch)
    return program, fetch, env, checksum


def test_wide_reply_matches_serial_and_decodes_read_only(uncached_server,
                                                        db_dir):
    program, fetch, env, expected = _wide_fetch(db_dir)
    with _connect(uncached_server) as client:
        reply = client.mil(program, fetch)
    assert reply.payload_bytes == len(encode_binary_message(env))
    assert reply.checksum == expected
    for bat in reply.value.values():
        for side in ("head", "tail"):
            # fixed-width arrays are zero-copy views of the read-only
            # frame buffer; strings decode into new Python objects
            if bat[side].dtype != object:
                assert not bat[side].flags.writeable


def test_wide_result_cache_hit_serves_the_same_bytes(db_dir):
    program, fetch, env, expected = _wide_fetch(db_dir)
    request = {"type": "mil", "program": encode_program(program),
               "fetch": fetch}
    service = QueryService(db_dir, procs=1, result_cache_bytes=1 << 22)
    try:
        with service.session() as session:
            first = session.execute(request)
            second = session.execute(request)
    finally:
        service.close()
    assert first["result_cached"] is False
    assert second["result_cached"] is True
    # read raw into one buffer the server hands on read-only
    assert isinstance(first["body"], memoryview)
    assert first["body"].readonly
    assert bytes(second["body"]) == bytes(first["body"]) \
        == encode_binary_message(env)
    assert second["checksum"] == first["checksum"] == expected


# ----------------------------------------------------------------------
# results the codec has no form for
# ----------------------------------------------------------------------
def test_paper_nested_query_fails_closed_and_the_worker_serves_on(
        uncached_server, serial_checksums):
    """The section 4.3.2 query answers sets of parts per supplier
    (``Bag`` values), which the wire codec cannot carry: the worker's
    encoder refuses it, the typed error crosses the worker's ``err``
    reply and the wire, and the connection, the worker and the crash
    count are untouched."""
    examples = pathlib.Path(__file__).resolve().parents[2] / "examples"
    query = runpy.run_path(str(examples / "nested_sets.py"))["QUERY"]
    with _connect(uncached_server) as client:
        before = client.stats()["pools"]
        with pytest.raises(ProtocolError,
                           match="cannot encode value of type Bag"):
            client.moa(query)
        # the same connection answers the next request, verified
        assert client.sql(sql_text(6)).checksum == serial_checksums[6]
        after = client.stats()["pools"]
    assert {generation: (pool["pids"], pool["crashes"])
            for generation, pool in after.items()} \
        == {generation: (pool["pids"], pool["crashes"])
            for generation, pool in before.items()}
