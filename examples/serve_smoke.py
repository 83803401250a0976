"""Query-service smoke: concurrent clients vs an independent serial run.

Starts ``python -m repro.server`` as a real subprocess on a saved
TPC-D catalog, fans ``--clients`` concurrent :class:`QueryClient`
connections over the **full query set**, and diffs every returned
sha1 checksum against a serial execution of the hand-written drivers
computed independently in this process.  Every query is sent as
**SQL text** (:mod:`repro.sql.suite`'s formulation) twice, so the
server's per-worker plan cache demonstrably engages (the run fails if
the stats response shows zero plan-cache hits, or counts any request
error besides the two this script provokes on purpose).  The script
tallies the ``plan_cached`` flag of every reply that executed (a
result-cache hit replays its original header, so it does not count),
and fails unless the server's plan-cache hits and misses equal that
tally;
single-statement queries are also sent as textual Moa requests,
asserting the Moa path serves the very checksum the SQL front-end
does — and one client checks that malformed SQL answers a typed
``SqlParseError`` frame and an unsupported construct a
``SqlUnsupportedError`` frame, with the connection surviving both.

Set-of-tuples results stay columnar end to end: every SQL reply's
``.value`` must be a :class:`~repro.moa.values.RowBatch` whose
iterated rows equal the rows this process computed serially, and —
when the result cache is on — a cache hit must hand back an equal
batch under the same checksum.

Page-fault simulation is pay-per-use on the server: every reply of
those laps must carry ``faults is None``.  One client then runs an
extra lap with ``buffer_stats=True``; each reply's ``faults`` must
equal this process's own cold-start simulation of the same SQL text,
and the server's ``stats()["buffer"]`` must sum to exactly that lap.
The real page faults are reported too: the script prints the
workers' minor faults per executed request from
``stats()["counters"]["worker_minor_faults"]`` and fails if the
counter is missing.

Replies arrive as a header frame plus the worker-encoded payload
frame, the same two frames the worker sent the server.  One ``mil``
request fetches every ``Item`` attribute column whole, as stored and
mirrored — a reply of several hundred KB even at SF 0.0005.  Its
checksum is diffed against the same program run on this process's own kernel,
and every column must arrive in the width the catalog stores it in
(integer columns are stored in the narrowest of int16/int32/int64
that holds them).

This is both the README's client example and the CI server-smoke job::

    python examples/serve_smoke.py --db-dir /tmp/tpcd-db --clients 4

A missing ``--db-dir`` is built at ``--sf`` first (dbgen + load +
save), so the script is self-contained.  Exit status 0 = every
checksum matched.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import threading
import time

from repro.errors import SqlParseError, SqlUnsupportedError
from repro.moa.values import RowBatch
from repro.monet import MILProgram, MonetKernel, Var
from repro.monet.buffer import BufferManager, use
from repro.monet.multiproc import (result_checksum, run_program_serial,
                                   ship_value)
from repro.server import QueryClient
from repro.sql import execute_sql
from repro.sql.suite import sql_text
from repro.tpcd import (QUERIES, generate, load_tpcd, open_tpcd,
                        peek_tpcd_meta)


def ensure_db(db_dir, sf, seed):
    meta = peek_tpcd_meta(db_dir)
    if meta is not None:
        print("using saved catalog %s (sf=%s, seed=%s)"
              % (db_dir, meta.get("scale"), meta.get("seed")))
        return
    print("building catalog %s at sf=%s ..." % (db_dir, sf))
    dataset = generate(scale=sf, seed=seed)
    load_tpcd(dataset, db_dir=db_dir)


def serial_run(db_dir):
    """Independent serial run: open our own kernel, execute the
    hand-written drivers, digest, and simulate each query's SQL text's
    cold-start page faults.  Returns ``(checksums, faults, values)``,
    each keyed by query number."""
    db, _report = open_tpcd(db_dir)
    checksums, cold_faults, values = {}, {}, {}
    for number in sorted(QUERIES):
        values[number] = QUERIES[number].run(db)
        checksums[number] = result_checksum(ship_value(values[number]))
        manager = BufferManager()
        with use(manager):
            execute_sql(db, sql_text(number))
        cold_faults[number] = manager.faults
    return checksums, cold_faults, values


def start_server(db_dir, procs, tmp_dir, result_cache_bytes=0):
    port_file = os.path.join(tmp_dir, "server.port")
    command = [sys.executable, "-m", "repro.server", "--db-dir",
               str(db_dir), "--port", "0", "--procs", str(procs),
               "--port-file", port_file]
    if result_cache_bytes:
        command += ["--result-cache-bytes", str(result_cache_bytes)]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 60.0
    while not os.path.exists(port_file):
        if process.poll() is not None or time.monotonic() > deadline:
            # kill before reading: draining stdout of a live process
            # would block on a pipe that never reaches EOF
            process.kill()
            try:
                output = process.communicate(timeout=10)[0] or ""
            except subprocess.TimeoutExpired:
                output = ""
            raise RuntimeError("server did not come up:\n" + output)
        time.sleep(0.05)
    with open(port_file) as handle:
        host, port = handle.read().split()
    return process, host, int(port)


class PlanFlags:
    """Tally of the ``plan_cached`` flags of the replies that executed:
    a result-cache hit replays its original header, and a ``mil``
    reply carries no flag."""

    def __init__(self):
        self.lock = threading.Lock()
        self.hits = self.misses = 0

    def add(self, reply):
        if reply.result_cached or reply.plan_cached is None:
            return
        with self.lock:
            if reply.plan_cached:
                self.hits += 1
            else:
                self.misses += 1


def check_batch(number, reply, serial_value):
    """A served set of tuples is a RowBatch equal, row for row, to
    the serial result (scalars and the empty set pass through)."""
    if not isinstance(serial_value, RowBatch):
        return
    if not isinstance(reply.value, RowBatch):
        raise AssertionError("Q%d arrived as %s, not as a RowBatch"
                             % (number, type(reply.value).__name__))
    if reply.value != serial_value:
        raise AssertionError("Q%d's served rows differ from the "
                             "serial rows" % number)


def cache_hit_lap(host, port, expected, flags):
    """With the result cache on, asking twice must hit, and the hit
    must carry an equal batch under the same checksum."""
    with QueryClient(host, port) as client:
        for number in sorted(QUERIES):
            first = client.sql(sql_text(number))
            second = client.sql(sql_text(number))
            flags.add(first)
            flags.add(second)
            if not second.result_cached:
                raise AssertionError("Q%d was not served from the "
                                     "result cache" % number)
            if not first.checksum == second.checksum \
                    == expected[number] \
                    or result_checksum(ship_value(second.value)) \
                    != expected[number]:
                raise AssertionError("Q%d's cache hit changed its "
                                     "checksum" % number)
            if isinstance(first.value, RowBatch) \
                    and second.value != first.value:
                raise AssertionError("Q%d's cache hit returned a "
                                     "different batch" % number)


def client_pass(host, port, expected, failures, latencies, lock, tid,
                values, flags):
    try:
        with QueryClient(host, port) as client:
            for number in sorted(QUERIES):
                texts = QUERIES[number].texts()
                replies = [client.sql(sql_text(number))]
                if len(texts) == 1:
                    # second lap as raw Moa text: the Moa path must
                    # serve the very checksum the SQL front-end does
                    replies.append(client.moa(texts[0]))
                # third lap as the same SQL text: repeated texts warm
                # the per-worker plan cache
                replies.append(client.sql(sql_text(number)))
                check_batch(number, replies[0], values[number])
                check_batch(number, replies[-1], values[number])
                for reply in replies:
                    flags.add(reply)
                    if reply.checksum != expected[number]:
                        raise AssertionError(
                            "Q%d diverged on client %d: "
                            "served %s, serial %s"
                            % (number, tid, reply.checksum,
                               expected[number]))
                    if reply.faults is not None:
                        raise AssertionError(
                            "Q%d reported faults=%r to client %d, "
                            "which never asked for a simulation"
                            % (number, reply.faults, tid))
                    with lock:
                        latencies.append(reply.service_ms)
            if tid == 0:
                _check_sql_errors(client)
    except BaseException as exc:                # noqa: BLE001
        with lock:
            failures.append((tid, exc))


def accounted_lap(host, port, expected, cold_faults, flags):
    """One lap with ``buffer_stats=True``: every reply's ``faults``
    is this process's own cold-start count for the query, whatever
    the serving worker ran before.  Returns the lap's fault total."""
    with QueryClient(host, port) as client:
        for number in sorted(QUERIES):
            reply = client.sql(sql_text(number), buffer_stats=True)
            flags.add(reply)
            if reply.checksum != expected[number]:
                raise AssertionError(
                    "accounted Q%d diverged: served %s, serial %s"
                    % (number, reply.checksum, expected[number]))
            if reply.faults != cold_faults[number]:
                raise AssertionError(
                    "accounted Q%d reported %r faults, the in-process "
                    "cold run counted %d"
                    % (number, reply.faults, cold_faults[number]))
    return sum(cold_faults.values())


def wide_lap(host, port, db_dir):
    """Fetch every Item attribute column whole, as stored and mirrored
    (twice: the second may be a result-cache hit) and diff each reply
    against the in-process kernel: the same checksum, and every column
    in the width the catalog stores it in.  Returns ``(columns,
    payload bytes)``."""
    kernel = MonetKernel.open(db_dir)
    names = [name for name in kernel.names() if name.startswith("Item_")]
    program = MILProgram()
    fetch = []
    stored = {}
    for name in names:
        bat = kernel.get(name)
        fetch.append("c%d" % len(fetch))
        program.emit("slice", [Var(name), 0, 2 ** 31 - 1],
                     target=fetch[-1])
        stored[fetch[-1]] = ship_value(bat)
        fetch.append("c%d" % len(fetch))
        program.emit("mirror", [Var(fetch[-2])], target=fetch[-1])
        stored[fetch[-1]] = ship_value(bat.mirror())
    _env, expected = run_program_serial(kernel, program, fetch)
    with QueryClient(host, port) as client:
        for _lap in range(2):
            reply = client.mil(program, fetch)
            if reply.checksum != expected:
                raise AssertionError(
                    "the wide Item column fetch diverged: served %s, "
                    "in-process %s" % (reply.checksum, expected))
            for target, expected_bat in stored.items():
                for side in ("head", "tail"):
                    served = reply.value[target][side].dtype
                    if served != expected_bat[side].dtype:
                        raise AssertionError(
                            "%s.%s arrived as %s, stored as %s"
                            % (target, side, served,
                               expected_bat[side].dtype))
    return len(names), reply.payload_bytes


#: Requests :func:`_check_sql_errors` makes fail on purpose.  The
#: server counts each in ``stats()["counters"]["errors"]``; any other
#: error there fails the smoke.
PROVOKED_ERRORS = 2


def _check_sql_errors(client):
    """Malformed and unsupported SQL must answer typed error frames
    (re-raised client-side as the matching exception) and leave the
    connection fully usable."""
    try:
        client.sql("select frum lineitem")
    except SqlParseError:
        pass
    else:
        raise AssertionError("malformed SQL did not raise a typed "
                             "SqlParseError over the wire")
    try:
        client.sql("select rank() over (order by l_quantity) "
                   "from lineitem")
    except SqlUnsupportedError:
        pass
    else:
        raise AssertionError("a window function did not raise a typed "
                             "SqlUnsupportedError over the wire")
    client.ping()           # the connection survived both errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--db-dir", required=True)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--sf", type=float, default=0.0005,
                        help="scale factor when the catalog must be "
                             "built first")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--result-cache-bytes", type=int, default=0,
                        help="byte budget for the server's result "
                             "cache (0 disables)")
    args = parser.parse_args(argv)

    ensure_db(args.db_dir, args.sf, args.seed)
    expected, cold_faults, values = serial_run(args.db_dir)
    print("serial run: %d queries digested" % len(expected))

    process, host, port = start_server(
        args.db_dir, args.procs,
        tempfile.mkdtemp(prefix="serve-smoke-"),
        result_cache_bytes=args.result_cache_bytes)
    print("server up on %s:%d (pid %d)" % (host, port, process.pid))
    try:
        failures, latencies = [], []
        flags = PlanFlags()
        lock = threading.Lock()
        started = time.perf_counter()
        threads = [threading.Thread(target=client_pass,
                                    args=(host, port, expected,
                                          failures, latencies, lock,
                                          tid, values, flags))
                   for tid in range(args.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if failures:
            for tid, exc in failures:
                print("client %d FAILED: %r" % (tid, exc))
            return 1
        wide_columns, wide_bytes = wide_lap(host, port, args.db_dir)
        print("wide reply: %d Item columns, stored and mirrored, %d "
              "bytes, checksum and stored widths match the in-process "
              "kernel" % (wide_columns, wide_bytes))
        with QueryClient(host, port) as client:
            unaccounted = client.stats()["buffer"]["faults"]
        lap_faults = accounted_lap(host, port, expected, cold_faults,
                                   flags)
        with QueryClient(host, port) as client:
            stats = client.stats()
        print("%d clients x %d queries: %d verified replies in %.2fs "
              "(%.1f q/s)" % (args.clients, len(expected),
                              len(latencies), wall,
                              len(latencies) / max(wall, 1e-9)))
        print("latency p50/p95/p99: %s/%s/%s ms over last %d"
              % (stats["latency_ms"]["p50"], stats["latency_ms"]["p95"],
                 stats["latency_ms"]["p99"],
                 stats["latency_ms"]["count"]))
        if args.result_cache_bytes:
            cache_hit_lap(host, port, expected, flags)
            cache = stats["result_cache"]
            print("result cache: %(hits)d hits, %(weight)d/"
                  "%(capacity)d bytes (peak %(peak_weight)d)"
                  % cache)
            if cache["peak_weight"] > cache["capacity"]:
                print("FAILED: result cache exceeded its byte budget")
                return 1
        print("buffer faults across the fleet: %d after the default "
              "laps, %d after the accounted lap"
              % (unaccounted, stats["buffer"]["faults"]))
        if unaccounted != 0 or lap_faults <= 0 \
                or stats["buffer"]["faults"] != lap_faults:
            print("FAILED: fault simulation is not pay-per-use (the "
                  "accounted lap alone should have summed to %d)"
                  % lap_faults)
            return 1
        counters = stats["counters"]
        if "worker_minor_faults" not in counters:
            print("FAILED: the server's stats carry no "
                  "worker_minor_faults counter")
            return 1
        executed = counters["results"] - counters["result_cache_hits"]
        print("worker minor page faults: %d over %d executed requests "
              "(%.0f per request)"
              % (counters["worker_minor_faults"], executed,
                 counters["worker_minor_faults"] / max(executed, 1)))
        with QueryClient(host, port) as client:
            plan = client.stats()["plan_cache"]
        print("plan cache: %(hits)d hits / %(misses)d misses "
              "(hit rate %(hit_rate)s)" % plan)
        if (plan["hits"], plan["misses"]) != (flags.hits, flags.misses):
            print("FAILED: the server counted %d plan-cache hits and %d "
                  "misses, the executed replies carried %d and %d"
                  % (plan["hits"], plan["misses"], flags.hits,
                     flags.misses))
            return 1
        errors = counters["errors"]
        if errors != PROVOKED_ERRORS:
            print("FAILED: the server counted %d request errors, %d of "
                  "them provoked on purpose" % (errors, PROVOKED_ERRORS))
            return 1
        # each client issues each Moa text once and caches are per
        # worker, so a fleet-wide hit is only pigeonhole-guaranteed
        # when more clients than workers executed each text
        if args.clients > args.procs and plan["hits"] == 0:
            print("FAILED: no plan-cache hits observed")
            return 1
        print("OK: every served checksum matches the independent "
              "serial run")
        return 0
    finally:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
