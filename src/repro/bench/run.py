"""Benchmark-regression harness: ``python -m repro.bench.run``.

Runs the operator microbenchmarks and the Figure 9 TPC-D queries at a
fixed small scale factor and writes ``BENCH_operators.json`` — the
repo's perf trajectory file.  Each operator entry records

* ``median_ms`` — median wall time of the full operator call,
* ``kernel_ms`` — the vectorised kernel alone on the same key arrays,
* ``reference_ms`` — the naive dict/set/loop kernel
  (:mod:`repro.monet.operators.naive`, the pre-vectorisation
  algorithms) on the same arrays,
* ``speedup`` — ``reference_ms / kernel_ms``,
* ``rows`` — result cardinality (a correctness canary: the vectorised
  and reference kernels must agree before timings are recorded),
* ``faults`` — simulated cold-cache page faults of the operator call.

Query entries record median wall ms, simulated faults and result
cardinality.  An ``analysis`` section verifies every compiled query
plan with the static plan verifier (:mod:`repro.analysis.verify`) and
records per-query verifier wall time and static row/byte/page bounds;
the run hard-errors if any plan has a finding or if verification costs
more than 5% of that query's median runtime (admission-time analysis
must stay cheap).  A ``sql`` section runs every query again through
the SQL front-end (:mod:`repro.sql`) and records the prepared
execution's median next to the Moa path's, hard-gating that the two
paths' result checksums are byte-identical.  ``--quick`` shrinks SF and repetitions for the smoke
test wired into the tier-1 suite (``tests/test_bench_smoke.py``), so
the harness cannot silently rot between PRs.

``--db-dir DIR`` caches the loaded TPC-D database through the storage
layer: the first run saves it, later runs skip dbgen + load entirely
and reopen the heaps as ``np.memmap`` views (the ``load`` section of
the JSON records whether the start was warm and how long it took).
``--validate`` additionally runs every query against a freshly
mmap-reopened database and compares the *simulated* page-fault
accounting with the pages the OS really faulted in (resident-set
deltas of the mapped files) — the paper's Figure 9/10 observable
checked against a real pager.

``--procs N`` (needs ``--db-dir``) additionally executes the whole
TPC-D query set through the **multi-process dispatcher**
(:mod:`repro.monet.multiproc`): N worker processes each mmap-reopen
the saved database at the generation the parent pinned, run their
share of the queries with page-fault simulation off, and ship results
back with sha1 checksums.  The harness asserts every worker checksum
identical to the serial run of the same query (hard ``RuntimeError``
on divergence) and records a ``multiproc`` section — per-query worker
milliseconds, checksums, the worker pids used, and the catalog
generation served.  The ``faults`` column comes from a second,
accounted lap in which each task runs cold under its own
BufferManager.  Serial query entries always
record their own ``checksum``, which is what the CI step diffs
between a serial and a ``--procs 2`` run.

``--serve N`` (repeatable, needs ``--db-dir``) drives the whole stack
through the **concurrent query service** (:mod:`repro.server`): a
socket server is started in-process on an ephemeral port, and each
requested concurrency level runs that many closed-loop clients, each
executing the full TPC-D query set over the wire for several rounds —
single-statement queries as textual Moa requests (exercising the
per-worker plan cache), the two-phase queries (11/14/15) as ``tpcd``
requests.  Every reply checksum is asserted equal to the serial run of
the same query (hard ``RuntimeError`` on divergence) and a ``serve``
section records the concurrency sweep — requests, wall, throughput,
and p50/p95/p99 request latencies per client count — plus the
server-side stats (plan-cache hit rate, admission counters, merged
buffer faults).  Query entries record p50/p95/p99 over their reps
alongside the median for the same reason: tail latency is the serving
observable.

The serve section also carries a ``wire`` subsection: one client per
wire mode (``json``, ``binary``, and the local ``spool`` fast path)
runs the same request mix — the TPC-D set plus a column-shipping MIL
fetch — against a service with a byte-weighted result cache.  Per
mode it records qps, p50/p95 latency, and total reply bytes; hard
gates assert every checksum identical across modes, binary reply
bytes <= JSON reply bytes, and the cache never above its byte budget.

The harness **fails with a nonzero exit** when any operator or query
median regresses by more than 2x against the previous JSON at the
output path (same scale + mode only; disable with
``--no-regression-check``).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import threading
import time

import numpy as np

from ..monet import bat_from_columns_values, compute_props
from ..monet.buffer import BufferManager
from ..monet.buffer import use as use_manager
from ..monet.column import equality_keys
from ..monet import operators as ops
from ..monet.operators import naive
from ..monet.multiproc import (MultiprocExecutor, result_checksum,
                               ship_value)
from ..analysis.verify import catalog_stats_from_kernel, verify_program
from ..monet.optimizer import dispatch_disabled
from ..monet.storage import PAGESIZE, residency_report, residency_snapshot
from ..monet import vectorized as vz
from ..tpcd import QUERIES, generate, load_tpcd, open_tpcd, peek_tpcd_meta
from .harness import measure_query_faults, percentiles

DEFAULT_SF = 0.01
QUICK_SF = 0.0005
DEFAULT_SEED = 42

#: Rounds of the full query set each closed-loop serve client runs
#: (>= 2, so the second round observes warm plan caches).
SERVE_ROUNDS = 2

#: Regression gate: fail when a median exceeds REGRESSION_FACTOR x the
#: previous run's median (sub-floor baselines are clamped so timer
#: noise on micro-entries cannot trip the gate).
REGRESSION_FACTOR = 2.0
REGRESSION_FLOOR_MS = 0.2


def _times_ms(fn, reps):
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append((time.perf_counter() - started) * 1000.0)
    return times


def _median_ms(fn, reps):
    return statistics.median(_times_ms(fn, reps))


def _faults(fn):
    manager = BufferManager(page_size=4096)
    with use_manager(manager):
        fn()
    return manager.faults


def _bat(head_atom, heads, tail_atom, tails):
    bat = bat_from_columns_values(head_atom, heads, tail_atom, tails)
    bat.props = compute_props(bat)
    return bat


def _operand_source(dataset):
    """The raw columns the operand BATs are built from (cold start)."""
    item = dataset.tables["item"]
    orders = dataset.tables["orders"]
    return {
        "seed": dataset.seed,
        "item_order": np.asarray(item["order"]),
        "item_part": np.asarray(item["part"]),
        "item_quantity": np.asarray(item["quantity"]),
        "item_price": np.asarray(item["extendedprice"]),
        "orders_cust": np.asarray(orders["cust"]),
        "orders_clerk": np.asarray(orders["clerk"], dtype=object),
    }


def _operand_source_from_db(db, seed):
    """The same columns recovered from a reopened catalog (warm start).

    Datavectors hold each attribute in extent (oid) order, which is
    exactly the row order of ``dataset.tables`` — so warm-start
    operands are BUN-for-BUN identical to cold-start ones.
    """
    kernel = db.kernel

    def vector(name):
        return np.asarray(
            kernel.get(name).accel["datavector"].vector.logical())

    return {
        "seed": seed,
        "item_order": vector("Item_order"),
        "item_part": vector("Item_part"),
        "item_quantity": vector("Item_quantity"),
        "item_price": vector("Item_extendedprice"),
        "orders_cust": vector("Order_cust"),
        "orders_clerk": vector("Order_clerk"),
    }


def _operand_bats(source):
    """Operator benchmark operands drawn from the TPC-D columns."""
    n_item = len(source["item_order"])
    n_orders = len(source["orders_cust"])
    item_oids = list(range(n_item))
    rng = np.random.default_rng(source["seed"])

    operands = {}
    # [item oid, order id]: the N:1 join/grouping column of Q3/Q10/Q13
    operands["item_order"] = _bat("oid", item_oids, "long",
                                  source["item_order"].tolist())
    # [order id (permuted), customer]: hashjoin inner, not head-ordered
    perm = rng.permutation(n_orders)
    operands["orders_cust"] = _bat(
        "long", perm.tolist(),
        "long", source["orders_cust"][perm].tolist())
    # [item oid, extendedprice]: aggregation payload
    operands["item_price"] = _bat("oid", item_oids, "double",
                                  source["item_price"].tolist())
    # grouped aggregate input [order id, extendedprice]
    operands["order_price"] = _bat("long", source["item_order"].tolist(),
                                   "double",
                                   source["item_price"].tolist())
    # a selection of item oids (~20%), semijoin probe side
    step5 = list(range(0, n_item, 5))
    operands["item_sel"] = _bat("oid", step5, "oid", step5)
    # two overlapping [oid, quantity] windows for the set operations
    half = n_item // 2
    quantity = source["item_quantity"].tolist()
    operands["items_lo"] = bat_from_columns_values(
        "oid", item_oids[:half + half // 2], "long",
        quantity[:half + half // 2])
    operands["items_hi"] = bat_from_columns_values(
        "oid", item_oids[half // 2:], "long", quantity[half // 2:])

    # --- var-sized (string) join/semijoin keys ------------------------
    clerks = source["orders_clerk"].tolist()
    order_ids = list(range(n_orders))
    # [order id, clerk]: string-tail join outer
    operands["orders_clerk"] = _bat("long", order_ids, "string", clerks)
    # [clerk, clerk id]: string-head join inner (distinct clerks, own
    # heap, so the cross-heap re-encode path of equality_keys runs)
    distinct = sorted(set(clerks))
    operands["clerk_names"] = _bat("string", distinct, "long",
                                   list(range(len(distinct))))
    # [clerk, order id]: string-head semijoin outer + ~20% probe side
    operands["clerk_orders"] = _bat("string", clerks, "long", order_ids)
    probe = distinct[::5] or distinct[:1]
    operands["clerk_sel"] = _bat("string", probe, "long",
                                 list(range(len(probe))))

    # --- pairjoin composite keys (order, part), right side permuted ---
    item_perm = rng.permutation(n_item)
    operands["pair_l1"] = _bat("oid", item_oids, "long",
                               source["item_order"].tolist())
    operands["pair_l2"] = _bat("oid", item_oids, "long",
                               source["item_part"].tolist())
    operands["pair_r1"] = _bat("oid", item_perm.tolist(), "long",
                               source["item_order"][item_perm].tolist())
    operands["pair_r2"] = _bat("oid", item_perm.tolist(), "long",
                               source["item_part"][item_perm].tolist())
    return operands


def _operator_cases(operands):
    """name -> (operator thunk, kernel thunk, reference thunk, rows checker).

    Kernel and reference thunks run on identical equality-key arrays;
    their results are compared once before timing so the recorded
    speedup is for verified-identical output.
    """
    ab = operands["item_order"]
    cd = operands["orders_cust"]
    sel = operands["item_sel"]
    price = operands["item_price"]
    grouped = operands["order_price"]
    lo, hi = operands["items_lo"], operands["items_hi"]
    oc, cn = operands["orders_clerk"], operands["clerk_names"]
    co, cs = operands["clerk_orders"], operands["clerk_sel"]

    join_l, join_r = equality_keys(ab.tail, cd.head)
    semi_l, semi_r = equality_keys(price.head, sel.head)
    sjoin_l, sjoin_r = equality_keys(oc.tail, cn.head)
    ssemi_l, ssemi_r = equality_keys(co.head, cs.head)
    group_keys = grouped.head.keys()
    sum_codes, sum_groups = vz.factorize(group_keys)
    sum_values = np.asarray(grouped.tail.logical(), dtype=np.float64)
    uniq_h, uniq_t = lo.head.keys(), lo.tail.keys()
    diff_l, diff_r = equality_keys(lo.tail, hi.tail)

    def hashjoin():
        with dispatch_disabled():
            return ops.join(ab, cd)

    def join_str():
        with dispatch_disabled():
            return ops.join(oc, cn)

    def semijoin():
        with dispatch_disabled():
            return ops.semijoin(price, sel)

    def semijoin_str():
        with dispatch_disabled():
            return ops.semijoin(co, cs)

    def pairjoin():
        return ops.pairjoin([operands["pair_l1"], operands["pair_l2"],
                             operands["pair_r1"], operands["pair_r2"]])

    def unique_codes():
        h_codes, _n_h = vz.factorize(uniq_h)
        t_codes, n_t = vz.factorize(uniq_t)
        return vz.first_occurrence(
            vz.combine_codes(h_codes, t_codes, n_t))

    def unique_codes_naive():
        h_codes, _n_h = naive.factorize(uniq_h)
        t_codes, n_t = naive.factorize(uniq_t)
        return naive.first_occurrence(
            vz.combine_codes(h_codes, t_codes, n_t))

    cases = {
        "hashjoin": (
            hashjoin,
            lambda: vz.join_match(join_l, join_r),
            lambda: naive.join_match(join_l, join_r),
            lambda out: len(out)),
        "join_str": (
            join_str,
            lambda: vz.join_match(sjoin_l, sjoin_r),
            lambda: naive.join_match(sjoin_l, sjoin_r),
            lambda out: len(out)),
        "semijoin": (
            semijoin,
            lambda: vz.membership_mask(semi_l, semi_r),
            lambda: naive.membership_mask(semi_l, semi_r),
            lambda out: len(out)),
        "semijoin_str": (
            semijoin_str,
            lambda: vz.membership_mask(ssemi_l, ssemi_r),
            lambda: naive.membership_mask(ssemi_l, ssemi_r),
            lambda out: len(out)),
        "pairjoin": (
            pairjoin,
            None, None, lambda out: len(out)),
        "group": (
            lambda: ops.group1(grouped),
            lambda: vz.factorize(group_keys),
            lambda: naive.factorize(group_keys),
            lambda out: len(out)),
        "aggregate": (
            lambda: ops.set_aggregate("sum", grouped),
            # the operator's float-sum kernel is a weighted bincount
            lambda: np.bincount(sum_codes, weights=sum_values,
                                minlength=sum_groups),
            lambda: naive.grouped_sum(sum_values, sum_codes,
                                      sum_groups),
            lambda out: len(out)),
        "unique": (
            lambda: ops.unique(lo),
            unique_codes,
            unique_codes_naive,
            lambda out: len(out)),
        "difference": (
            lambda: ops.difference(lo, hi),
            lambda: vz.membership_mask(diff_l, diff_r),
            lambda: naive.membership_mask(diff_l, diff_r),
            lambda out: len(out)),
        "intersection": (
            lambda: ops.intersection(lo, hi),
            # membership plus the first-occurrence dedup stage that
            # distinguishes intersection from difference
            lambda: vz.first_occurrence(
                diff_l[vz.membership_mask(diff_l, diff_r)]),
            lambda: naive.first_occurrence(
                diff_l[naive.membership_mask(diff_l, diff_r)]),
            lambda out: len(out)),
        "mergejoin": (
            lambda: ops.join(sel, operands["item_price_sorted"]),
            None, None, lambda out: len(out)),
        "select_scan": (
            lambda: ops.select_range(price, 1000.0, 50000.0),
            None, None, lambda out: len(out)),
    }
    return cases


#: Worker processes per pool when --serve runs without --procs.
DEFAULT_PROCS_SERVE = 2


def _kernel_equal(a, b):
    if isinstance(a, tuple):
        return all(_kernel_equal(x, y) for x, y in zip(a, b))
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        # summation order differs between reduceat and the Python
        # accumulation loop; equality up to float rounding is the spec
        return a.shape == b.shape and bool(
            np.allclose(a, b, rtol=1e-9, atol=0.0))
    return np.array_equal(a, b)


def _load_database(sf, seed, db_dir):
    """(db, source, load seconds, warm flag) honouring the cache dir."""
    started = time.perf_counter()
    if db_dir is not None:
        meta = peek_tpcd_meta(db_dir)
        if meta is not None and meta.get("scale") == sf \
                and meta.get("seed") == seed:
            db, _report = open_tpcd(db_dir)
            source = _operand_source_from_db(db, seed)
            return db, source, time.perf_counter() - started, True
    dataset = generate(scale=sf, seed=seed)
    db, _report = load_tpcd(dataset, db_dir=db_dir)
    return db, _operand_source(dataset), time.perf_counter() - started, \
        False


def _validate_queries(db_dir):
    """Simulated vs real page touches per query, each on a cold mmap.

    Every query gets a *freshly reopened* database, so its mappings
    start with zero resident pages and the smaps deltas are true
    cold-start fault counts for the pages the execution touched.
    """
    validation = {}
    for number in sorted(QUERIES):
        db, _report = open_tpcd(db_dir)
        manager = BufferManager(page_size=PAGESIZE, track_pages=True)
        before = residency_snapshot(db.kernel)
        with use_manager(manager):
            QUERIES[number].run(db)
        rows, totals = residency_report(db.kernel, manager,
                                        before=before)
        entry = {
            "simulated_pages": totals["simulated_pages"],
            "resident_pages": totals["resident_pages"],
            "simulated_faults": int(manager.faults),
        }
        if number == 13:
            # Figure 10's query keeps its per-heap breakdown
            entry["heaps"] = rows
        validation[str(number)] = entry
    return validation


#: Verifier-cost gate floor: at --quick scale query medians are a few
#: milliseconds and 5% of that is below timer resolution, so a
#: verification pass under this absolute wall time always passes —
#: sub-millisecond admission work is negligible whatever the query
#: costs.  The 5% relative gate takes over for queries slower than
#: ``ANALYSIS_FLOOR_MS / 0.05`` (20 ms).
ANALYSIS_FLOOR_MS = 1.0


def _analysis_section(db, serial):
    """Static verification cost per TPC-D plan, gated against runtime.

    Every query's plan(s) — both phases for the two-phase queries —
    are compiled and verified against the kernel catalog.  Two hard
    gates ride on the section: the rewriter's plans are the verifier's
    own acceptance corpus, so any finding is a ``RuntimeError``; and
    verification is admission-time work on the serving path, so its
    wall time must stay under 5% of the query's median runtime
    (floored at ``ANALYSIS_FLOOR_MS`` so --quick-scale timer noise
    cannot trip the gate).  Records per-query verifier milliseconds,
    plan sizes, and the static row/byte/page bounds the admission
    budget checks against.
    """
    stats = catalog_stats_from_kernel(db.kernel)
    section = {"queries": {}, "budget_ok": True,
               "floor_ms": ANALYSIS_FLOOR_MS}
    for number in sorted(QUERIES):
        plans = []
        for text in QUERIES[number].texts():
            _resolved, result = db.compile(text)
            # best of three: the check is deterministic, so its
            # fastest run is its cost — a collector pause landing in
            # a sub-millisecond window must not trip the gate below
            plans.append(min(
                (verify_program(result.program, catalog=stats)
                 for _ in range(3)),
                key=lambda plan: plan.verify_ms))
        findings = [finding for plan in plans
                    for finding in plan.errors + plan.warnings]
        if findings:
            raise RuntimeError(
                "Q%d plan failed static verification: %s"
                % (number, "; ".join(f.render() for f in findings)))
        verify_ms = sum(plan.verify_ms for plan in plans)
        median_ms = float(serial[str(number)]["median_ms"])
        within = verify_ms <= max(0.05 * median_ms, ANALYSIS_FLOOR_MS)
        rows = [plan.max_rows for plan in plans]
        total_bytes = [plan.total_bytes for plan in plans]
        pages = [plan.total_pages for plan in plans]
        section["queries"][str(number)] = {
            "plans": len(plans),
            "stmts": sum(len(plan.program) for plan in plans),
            "verify_ms": round(verify_ms, 4),
            "rows_bound": None if None in rows else max(rows),
            "bytes_bound": None if None in total_bytes
            else sum(total_bytes),
            "pages_bound": None if None in pages else sum(pages),
            "within_budget": within,
        }
        section["budget_ok"] = bool(section["budget_ok"] and within)
    if not section["budget_ok"]:
        slow = sorted(name for name, entry in section["queries"].items()
                      if not entry["within_budget"])
        raise RuntimeError(
            "plan verification exceeded 5%% of the query median for "
            "Q%s — admission-time analysis must stay cheap"
            % ", Q".join(slow))
    return section


def _multiproc_section(db_dir, procs, serial):
    """Fan the query set over worker processes; gate on checksums.

    ``serial`` is the per-query section this run just measured — its
    checksums are the contract: a worker result that differs is a hard
    error (the shared-catalog fan-out must be bit-equivalent to serial
    execution).  Records per-query worker timings/faults, the worker
    pids used, and the pinned catalog generation.  Workers simulate
    page faults only on request, so the timed fan-out runs without
    and a second, accounted one fills the ``faults`` column.
    """
    started = time.perf_counter()
    with MultiprocExecutor(db_dir, procs=procs) as executor:
        outcomes = executor.run_queries()
        generation = executor.generation
        wall_ms = (time.perf_counter() - started) * 1000.0
        accounted = executor.run_queries(buffer_stats=True)
    section = {
        "procs": int(procs),
        "cpus": os.cpu_count() or 1,
        "generation": int(generation),
        "wall_ms": round(wall_ms, 4),
        "workers_used": sorted({outcome.pid
                                for outcome in outcomes.values()}),
        "queries": {},
    }
    serial_total = 0.0
    for number, outcome in sorted(outcomes.items()):
        expected = serial[str(number)]["checksum"]
        if outcome.checksum != expected:
            raise RuntimeError(
                "multiproc result diverged for Q%d: worker pid %d "
                "shipped %s, serial run computed %s"
                % (number, outcome.pid, outcome.checksum, expected))
        serial_total += serial[str(number)]["median_ms"]
        section["queries"][str(number)] = {
            "ms": round(outcome.elapsed_ms, 4),
            "checksum": outcome.checksum,
            "faults": int(accounted[number].stats.faults),
        }
    section["serial_total_ms"] = round(serial_total, 4)
    section["speedup_vs_serial"] = round(
        serial_total / max(wall_ms, 1e-9), 2)
    section["checksums_match"] = True
    return section


def _serve_requests():
    """The closed-loop request mix: one entry per TPC-D query.

    Single-statement queries ship as textual Moa requests (their
    driver is ``db.query(text).rows``, so the served result is
    checksum-identical to the serial entry and the per-worker plan
    cache engages); the two-phase queries (a scalar aggregate feeds a
    literal into the main query) ship as ``tpcd`` requests.
    """
    requests = []
    for number in sorted(QUERIES):
        texts = QUERIES[number].texts()
        if len(texts) == 1:
            requests.append((number, "moa", texts[0]))
        else:
            requests.append((number, "tpcd", None))
    return requests


def _serve_request(client, number, kind, text, buffer_stats=False):
    if kind == "moa":
        return client.moa(text, buffer_stats=buffer_stats)
    return client.tpcd(number, buffer_stats=buffer_stats)


def _serve_section(db_dir, clients_sweep, procs, serial,
                   rounds=SERVE_ROUNDS):
    """Closed-loop load generation through the socket server.

    ``serial`` is the per-query section this run just measured; its
    checksums are the contract every served reply is diffed against.
    Each concurrency level spins that many clients (threads, one
    connection each); a client executes the full request mix
    ``rounds`` times.  Latencies are whole-request (client-observed)
    milliseconds.  The sweep times the default path, on which workers
    simulate no page faults; one accounted lap of the mix afterwards
    (``buffer_stats=True``) fills the section's ``buffer`` totals.
    """
    from ..server import QueryClient, QueryServer, QueryService

    requests = _serve_requests()
    section = {
        "procs": int(procs),
        "cpus": os.cpu_count() or 1,
        "rounds": int(rounds),
        "clients_swept": [int(count) for count in clients_sweep],
        "sweep": {},
    }
    service = QueryService(db_dir, procs=procs,
                           max_inflight=max(8, *clients_sweep),
                           max_queue=64)
    try:
        with QueryServer(service) as server:
            host, port = server.address
            resilience = {"client_retries": 0, "client_reconnects": 0}
            for clients in clients_sweep:
                latencies = []
                failures = []
                lock = threading.Lock()

                def _client_loop():
                    local = []
                    try:
                        # retry-enabled, like a production client: any
                        # transient reconnect/backoff shows up in the
                        # resilience counters instead of failing the run
                        with QueryClient(host, port, retries=2,
                                         backoff_base=0.02) as client:
                            for _ in range(rounds):
                                for number, kind, text in requests:
                                    sent = time.perf_counter()
                                    reply = _serve_request(
                                        client, number, kind, text)
                                    # client-observed: framing, wire,
                                    # decode + sha1 re-verify included
                                    request_ms = (time.perf_counter()
                                                  - sent) * 1000.0
                                    expected = \
                                        serial[str(number)]["checksum"]
                                    if reply.checksum != expected:
                                        raise RuntimeError(
                                            "served result diverged "
                                            "for Q%d: got %s, serial "
                                            "run computed %s"
                                            % (number, reply.checksum,
                                               expected))
                                    local.append(request_ms)
                    except BaseException as exc:   # noqa: BLE001
                        with lock:
                            failures.append(exc)
                        return
                    with lock:
                        latencies.extend(local)
                        resilience["client_retries"] += \
                            client.retries_used
                        resilience["client_reconnects"] += \
                            client.reconnects

                started = time.perf_counter()
                threads = [threading.Thread(target=_client_loop,
                                            name="serve-client-%d" % i)
                           for i in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall_ms = (time.perf_counter() - started) * 1000.0
                if failures:
                    raise failures[0]
                entry = {
                    "clients": int(clients),
                    "requests": len(latencies),
                    "wall_ms": round(wall_ms, 4),
                    "qps": round(len(latencies)
                                 / max(wall_ms / 1000.0, 1e-9), 2),
                }
                entry.update({"%s_ms" % name: value for name, value
                              in percentiles(latencies).items()})
                section["sweep"][str(clients)] = entry
            with QueryClient(host, port) as client:
                for number, kind, text in requests:
                    _serve_request(client, number, kind, text,
                                   buffer_stats=True)
            stats = service.stats()
    finally:
        service.close()
    section["plan_cache"] = stats["plan_cache"]
    section["result_cache"] = stats["result_cache"]
    section["buffer"] = stats["buffer"]
    section["counters"] = stats["counters"]
    counters = stats["counters"]
    resilience.update({
        "crash_retries": counters.get("crash_retries", 0),
        "shed": counters.get("overloads", 0),
        "quota_rejections": counters.get("quota_rejections", 0),
        "drain_rejections": counters.get("drain_rejections", 0),
        "auth_failures": counters.get("auth_failures", 0),
        "errors": counters.get("errors", 0),
    })
    section["resilience"] = resilience
    if counters.get("errors", 0):
        # hard gate: with no faults armed, a healthy sweep must not
        # record a single unexplained execution error
        raise RuntimeError("serve sweep recorded %d unexplained "
                           "server-side errors" % counters["errors"])
    section["generation"] = int(
        max(int(generation) for generation in stats["pools"])
        if stats["pools"] else 0)
    if rounds > 1 and stats["plan_cache"]["hits"] == 0:
        # the acceptance observable: repeated rounds of identical Moa
        # texts must hit the per-worker plan caches
        raise RuntimeError("serve sweep recorded zero plan-cache hits "
                           "across %d rounds" % rounds)
    section["checksums_match"] = True
    return section


#: Rounds of the request mix each wire-format client runs (>= 2, so
#: the second round observes the byte-weighted result cache).
WIRE_ROUNDS = 2

#: Result-cache budget for the wire sweep (bytes).  Small on purpose:
#: the sweep gates that the cache never exceeds it.
WIRE_CACHE_BUDGET = 4 << 20


def _wire_program():
    """A column-shipping MIL request: a 64 KiB int64 window scaled
    through multiplex.  TPC-D results are short row lists, where the
    wire format barely matters; this is the payload shape the binary
    wire exists for (raw little-endian buffers vs base64-in-JSON)."""
    from ..monet import MILProgram, Var

    program = MILProgram()
    window = program.emit("slice", [Var("Item_quantity"), 0, 8191])
    program.emit("multiplex", [window, 1], fn="*", target="col")
    return program


def _wire_section(db_dir, procs, serial, rounds=WIRE_ROUNDS):
    """Wire-format comparison: the same request mix over the JSON and
    binary wires plus the local mmap spool fast path, one client per
    mode, every reply checksum-diffed across modes and (for the TPC-D
    entries) against this run's serial checksums.

    Runs against its own service with a byte-weighted result cache so
    the sweep also gates the cache contract: the second round of each
    mode must hit, and the cache may never exceed its budget.  Hard
    gates (RuntimeError): cross-mode checksum divergence, binary reply
    bytes exceeding JSON reply bytes, cache over budget, zero cache
    hits.
    """
    from ..server import QueryClient, QueryServer, QueryService

    requests = _serve_requests()
    program = _wire_program()
    section = {
        "budget_bytes": WIRE_CACHE_BUDGET,
        "rounds": int(rounds),
        "modes": {},
    }
    checksums = {}
    spool_dir = tempfile.mkdtemp(prefix="repro-bench-spool-")
    service = QueryService(db_dir, procs=procs,
                           result_cache_bytes=WIRE_CACHE_BUDGET)
    try:
        with QueryServer(service, spool_dir=spool_dir) as server:
            host, port = server.address
            for mode in ("json", "binary", "spool"):
                wire = "json" if mode == "json" else "binary"
                latencies = []
                seen = {}
                with QueryClient(host, port, wire=wire,
                                 spool=(mode == "spool"),
                                 spool_threshold=0) as client:
                    if client.wire != wire:
                        raise RuntimeError(
                            "wire negotiation degraded to %r while "
                            "sweeping %r" % (client.wire, mode))
                    started = time.perf_counter()
                    for _ in range(rounds):
                        for number, kind, text in requests:
                            sent = time.perf_counter()
                            reply = _serve_request(
                                client, number, kind, text)
                            latencies.append(
                                (time.perf_counter() - sent) * 1000.0)
                            expected = serial[str(number)]["checksum"]
                            if reply.checksum != expected:
                                raise RuntimeError(
                                    "%s wire diverged for Q%d: got "
                                    "%s, serial run computed %s"
                                    % (mode, number, reply.checksum,
                                       expected))
                            seen["q%d" % number] = reply.checksum
                        sent = time.perf_counter()
                        reply = client.mil(program, ["col"])
                        latencies.append(
                            (time.perf_counter() - sent) * 1000.0)
                        seen["mil_col"] = reply.checksum
                    wall_ms = (time.perf_counter() - started) * 1000.0
                    entry = {
                        "wire": client.wire,
                        "spool": client.spooling,
                        "requests": len(latencies),
                        "reply_bytes": int(client.bytes_received),
                        "spool_bytes": int(client.spool_bytes),
                        "wall_ms": round(wall_ms, 4),
                        "qps": round(len(latencies)
                                     / max(wall_ms / 1000.0, 1e-9), 2),
                    }
                    entry.update({"%s_ms" % name: value for name, value
                                  in percentiles(latencies).items()})
                section["modes"][mode] = entry
                checksums[mode] = seen
            cache = service.stats()["result_cache"]
    finally:
        service.close()
        shutil.rmtree(spool_dir, ignore_errors=True)
    for mode, seen in checksums.items():
        if seen != checksums["json"]:
            raise RuntimeError(
                "wire sweep checksum divergence between json and %s: "
                "%r vs %r" % (mode, checksums["json"], seen))
    json_bytes = section["modes"]["json"]["reply_bytes"]
    binary_bytes = section["modes"]["binary"]["reply_bytes"]
    if binary_bytes > json_bytes:
        raise RuntimeError(
            "binary wire shipped more reply bytes than JSON "
            "(%d > %d)" % (binary_bytes, json_bytes))
    if cache["bytes"] > cache["budget_bytes"] \
            or cache["peak_bytes"] > cache["budget_bytes"]:
        raise RuntimeError(
            "result cache exceeded its byte budget: %r" % (cache,))
    if rounds > 1 and cache["hits"] == 0:
        raise RuntimeError("wire sweep recorded zero result-cache "
                           "hits across %d rounds" % rounds)
    section["result_cache"] = cache
    section["checksums_match"] = True
    return section


def _sql_section(db, serial, reps):
    """Per-query SQL-front-end latency vs the direct Moa plans.

    Every reproduced TPC-D query also exists as SQL text
    (:mod:`repro.sql.suite`); this section prepares each one (parse ->
    bind -> lower, hole-free phases compiled once) and times the
    prepared execution, next to the Moa path's median this run just
    measured.  The gate is hard: the SQL path's result checksum must
    be byte-identical to the serial Moa entry — a lowering that drifts
    from the hand-written plans fails the bench run, not just a test.
    """
    from ..sql.runtime import prepare_sql
    from ..sql.suite import sql_queries
    section = {"queries": {}, "checksums_match": True}
    for number, text in sorted(sql_queries().items()):
        prepared = prepare_sql(db, text)
        rows = prepared.run()
        checksum = result_checksum(ship_value(rows))
        expected = serial[str(number)]["checksum"]
        if checksum != expected:
            raise RuntimeError(
                "SQL/Moa checksum divergence for Q%d: the SQL "
                "front-end computed %s, the Moa path %s"
                % (number, checksum, expected))
        times = _times_ms(prepared.run, reps)
        median = statistics.median(times)
        moa_ms = float(serial[str(number)]["median_ms"])
        section["queries"][str(number)] = {
            "median_ms": round(median, 4),
            "moa_ms": round(moa_ms, 4),
            "overhead": round(median / max(moa_ms, 1e-9), 2),
            "phases": len(prepared.lowered.phases),
            "checksum": checksum,
        }
    return section


def run(sf, reps, quick, out_path, db_dir=None, validate=False,
        seed=DEFAULT_SEED, procs=0, serve_sweep=()):
    db, source, load_s, warm = _load_database(sf, seed, db_dir)
    operands = _operand_bats(source)
    # mergejoin inner: head-ordered + key [oid, extendedprice]
    operands["item_price_sorted"] = operands["item_price"]

    results = {
        "meta": {
            "sf": sf,
            "reps": reps,
            "quick": quick,
            "rows_item": int(len(source["item_order"])),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count() or 1,
        },
        "load": {
            "warm_start": warm,
            "seconds": round(load_s, 4),
            "db_dir": db_dir,
        },
        "operators": {},
        "queries": {},
    }

    cases = _operator_cases(operands)
    for name, (op_fn, kernel_fn, ref_fn, rows_of) in sorted(
            cases.items()):
        entry = {
            "median_ms": round(_median_ms(op_fn, reps), 4),
            "rows": int(rows_of(op_fn())),
            "faults": int(_faults(op_fn)),
        }
        if kernel_fn is not None:
            assert _kernel_equal(kernel_fn(), ref_fn()), \
                "kernel/reference mismatch for %s" % name
            entry["kernel_ms"] = round(_median_ms(kernel_fn, reps), 4)
            entry["reference_ms"] = round(_median_ms(ref_fn, reps), 4)
            entry["speedup"] = round(
                entry["reference_ms"] / max(entry["kernel_ms"], 1e-9), 2)
        results["operators"][name] = entry

    for number in sorted(QUERIES):
        query = QUERIES[number]
        rows = query.run(db)
        if rows is None:
            shape = 0
        elif isinstance(rows, (int, float)):
            shape = 1
        else:
            shape = len(rows)
        times = _times_ms(lambda q=query: q.run(db), reps)
        entry = {
            "median_ms": round(statistics.median(times), 4),
            "faults": int(measure_query_faults(db, query)),
            "rows": int(shape),
            # canonical sha1 of the result rows — the equality contract
            # the multiproc section (and the CI cross-run diff) asserts
            "checksum": result_checksum(ship_value(rows)),
        }
        # tail latency over the reps, the serving-layer observable
        entry.update({"%s_ms" % name: value for name, value
                      in percentiles(times).items()})
        results["queries"][str(number)] = entry

    results["analysis"] = _analysis_section(db, results["queries"])
    results["sql"] = _sql_section(db, results["queries"], reps)

    if procs and db_dir is not None:
        results["multiproc"] = _multiproc_section(
            db_dir, procs, results["queries"])

    if serve_sweep and db_dir is not None:
        results["serve"] = _serve_section(
            db_dir, list(serve_sweep), procs or DEFAULT_PROCS_SERVE,
            results["queries"])
        results["serve"]["wire"] = _wire_section(
            db_dir, procs or DEFAULT_PROCS_SERVE, results["queries"])

    if validate and db_dir is not None:
        results["residency"] = _validate_queries(db_dir)

    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return results


def find_regressions(previous, results, factor=REGRESSION_FACTOR,
                     floor_ms=REGRESSION_FLOOR_MS):
    """Medians that regressed >``factor``x vs the previous trajectory.

    Only comparable runs are checked: same scale factor, same mode,
    and same start temperature — a warm (mmap reopen) and a cold
    (dbgen + load) run differ by page-cache state alone, enough to
    shift medians ~2x without any code regression.  Entries new in
    this run are skipped.  Returns a list of human-readable
    regression descriptions (empty = gate passes).
    """
    if not isinstance(previous, dict):
        return []
    prev_meta = previous.get("meta", {})
    if prev_meta.get("sf") != results["meta"]["sf"] \
            or prev_meta.get("quick") != results["meta"]["quick"]:
        return []
    if previous.get("load", {}).get("warm_start") != \
            results.get("load", {}).get("warm_start"):
        return []
    regressions = []
    for section in ("operators", "queries"):
        for name, entry in sorted(results.get(section, {}).items()):
            old = previous.get(section, {}).get(name, {}).get("median_ms")
            new = entry.get("median_ms")
            if old is None or new is None:
                continue
            baseline = max(float(old), floor_ms)
            if float(new) > factor * baseline:
                regressions.append(
                    "%s/%s: %.3f ms vs %.3f ms baseline (>%.1fx)"
                    % (section, name, new, old, factor))
    return regressions


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="operator + Figure 9 benchmark regression harness")
    parser.add_argument("--sf", type=float, default=None,
                        help="TPC-D scale factor (default %s)"
                             % DEFAULT_SF)
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per measurement (median)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny SF, 2 reps")
    parser.add_argument("--out", default=None,
                        help="output path (default "
                             "<repo>/BENCH_operators.json)")
    parser.add_argument("--db-dir", default=None,
                        help="persistent database cache: first run "
                             "saves the loaded TPC-D database there, "
                             "later runs reopen it via mmap and skip "
                             "dbgen entirely")
    parser.add_argument("--validate", action="store_true",
                        help="compare simulated page faults against "
                             "real resident-set deltas of the mapped "
                             "heap files (needs --db-dir)")
    parser.add_argument("--procs", type=int, default=0, metavar="N",
                        help="fan the TPC-D query set across N worker "
                             "processes sharing the --db-dir catalog "
                             "(each worker mmap-reopens the pinned "
                             "generation); per-query sha1 checksums "
                             "are asserted identical to the serial "
                             "run and a 'multiproc' section is "
                             "recorded.  0 (default) skips the sweep")
    parser.add_argument("--serve", action="append", type=int,
                        default=None, metavar="N",
                        help="closed-loop client count for the query-"
                             "service sweep; repeatable (--serve 1 "
                             "--serve 4).  Each count drives the full "
                             "TPC-D query set through a socket server "
                             "started on the --db-dir catalog; reply "
                             "checksums are asserted identical to the "
                             "serial run and a 'serve' section records "
                             "p50/p95/p99 request latencies per "
                             "concurrency.  Needs --db-dir; omitted = "
                             "no serve sweep")
    parser.add_argument("--no-regression-check", action="store_true",
                        help="do not fail on >%gx median regressions "
                             "vs the previous JSON" % REGRESSION_FACTOR)
    args = parser.parse_args(argv)

    sf = args.sf if args.sf is not None else \
        (QUICK_SF if args.quick else DEFAULT_SF)
    reps = args.reps if args.reps is not None else \
        (2 if args.quick else 5)
    if reps < 1:
        parser.error("--reps must be at least 1")
    if args.validate and args.db_dir is None:
        parser.error("--validate needs --db-dir")
    if args.procs < 0:
        parser.error("--procs must be >= 0")
    if args.procs and args.db_dir is None:
        parser.error("--procs needs --db-dir (workers reopen the "
                     "saved catalog)")
    serve_sweep = tuple(args.serve) if args.serve else ()
    if serve_sweep and args.db_dir is None:
        parser.error("--serve needs --db-dir (the server workers "
                     "reopen the saved catalog)")
    if any(clients < 1 for clients in serve_sweep):
        parser.error("--serve client counts must be at least 1")
    out_path = args.out
    if out_path is None:
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        out_path = os.path.join(repo_root, "BENCH_operators.json")
    out_dir = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(out_dir):
        parser.error("output directory does not exist: %s" % out_dir)

    previous = None
    if not args.no_regression_check and os.path.exists(out_path):
        try:
            with open(out_path) as handle:
                previous = json.load(handle)
        except ValueError:
            previous = None

    results = run(sf, reps, args.quick, out_path, db_dir=args.db_dir,
                  validate=args.validate, procs=args.procs, serve_sweep=serve_sweep)
    ops_table = results["operators"]
    print("BENCH sf=%s reps=%d -> %s" % (sf, reps, out_path))
    print("  load: %s in %.2fs"
          % ("warm (mmap reopen)" if results["load"]["warm_start"]
             else "cold (dbgen + load)", results["load"]["seconds"]))
    for name, entry in sorted(ops_table.items()):
        extra = ""
        if "speedup" in entry:
            extra = "  kernel %.3fms vs naive %.3fms (%.1fx)" % (
                entry["kernel_ms"], entry["reference_ms"],
                entry["speedup"])
        print("  %-12s %8.3f ms  rows=%-7d faults=%-6d%s"
              % (name, entry["median_ms"], entry["rows"],
                 entry["faults"], extra))
    slowest = max(results["queries"].items(),
                  key=lambda kv: kv[1]["median_ms"])
    print("  %d queries; slowest Q%s at %.1f ms"
          % (len(results["queries"]), slowest[0],
             slowest[1]["median_ms"]))
    section = results["analysis"]
    print("  analysis: %d plans (%d stmts) verified clean in %.2f ms "
          "total, budget_ok=%s"
          % (sum(entry["plans"]
                 for entry in section["queries"].values()),
             sum(entry["stmts"]
                 for entry in section["queries"].values()),
             sum(entry["verify_ms"]
                 for entry in section["queries"].values()),
             section["budget_ok"]))
    if "multiproc" in results:
        section = results["multiproc"]
        print("  multiproc sweep: %d queries across %d procs "
              "(%d worker pids, generation %d) in %.1f ms wall — "
              "all checksums identical to serial (x%.2f vs summed "
              "serial medians)"
              % (len(section["queries"]), section["procs"],
                 len(section["workers_used"]), section["generation"],
                 section["wall_ms"], section["speedup_vs_serial"]))
    if "serve" in results:
        section = results["serve"]
        print("  serve sweep (%d procs, %d rounds, plan-cache hit "
              "rate %.0f%%, all checksums identical to serial):"
              % (section["procs"], section["rounds"],
                 100.0 * section["plan_cache"]["hit_rate"]))
        for clients, entry in sorted(section["sweep"].items(),
                                     key=lambda kv: int(kv[0])):
            print("    clients=%-3s %5d requests  %8.1f ms wall  "
                  "%7.1f q/s  p50=%.2fms p95=%.2fms p99=%.2fms"
                  % (clients, entry["requests"], entry["wall_ms"],
                     entry["qps"], entry["p50_ms"], entry["p95_ms"],
                     entry["p99_ms"]))
        wire = section.get("wire")
        if wire:
            cache = wire["result_cache"]
            print("  wire sweep (result cache %d/%d bytes peak, "
                  "%d hits, all checksums identical across modes):"
                  % (cache["peak_bytes"], cache["budget_bytes"],
                     cache["hits"]))
            for mode, entry in sorted(wire["modes"].items()):
                print("    %-6s %5d requests  %8d reply bytes  "
                      "%7.1f q/s  p50=%.2fms p95=%.2fms"
                      % (mode, entry["requests"], entry["reply_bytes"],
                         entry["qps"], entry["p50_ms"],
                         entry["p95_ms"]))
    if "residency" in results:
        print("  residency validation (simulated vs real pages):")
        for number, entry in sorted(results["residency"].items(),
                                    key=lambda kv: int(kv[0])):
            print("    Q%-3s sim=%-7d real=%-7d"
                  % (number, entry["simulated_pages"],
                     entry["resident_pages"]))

    regressions = find_regressions(previous, results)
    if regressions:
        # keep the last good trajectory as the baseline — otherwise a
        # regressed run becomes its own baseline and the gate only
        # fires once; the failing run is preserved next to it
        failed_path = out_path + ".regressed"
        os.replace(out_path, failed_path)
        with open(out_path, "w") as handle:
            json.dump(previous, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("REGRESSION: %d median(s) regressed >%gx "
              "(failing run kept at %s):"
              % (len(regressions), REGRESSION_FACTOR, failed_path))
        for line in regressions:
            print("  " + line)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
