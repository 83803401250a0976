"""The traced pass: each workload's templates replayed up an
outside-in ladder of the layers' public entry points.

Never mixed into the end-to-end numbers.  Four rungs, every call
wrapped by the benchmark's own recorder (:mod:`spans`):

A. in-process, layer by layer: ``parse_sql`` -> ``lower_sql`` ->
   ``resolve`` -> ``rewrite`` -> ``check_program`` ->
   ``MILInterpreter.run(trace=True)`` (its ``MILTrace`` rows become
   ``operators.<op>`` child spans) -> ``Materializer.top_level`` ->
   ``ship_value`` -> ``pickle`` -> ``result_checksum`` ->
   ``encode_binary_message`` -> ``decode_binary_message`` /
   ``decode_value`` -> the client's re-checksum;
B. the same request through ``MultiprocExecutor.submit``;
C. through an in-process ``QueryService.session().execute``;
D. through ``QueryClient`` against the server subprocess.

A rung's self time is its span minus what the rung below reported for
the *same request* through public return fields only
(``TaskOutcome.elapsed_ms``, the response's ``elapsed_ms``,
``ClientReply.service_ms``) — never a span from another process
instance, whose execution time differs by more than the overheads
being measured.
"""

import os
import pickle
import shutil
import statistics
import time

import spans
import workloads as wl      # first: it puts src/ on sys.path for repro
from repro.analysis.verify import (PlanBudget, catalog_stats_from_kernel,
                                   check_program)
from repro.moa.rewriter import rewrite
from repro.moa.structures import Materializer
from repro.moa.typecheck import resolve
from repro.monet import MILInterpreter
from repro.monet.buffer import BufferManager, use
from repro.monet.multiproc import (MultiprocExecutor, result_checksum,
                                   run_program_serial, ship_value)
from repro.server import QueryClient, QueryService
from repro.server.protocol import (decode_binary_message, decode_value,
                                   encode_binary_message, encode_program)
from repro.sql import lower_sql, parse_sql, prepare_sql
from repro.sql.runtime import eval_py, fill_holes
from repro.tpcd import generate, load_tpcd, open_tpcd, save_tpcd

#: Timed passes over the templates per rung, at least.
MIN_PASSES = 10

#: Unrecorded passes before each rung (lazy set-up done, and both
#: workers have seen every text).
WARMUP_PASSES = 2

#: Ad-hoc draws replayed per template group (a fixed sample).
ADHOC_SAMPLE = 2

COMPILE = ("sql.parse", "sql.lower", "moa.resolve", "moa.rewrite",
           "analysis.verify")
SHIP = ("multiproc.ship", "multiproc.pickle", "multiproc.checksum")
WIRE = ("protocol.encode", "protocol.decode", "client.verify")


def _passes(seconds, at_least):
    started = time.perf_counter()
    done = 0
    while done < at_least or time.perf_counter() - started < seconds:
        yield done
        done += 1


class Ladder:
    """State of one traced workload: the recorder, the in-process
    database, and exact per-template counts from rung A."""

    def __init__(self, workload, templates, db, db_dir):
        self.workload = workload
        self.templates = templates
        self.db = db
        self.db_dir = db_dir
        self.recorder = spans.Recorder()
        self.budget = PlanBudget(max_rows=2 ** 62)
        self.catalog = catalog_stats_from_kernel(db.kernel)
        self.counts = {}            # template index -> {count: n}
        self.top_stmt = {}          # template index -> (text, ms)
        self.untraced = {}          # template index -> [ms]
        self.attempted = 0
        self.failures = []

    def check(self, rung, template, checksum):
        self.attempted += 1
        if checksum != template.expected:
            self.failures.append("%s %s: checksum mismatch"
                                 % (rung, template.group))

    # -- rung A --------------------------------------------------------
    def _run_program(self, program, counts, top):
        """``mil.run`` span with one child per executed statement."""
        interpreter = MILInterpreter(self.db.kernel)
        with self.recorder.span("mil.run") as run:
            trace = interpreter.run(program, trace=True)
        self.recorder.add_children(run, [
            ("operators." + stmt.op, row.elapsed_ms)
            for stmt, row in zip(program, trace.rows)])
        counts["moa.mil_stmts"] += len(program)
        counts["mil.stmts_run"] += len(trace.rows)
        counts["operators.buns"] += sum(row.size or 0
                                        for row in trace.rows)
        top.extend((row.elapsed_ms, row.text) for row in trace.rows)
        return interpreter

    def _execute_sql(self, template, counts, top):
        span = self.recorder.span
        with span("sql.parse"):
            tree = parse_sql(template.text)
        with span("sql.lower"):
            lowered = lower_sql(tree)
        counts["sql.phases"] += len(lowered.phases)
        values = []
        for phase in lowered.phases:
            if phase.kind == "py":
                values.append(eval_py(phase.expr, values))
                continue
            tree = fill_holes(phase.tree, values) if phase.has_holes \
                else phase.tree
            with span("moa.resolve"):
                resolved = resolve(tree, self.db.schema)
            with span("moa.rewrite"):
                compiled = rewrite(resolved, self.db.flat, verify=False)
            # the two checks the system makes: the rewriter's own, and
            # the admission check against the budget
            with span("analysis.verify"):
                check_program(compiled.program, catalog=self.catalog)
                plan = check_program(compiled.program,
                                     catalog=self.catalog,
                                     budget=self.budget)
            counts["analysis.findings"] += len(plan.findings)
            interpreter = self._run_program(compiled.program, counts, top)
            if compiled.scalar_var is not None:
                values.append(interpreter.value(compiled.scalar_var))
            else:
                with span("moa.materialize"):
                    values.append(Materializer(
                        interpreter.resolve).top_level(compiled.rep))
        return values[-1]

    def _execute_mil(self, template, counts, top):
        with self.recorder.span("analysis.verify"):
            plan = check_program(template.program, catalog=self.catalog,
                                 budget=self.budget,
                                 roots=set(template.fetch))
        counts["analysis.findings"] += len(plan.findings)
        interpreter = self._run_program(template.program, counts, top)
        return {name: interpreter.value(name) for name in template.fetch}

    def _untraced(self, template):
        """The same public calls with no span and no MIL trace."""
        started = time.perf_counter()
        if template.kind == "sql":
            prepare_sql(self.db, template.text, budget=self.budget,
                        catalog=self.catalog).run()
        else:
            check_program(template.program, catalog=self.catalog,
                          budget=self.budget, roots=set(template.fetch))
            MILInterpreter(self.db.kernel).run(template.program)
        return (time.perf_counter() - started) * 1000.0

    def in_process(self, index, template, rep):
        span = self.recorder.span
        counts = dict.fromkeys(
            ("sql.phases", "moa.mil_stmts", "mil.stmts_run",
             "operators.buns", "analysis.findings"), 0)
        top = []
        with self.recorder.request("A/%d/%d" % (index, rep)), \
                span("ladder.inprocess"):
            with span("request.execute"):
                if template.kind == "sql":
                    value = self._execute_sql(template, counts, top)
                    rows = len(value) if isinstance(value, list) else 1
                else:
                    value = self._execute_mil(template, counts, top)
                    rows = max(len(bat) for bat in value.values())
            with span("multiproc.ship"):
                if template.kind == "sql":
                    canonical = ship_value(value)
                else:
                    canonical = {name: ship_value(bat)
                                 for name, bat in value.items()}
            with span("multiproc.pickle"):
                blob = pickle.dumps(canonical)
                canonical = pickle.loads(blob)
            with span("multiproc.checksum"):
                checksum = result_checksum(canonical)
            response = {"type": "result", "checksum": checksum,
                        "payload": canonical}
            with span("protocol.encode"):
                body = encode_binary_message(response)
            with span("protocol.decode"):
                payload = decode_value(
                    decode_binary_message(body)["payload"])
            with span("client.verify"):
                checksum = result_checksum(payload)
        self.check("in-process", template, checksum)
        counts["moa.rows_out"] = rows
        counts["multiproc.pickle_bytes"] = len(blob)
        self.counts[index] = counts
        self.top_stmt[index] = max(top)
        if rep >= 0:
            self.untraced.setdefault(index, []).append(
                self._untraced(template))

    def cold_faults(self):
        """Simulated cold page faults: one run of every template under
        a fresh buffer manager (a count; repeats exactly at one seed)."""
        faults = 0
        for template in self.templates:
            manager = BufferManager()
            with use(manager):
                if template.kind == "sql":
                    prepare_sql(self.db, template.text).run()
                else:
                    run_program_serial(self.db.kernel, template.program,
                                       template.fetch)
            faults += manager.faults
        return faults

    # -- rungs B, C, D -------------------------------------------------
    def task(self, template, key):
        if template.kind == "sql":
            return ("sql", key, template.text)
        return ("mil", key, template.program, list(template.fetch))

    def request(self, template):
        if template.kind == "sql":
            return {"type": "sql", "query": template.text}
        return {"type": "mil", "fetch": list(template.fetch),
                "program": encode_program(template.program)}

    def climb(self, seconds, passes):
        """Run the four rungs; returns the counters read off the
        executor, the service and the client."""

        recorder = self.recorder
        indexed = list(enumerate(self.templates))
        share = seconds / 4.0
        observed = {}

        for rep in _passes(share, passes + WARMUP_PASSES):
            for index, template in indexed:
                self.in_process(index, template, rep - WARMUP_PASSES)

        with MultiprocExecutor(
                self.db_dir, procs=wl.PROCS,
                task_modules=("repro.server.tasks",)) as executor:
            for rep in _passes(share, passes + WARMUP_PASSES):
                for index, template in indexed:
                    key = "B/%d/%d" % (index, rep - WARMUP_PASSES)
                    with recorder.request(key), \
                            recorder.span("multiproc.submit") as span:
                        outcome = executor.submit(
                            self.task(template, key)).result()
                    span["worker_ms"] = outcome.elapsed_ms
                    self.check("executor", template, outcome.checksum)
            observed.update(crashes=executor.crashes,
                            respawns=executor.respawns,
                            timeouts=executor.timeouts)

        with QueryService(self.db_dir, procs=wl.PROCS) as service:
            with service.session() as session:
                for rep in _passes(share, passes + WARMUP_PASSES):
                    for index, template in indexed:
                        key = "C/%d/%d" % (index, rep - WARMUP_PASSES)
                        with recorder.request(key), \
                                recorder.span("service.execute") as span:
                            response = session.execute(
                                self.request(template))
                        span["worker_ms"] = response["elapsed_ms"]
                        self.check("service", template,
                                   response["checksum"])
            stats = service.stats()
            observed.update(
                plan_cache_hit_rate=stats["plan_cache"]["hit_rate"],
                overloads=stats["counters"]["overloads"],
                errors=stats["counters"]["errors"])

        server = wl.Server(self.db_dir, os.path.dirname(self.db_dir))
        try:
            with QueryClient(*server.address, retries=2,
                             backoff_base=0.02) as client:
                for rep in _passes(share, passes + WARMUP_PASSES):
                    for index, template in indexed:
                        key = "D/%d/%d" % (index, rep - WARMUP_PASSES)
                        received = client.bytes_received
                        with recorder.request(key), \
                                recorder.span("client.request") as span:
                            if template.kind == "sql":
                                reply = client.sql(template.text)
                            else:
                                reply = client.mil(template.program,
                                                   template.fetch)
                        span["service_ms"] = reply.service_ms
                        span["bytes"] = client.bytes_received - received
                        self.check("client", template, reply.checksum)
                pids = [pid for pool in client.stats()["pools"].values()
                        for pid in pool["pids"]]
                observed.update(
                    bytes_received=client.bytes_received,
                    retries_used=client.retries_used,
                    reconnects=client.reconnects,
                    peak_rss_mb=server.peak_rss_mb(pids))
        finally:
            server.stop()
        return observed


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _per_request(recorded):
    """{request id: {span name: summed ms}}, plus ``self:<name>`` self
    times and the span attributes.  Warm-up passes (negative pass
    numbers) are dropped."""
    own = spans.self_times(recorded)
    requests = {}
    for span in recorded:
        _rung, _index, rep = span["request"].split("/")
        if int(rep) < 0:
            continue
        entry = requests.setdefault(span["request"], {})
        for name, value in ((span["name"], span["duration_ms"]),
                            ("self:" + span["name"], own[span["id"]])):
            entry[name] = entry.get(name, 0.0) + value
        for attribute in ("worker_ms", "service_ms", "bytes"):
            if attribute in span:
                entry[attribute] = span[attribute]
    return requests


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def aggregate(ladder, observed, phases):
    """The per-layer metrics, the per-template waterfall and the
    by-operator totals of one traced workload."""
    requests = _per_request(ladder.recorder.spans)
    by_rung = {}
    for request_id, entry in requests.items():
        rung, index, _rep = request_id.split("/")
        by_rung.setdefault(rung, {}).setdefault(int(index), []) \
            .append(entry)

    def per_op(rung, *names):
        """Median over every op of the rung of the summed spans."""
        return _median(sum(entry.get(name, 0.0) for name in names)
                       for entries in by_rung[rung].values()
                       for entry in entries)

    def per_template(rung, index, fn):
        return _median(fn(entry) for entry in by_rung[rung][index])

    def outside_worker(span_name):
        """What a rung's span spent outside the worker's own timer."""
        return lambda entry: entry[span_name] - entry["worker_ms"]

    dispatch = {index: per_template("B", index,
                                    outside_worker("multiproc.submit"))
                for index in by_rung["B"]}
    counts = ladder.counts.values()

    def total(name):
        return sum(count[name] for count in counts)

    overheads = []
    for index, entries in by_rung["A"].items():
        traced = _median(e["request.execute"] for e in entries)
        overheads.append(traced / statistics.median(
            ladder.untraced[index]) - 1.0)
    rows_out = total("moa.rows_out")
    reply_bytes = per_op("D", "bytes")
    metrics = {
        "sql.parse_ms": per_op("A", "sql.parse"),
        "sql.lower_ms": per_op("A", "sql.lower"),
        "sql.phases": total("sql.phases"),
        "moa.resolve_ms": per_op("A", "moa.resolve"),
        "moa.rewrite_ms": per_op("A", "moa.rewrite"),
        "moa.materialize_ms": per_op("A", "moa.materialize"),
        "moa.mil_stmts": total("moa.mil_stmts"),
        "moa.rows_out": rows_out,
        "analysis.verify_ms": per_op("A", "analysis.verify"),
        "analysis.findings": total("analysis.findings"),
        "mil.run_ms": per_op("A", "mil.run"),
        "mil.interp_overhead_ms": per_op("A", "self:mil.run"),
        "mil.stmts_run": total("mil.stmts_run"),
        "operators.kernel_ms": _median(
            entry["mil.run"] - entry["self:mil.run"]
            for entries in by_rung["A"].values() for entry in entries),
        "operators.buns": total("operators.buns"),
        "buffer.faults": phases["cold_faults"],
        "storage.open_ms": phases["open_ms"],
        "storage.bytes_on_disk": phases["bytes_on_disk"],
        "multiproc.dispatch_ms": _median(
            outside_worker("multiproc.submit")(entry)
            for entries in by_rung["B"].values() for entry in entries),
        "multiproc.ship_ms": per_op("A", "multiproc.ship"),
        "multiproc.pickle_ms": per_op("A", "multiproc.pickle"),
        "multiproc.checksum_ms": per_op("A", "multiproc.checksum"),
        "multiproc.pickle_bytes": total("multiproc.pickle_bytes"),
        "multiproc.crashes": observed["crashes"],
        "multiproc.respawns": observed["respawns"],
        "multiproc.timeouts": observed["timeouts"],
        "service.overhead_ms": _median(
            outside_worker("service.execute")(entry) - dispatch[index]
            for index, entries in by_rung["C"].items()
            for entry in entries),
        "service.plan_cache_hit_rate": observed["plan_cache_hit_rate"],
        "service.overloads": observed["overloads"],
        "service.errors": observed["errors"],
        "protocol.encode_ms": per_op("A", "protocol.encode"),
        "protocol.decode_ms": per_op("A", "protocol.decode"),
        "protocol.reply_bytes": reply_bytes,
        "protocol.bytes_per_row": sum(
            per_template("D", index, lambda e: e["bytes"])
            for index in by_rung["D"]) / max(1, rows_out),
        "client.overhead_ms": _median(
            entry["client.request"] - entry["service_ms"]
            for entries in by_rung["D"].values() for entry in entries),
        "client.bytes_received": observed["bytes_received"],
        "client.retries_used": observed["retries_used"],
        "client.reconnects": observed["reconnects"],
        "server.peak_rss_mb": observed["peak_rss_mb"],
        "tpcd.generate_s": phases["generate_s"],
        "tpcd.load_s": phases["load_s"],
        "tpcd.save_s": phases["save_s"],
        "trace_overhead_share": statistics.median(overheads),
    }

    # the caller-observed request: the client's for served workloads,
    # the in-process execution for direct ones
    top_rung, top_name = ("D", "client.request") \
        if ladder.workload.served else ("A", "request.execute")
    waterfall = {}
    for index, template in enumerate(ladder.templates):
        def layer(rung, *names):
            return per_template(rung, index, lambda e: sum(
                e.get(name, 0.0) for name in names))
        row = {
            "total_ms": layer(top_rung, top_name),
            "compile_ms": layer("A", *COMPILE),
            "mil_run_ms": layer("A", "mil.run"),
            "materialize_ms": layer("A", "moa.materialize"),
            "ship_ms": layer("A", *SHIP),
            "wire_ms": layer("A", *WIRE),
            "worker_ms": per_template("B", index,
                                      lambda e: e["worker_ms"]),
            "dispatch_ms": dispatch[index],
            "service_ms": per_template(
                "C", index, outside_worker("service.execute"))
            - dispatch[index],
            "client_ms": per_template(
                "D", index,
                lambda e: e["client.request"] - e["service_ms"]),
            "top_stmt_ms": ladder.top_stmt[index][0],
            "top_stmt": ladder.top_stmt[index][1],
        }
        waterfall.setdefault(template.group, []).append(row)
    waterfall = [
        dict({key: _median(row[key] for row in rows)
              for key in rows[0] if key != "top_stmt"},
             template=group,
             top_stmt=max(rows, key=lambda r: r["top_stmt_ms"])["top_stmt"])
        for group, rows in waterfall.items()]
    waterfall.sort(key=lambda row: row["total_ms"], reverse=True)

    by_op = {}
    for entries in by_rung["A"].values():
        for name in entries[0]:
            if name.startswith("operators."):
                by_op[name] = by_op.get(name, 0.0) + _median(
                    entry.get(name, 0.0) for entry in entries)
    return metrics, waterfall, by_op, per_op(top_rung, top_name)


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
def _traced_set_up(workload, seed, scale, db_dir):
    """Set-up with each phase timed on its own (the end-to-end run
    times them together, as a user waits for them)."""

    marks = [time.perf_counter()]
    dataset = generate(scale=scale, seed=seed)
    marks.append(time.perf_counter())
    db, _report = load_tpcd(dataset)
    marks.append(time.perf_counter())
    save_tpcd(db, db_dir, dataset)
    marks.append(time.perf_counter())
    open_tpcd(db_dir)
    marks.append(time.perf_counter())
    on_disk = sum(os.path.getsize(os.path.join(folder, name))
                  for folder, _dirs, names in os.walk(db_dir)
                  for name in names)
    return db, {"generate_s": marks[1] - marks[0],
                "load_s": marks[2] - marks[1],
                "save_s": marks[3] - marks[2],
                "open_ms": (marks[4] - marks[3]) * 1000.0,
                "bytes_on_disk": on_disk}


def print_report(name, units, metrics, waterfall, by_op, top_ms):
    print("== %s  traced pass (per-layer; ms are medians per op, "
          "counts are per pass over the templates)" % name)
    print("  %-30s %14s %-9s %s" % ("layer metric", "value", "unit",
                                    "of traced p50"))
    for metric, value in metrics.items():
        share = "%5.1f %%" % (100.0 * value / top_ms) \
            if metric.endswith("_ms") and metric != "storage.open_ms" \
            else ""
        print("  %-30s %14.4f %-9s %s" % (metric, value, units[metric],
                                          share))
    print("  kernel ms by operator (sum of per-template medians): "
          + ", ".join("%s %.2f" % (op.split(".", 1)[1], ms) for op, ms
                      in sorted(by_op.items(), key=lambda kv: -kv[1])))
    columns = ("total_ms", "compile_ms", "mil_run_ms", "materialize_ms",
               "ship_ms", "wire_ms", "worker_ms", "dispatch_ms",
               "service_ms", "client_ms")
    print("  waterfall, one row per template, slowest first (ms):")
    print("  %-8s" % "template" + "".join(
        "%12s" % column[:-3] for column in columns) + "  top statement")
    for row in waterfall:
        print("  %-8s" % row["template"] + "".join(
            "%12.3f" % row[column] for column in columns)
            + "  %.2f ms %s" % (row["top_stmt_ms"], row["top_stmt"][:60]))


def trace_workload(workload, seed, seconds, scale, passes, units,
                   trace_path, header):
    """Run the ladder for one workload at ``scale`` with at least
    ``passes`` recorded passes per rung; returns the contract result
    and writes ``trace_path``."""
    templates = wl.build_templates(workload, seed)
    if workload.adhoc:
        templates = [template for index, template in enumerate(templates)
                     if index % wl.ADHOC_DRAWS < ADHOC_SAMPLE]
    work_dir = trace_path + ".work"
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        db_dir = os.path.join(work_dir, "db")
        db, phases = _traced_set_up(workload, seed, scale, db_dir)
        wl.expect(templates, db)
        ladder = Ladder(workload, templates, db, db_dir)
        phases["cold_faults"] = ladder.cold_faults()
        observed = ladder.climb(seconds, passes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics, waterfall, by_op, top_ms = aggregate(ladder, observed,
                                                  phases)
    print_report(workload.name, units, metrics, waterfall, by_op, top_ms)
    for failure in ladder.failures[:10]:
        print("  FAILED %s" % failure)
    ladder.recorder.write(trace_path, dict(
        header, scale=scale, layers=metrics, waterfall=waterfall,
        kernel_ms_by_operator=by_op, traced_p50_ms=top_ms))
    print("  spans: %d -> %s" % (len(ladder.recorder.spans), trace_path))
    return {"attempted": ladder.attempted,
            "failed": len(ladder.failures),
            "failures": ladder.failures[:10], "metrics": metrics,
            "waterfall": waterfall, "kernel_ms_by_operator": by_op,
            "config": {"scale": scale, "templates": len(templates),
                       "procs": wl.PROCS, "seconds": seconds}}
