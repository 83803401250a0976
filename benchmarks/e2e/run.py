"""The repo benchmark: five closed-loop workloads, four end-to-end
metrics, and (``--trace 1``) the per-layer ladder.

    python3 benchmarks/e2e/run.py --workload served_sql_mix --seed 7 \\
        --seconds 10 --trace 0

Without ``--workload`` every workload in ``BENCHMARK.json`` runs.  Every
metric is printed by name with its unit and sample count, every answer
is checked against an expected checksum computed by another path, and
the exit status is non-zero when any operation failed.  The last line
of standard output is one JSON object per the benchmark contract
(``correct``, ``attempted``, ``failed``, ``metrics``).  See README.md.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy

import workloads as wl      # first: it puts src/ on sys.path for repro
import ladder
from repro.monet.multiproc import result_checksum, ship_value

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = wl.ROOT
SCRATCH = os.path.join(ROOT, "bench-scratch", "e2e")

#: Bumped whenever a workload, a metric definition or the measurement
#: procedure changes; compare.py refuses to mix versions.
BENCHMARK_VERSION = 1

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

SMOKE_SCALE = 0.002


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def client_loop(op, templates, rng, seconds):
    """One closed-loop client: whole shuffled rounds of every template
    until ``seconds`` have passed.  Returns one ``(wall_s, samples)``
    per round, a sample being ``(template, latency_ms, outcome)``;
    nothing is verified here, so checking stays outside the timed
    interval."""
    rounds = []
    order = list(templates)
    deadline = time.perf_counter() + seconds
    while True:
        rng.shuffle(order)
        samples = []
        started = time.perf_counter()
        for template in order:
            sent = time.perf_counter()
            try:
                outcome = op(template)
            except Exception as exc:    # counted as a failed operation
                outcome = exc
            samples.append((template,
                            (time.perf_counter() - sent) * 1000.0,
                            outcome))
        ended = time.perf_counter()
        rounds.append((ended - started, samples))
        if ended >= deadline:
            return rounds


def measure(context, templates, seed, seconds):
    """Run every client of ``context`` side by side; returns each
    client's rounds."""
    rngs = [random.Random("%d/client%d" % (seed, index))
            for index in range(len(context.ops))]
    if len(context.ops) == 1:
        return [client_loop(context.ops[0], templates, rngs[0], seconds)]
    rounds = [None] * len(context.ops)

    def client(index):
        rounds[index] = client_loop(context.ops[index], templates,
                                    rngs[index], seconds)

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(len(context.ops))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return rounds


def score(workload, clients, retries):
    """Verify every outcome, then derive the end-to-end numbers from
    the correct operations only.  ``clients`` holds each client's
    rounds, ``(wall_s, samples)``, over all slices of the window."""
    attempted = failed = 0
    failures = []
    by_group = {}
    throughput = 0.0
    for rounds in clients:
        rates = []
        for wall_s, samples in rounds:
            correct = 0
            for template, latency_ms, outcome in samples:
                attempted += 1
                if isinstance(outcome, Exception):
                    problem = "%s: %s" % (type(outcome).__name__, outcome)
                else:
                    checksum = outcome if workload.served \
                        else result_checksum(ship_value(outcome))
                    problem = None if checksum == template.expected \
                        else "checksum mismatch"
                if problem is None:
                    correct += 1
                    by_group.setdefault(template.group, []) \
                        .append(latency_ms)
                else:
                    failed += 1
                    failures.append("%s: %s" % (template.group, problem))
            rates.append(correct / wall_s)
        throughput += statistics.median(rates)
    # a retried request did not complete first time: count it failed
    failed += retries
    if retries:
        failures.append("%d client retries" % retries)
    result = {"attempted": attempted, "failed": min(failed, attempted),
              "failures": failures[:10],
              "rounds": len(clients[0]),
              "window_s": sum(wall_s for wall_s, _samples in clients[0])}
    if not by_group:
        return result
    latencies = sorted(ms for group in by_group.values() for ms in group)
    medians = {group: statistics.median(values)
               for group, values in by_group.items()}
    slowest = max(medians, key=medians.get)
    result["metrics"] = {
        "throughput_ops_s": throughput,
        "latency_p50_ms": statistics.median(latencies),
        "latency_slowest_ms": medians[slowest],
    }
    result["samples"] = {"throughput_ops_s": len(latencies),
                         "latency_p50_ms": len(latencies),
                         "latency_slowest_ms": len(by_group[slowest])}
    result["slowest_template"] = slowest
    result["diagnostics"] = {
        "latency_p95_ms": float(numpy.percentile(latencies, 95)),
        "latency_p99_ms": float(numpy.percentile(latencies, 99)),
        "template_median_ms": medians}
    return result


def plan_cache_counts(context):
    plan = context.clients[0].stats()["plan_cache"]
    return plan["hits"], plan["misses"]


def run_workload(workload, seed, seconds, smoke):
    """``SETUPS`` times over: set up from nothing, then measure a
    ``1/SETUPS`` slice of the window on that instance.

    Slicing the window across the set-ups makes one run span several
    server instances and a longer stretch of host time than one
    contiguous window would, which steadies its medians; ``setup_s`` is
    the median of the set-ups.
    """
    templates = wl.build_templates(workload, seed)
    work_dir = os.path.join(SCRATCH, "%s-%d" % (workload.name,
                                                os.getpid()))
    slices = 1 if smoke else SETUPS
    scale = SMOKE_SCALE if smoke else workload.scale
    setups = []
    clients = [[] for _ in range(workload.clients)]
    retries = hits = misses = warmup_rounds = 0
    try:
        for index in range(slices):
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            context = wl.set_up(workload, seed, templates, work_dir,
                                scale)
            try:
                setups.append(dict(context.phases,
                                   setup_s=context.setup_s))
                warmup_rounds = max(warmup_rounds, context.warmup_rounds)
                if index == 0:
                    wl.expect(templates, context.db)
                if workload.served:
                    before = plan_cache_counts(context)
                for rounds, more in zip(clients, measure(
                        context, templates, seed + index,
                        seconds / slices)):
                    rounds += more
                if workload.served:
                    after = plan_cache_counts(context)
                    hits += after[0] - before[0]
                    misses += after[1] - before[1]
                    retries += sum(client.retries_used
                                   for client in context.clients)
            finally:
                context.close()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = score(workload, clients, retries)
    if hits + misses:
        result["plan_cache_hit_rate"] = hits / (hits + misses)
        # warm plan caches are part of a served SQL workload's definition
        if result["plan_cache_hit_rate"] < 0.98 and not smoke:
            result["failures"].append("plan-cache hit rate %.3f < 0.98"
                                      % result["plan_cache_hit_rate"])
            result["failed"] = max(result["failed"], 1)
    if "metrics" in result:
        result["metrics"]["setup_s"] = statistics.median(
            entry["setup_s"] for entry in setups)
        result["samples"]["setup_s"] = len(setups)
    result["setups"] = setups
    result["config"] = {
        "scale": scale, "served": workload.served,
        "clients": workload.clients,
        "procs": wl.PROCS if workload.served else 0,
        "wire": "binary" if workload.served else None,
        "templates": len(templates), "warmup_rounds": warmup_rounds,
        "seconds": seconds}
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def provenance(seed):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"benchmark_version": BENCHMARK_VERSION, "seed": seed,
            "nproc": os.cpu_count(), "cpu_model": model,
            "loadavg_at_start": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit}


def print_result(name, result, spec, seed):
    config = result["config"]
    print("== %s  (SF %s, %d client%s, procs %d, wire %s, seed %d)"
          % (name, config["scale"], config["clients"],
             "" if config["clients"] == 1 else "s", config["procs"],
             config["wire"], seed))
    for metric in spec["end_to_end"]:
        value = result.get("metrics", {}).get(metric["name"])
        if value is None:
            print("  %-20s (no correct operation)" % metric["name"])
            continue
        note = "n=%d" % result["samples"][metric["name"]]
        if metric["name"] == "throughput_ops_s":
            note += " in %d rounds, %.1f s" % (result["rounds"],
                                               result["window_s"])
        elif metric["name"] == "latency_slowest_ms":
            note += ", template %s" % result["slowest_template"]
        elif metric["name"] == "setup_s":
            note = "median of %d set-ups" % len(result["setups"])
        print("  %-20s %12.4f %-6s (%s)"
              % (metric["name"], value, metric["unit"], note))
    print("  %-20s %12.6f        (%d of %d)"
          % ("failed_share", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))
    for name, value in sorted(result.get("diagnostics", {}).items()):
        if isinstance(value, float):
            print("  %-20s %12.4f ms     (diagnostic, not gated)"
                  % (name, value))
    if result.get("plan_cache_hit_rate") is not None:
        print("  %-20s %12.4f        (measured window)"
              % ("plan_cache_hit_rate", result["plan_cache_hit_rate"]))
    for failure in result["failures"]:
        print("  FAILED %s" % failure)


def contract_line(result, metrics):
    """The benchmark contract's result object for one workload."""
    units = {metric["name"]: metric["unit"] for metric in metrics}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result.get("metrics", {}).items()
                    if name in units}})


def summarise(runs, spec):
    """{workload: per-metric values/min/median/max/spread} over the
    repeats; the spread is the interquartile range over the median
    once there are four repeats, (max - min) / median below that."""
    summary = {}
    for name in runs[0]:
        repeats = [run[name] for run in runs]
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [repeat["metrics"][metric["name"]]
                      for repeat in repeats if "metrics" in repeat]
            if not values:
                continue
            median = statistics.median(values)
            if len(values) >= 4:
                quartiles = statistics.quantiles(values, n=4)
                spread = (quartiles[2] - quartiles[0]) / median
            elif len(values) >= 2:
                spread = (max(values) - min(values)) / median
            else:
                spread = None
            metrics[metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "values": values,
                "min": min(values), "median": median,
                "max": max(values), "spread": spread,
                "samples": [repeat["samples"][metric["name"]]
                            for repeat in repeats if "metrics" in repeat]}
        summary[name] = {
            "config": repeats[0]["config"], "metrics": metrics,
            "failed_share": [repeat["failed"] / repeat["attempted"]
                             for repeat in repeats],
            "attempted": [repeat["attempted"] for repeat in repeats],
            "diagnostics": [repeat.get("diagnostics")
                            for repeat in repeats]}
    return summary


def main(argv=None):
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of each measured window")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="1: the separate per-layer traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="SF %s, one set-up, one round" % SMOKE_SCALE)
    parser.add_argument("--repeats", type=int, default=1,
                        help="run the whole set this many times "
                             "(--out then records the spread)")
    parser.add_argument("--out", help="write the full JSON report here")
    args = parser.parse_args(argv)
    if (os.cpu_count() or 1) < 2:
        print("warning: fewer than 2 CPUs; served workloads will "
              "time-share clients, parent and workers", file=sys.stderr)
    seconds = 0.0 if args.smoke else args.seconds
    header = provenance(args.seed)
    selected = args.workload or names
    os.makedirs(SCRATCH, exist_ok=True)
    runs = []
    for _ in range(args.repeats):
        run = {}
        for name in selected:
            workload = wl.WORKLOADS[name]
            if args.trace:
                result = ladder.trace_workload(
                    workload, args.seed, seconds,
                    SMOKE_SCALE if args.smoke else workload.scale,
                    1 if args.smoke else ladder.MIN_PASSES,
                    {metric["name"]: metric["unit"]
                     for metric in spec["per_layer"]},
                    os.path.join(SCRATCH, "trace-%s.json" % name),
                    dict(header, workload=name))
                layer = "per_layer"
            else:
                result = run_workload(workload, args.seed, seconds,
                                      args.smoke)
                print_result(name, result, spec, args.seed)
                layer = "end_to_end"
            run[name] = result
            print(contract_line(result, spec[layer]), flush=True)
        runs.append(run)
    failed = any(result["failed"] for run in runs
                 for result in run.values())
    if args.out:
        report = dict(header, trace=args.trace, smoke=args.smoke,
                      seconds=seconds, repeats=args.repeats)
        if args.trace:
            report["workloads"] = runs[-1]
        else:
            report["workloads"] = summarise(runs, spec)
        report["claim"] = None
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
