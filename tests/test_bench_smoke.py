"""Smoke test for the benchmark-regression harness.

Runs ``repro.bench.run`` in ``--quick`` mode against a throwaway
output path, so the harness (operand construction, kernel/reference
equivalence checks, JSON schema, warm-start caching, regression gate)
is exercised on every tier-1 run and cannot silently rot between PRs.
"""

import json

from repro.bench.run import find_regressions, main

EXPECTED_OPS = {"hashjoin", "semijoin", "group", "aggregate", "unique",
                "difference", "intersection", "mergejoin",
                "select_scan", "join_str", "semijoin_str", "pairjoin"}


def test_quick_bench_writes_trajectory(tmp_path):
    out = tmp_path / "BENCH_operators.json"
    assert main(["--quick", "--out", str(out)]) == 0
    results = json.loads(out.read_text())

    assert results["meta"]["quick"] is True
    assert results["load"]["warm_start"] is False
    assert results["load"]["seconds"] >= 0
    assert set(results["operators"]) == EXPECTED_OPS
    for name, entry in results["operators"].items():
        assert entry["median_ms"] >= 0
        assert entry["rows"] >= 0
        assert entry["faults"] >= 0
    # the vectorised kernels carry a measured speedup vs the naive
    # dict/loop reference (checked for output equality by the harness)
    for name in ("hashjoin", "semijoin", "group", "aggregate",
                 "join_str", "semijoin_str"):
        assert "speedup" in results["operators"][name]
    assert len(results["queries"]) == 15
    for entry in results["queries"].values():
        assert entry["median_ms"] >= 0
        assert entry["faults"] >= 0
        # tail-latency percentiles ride along with every median
        assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]


def test_quick_bench_db_dir_warm_start(tmp_path):
    out = tmp_path / "bench.json"
    db_dir = tmp_path / "tpcd-db"
    assert main(["--quick", "--out", str(out),
                 "--db-dir", str(db_dir)]) == 0
    cold = json.loads(out.read_text())
    assert cold["load"]["warm_start"] is False
    assert (db_dir / "catalog.json").exists()

    # gate disabled: this test asserts warm/cold *result* equality,
    # not timing stability of reps=2 micro-medians on a busy machine;
    # --procs 2 runs the query set through the multi-process
    # dispatcher (the harness hard-errors unless every worker checksum
    # equals the serial run's)
    # --serve 1 --serve 2 additionally drives the query set through
    # the socket query service at two concurrency levels (closed-loop
    # clients; reply checksums hard-asserted against the serial run)
    assert main(["--quick", "--out", str(out), "--db-dir", str(db_dir),
                 "--no-regression-check",
                 "--procs", "2", "--serve", "1", "--serve", "2"]) == 0
    warm = json.loads(out.read_text())
    assert warm["load"]["warm_start"] is True
    # warm-start operands are BUN-identical: same result cardinalities
    for name in EXPECTED_OPS:
        assert warm["operators"][name]["rows"] == \
            cold["operators"][name]["rows"], name
    for number in cold["queries"]:
        assert warm["queries"][number]["rows"] == \
            cold["queries"][number]["rows"], number
        # ...and checksum-identical to the cold run, both serially and
        # across the worker fleet
        assert warm["queries"][number]["checksum"] == \
            cold["queries"][number]["checksum"], number
    section = warm["multiproc"]
    assert section["procs"] == 2
    assert section["checksums_match"] is True
    assert set(section["queries"]) == set(cold["queries"])
    for number, entry in section["queries"].items():
        assert entry["checksum"] == cold["queries"][number]["checksum"]
        # the accounted lap simulated every query from a cold start
        assert entry["faults"] > 0
    serve = warm["serve"]
    assert serve["checksums_match"] is True
    assert serve["clients_swept"] == [1, 2]
    assert set(serve["sweep"]) == {"1", "2"}
    for entry in serve["sweep"].values():
        # every client runs the full 15-query set once per round
        # (single-text queries travel as Moa text, two-phase as tpcd)
        assert entry["requests"] == entry["clients"] * 15 * \
            serve["rounds"]
        assert entry["qps"] > 0
        assert entry["p50_ms"] <= entry["p95_ms"] <= entry["p99_ms"]
    # the acceptance observable: repeated rounds hit the plan caches
    assert serve["plan_cache"]["hits"] > 0
    # ...and the one accounted lap after the sweep filled the totals
    assert serve["buffer"]["faults"] > 0


def test_regression_gate():
    previous = {
        "meta": {"sf": 0.01, "quick": False},
        "operators": {"hashjoin": {"median_ms": 1.0},
                      "newcomer_is_skipped": {"median_ms": 1.0}},
        "queries": {"1": {"median_ms": 10.0}},
    }
    fine = {
        "meta": {"sf": 0.01, "quick": False},
        "operators": {"hashjoin": {"median_ms": 1.9}},
        "queries": {"1": {"median_ms": 19.0}},
    }
    assert find_regressions(previous, fine) == []

    slow = {
        "meta": {"sf": 0.01, "quick": False},
        "operators": {"hashjoin": {"median_ms": 2.5}},
        "queries": {"1": {"median_ms": 25.0}},
    }
    found = find_regressions(previous, slow)
    assert len(found) == 2
    assert any("hashjoin" in line for line in found)

    # incomparable runs (different sf/mode) never trip the gate
    other_sf = dict(slow, meta={"sf": 0.1, "quick": False})
    assert find_regressions(previous, other_sf) == []

    # neither do runs with a different start temperature: a warm
    # (mmap reopen) baseline vs a cold (dbgen + load) run differs by
    # page-cache state alone
    warm_prev = dict(previous, load={"warm_start": True})
    cold_now = dict(slow, load={"warm_start": False})
    assert find_regressions(warm_prev, cold_now) == []
    warm_now = dict(slow, load={"warm_start": True})
    assert len(find_regressions(warm_prev, warm_now)) == 2

    # micro-entries below the noise floor are clamped before comparing
    noisy_prev = {"meta": {"sf": 0.01, "quick": False},
                  "operators": {"tiny": {"median_ms": 0.01}},
                  "queries": {}}
    noisy_now = {"meta": {"sf": 0.01, "quick": False},
                 "operators": {"tiny": {"median_ms": 0.3}},
                 "queries": {}}
    assert find_regressions(noisy_prev, noisy_now) == []
