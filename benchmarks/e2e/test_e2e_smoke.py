"""Tier-1 smoke tests of the repo benchmark (``benchmarks/e2e``).

Everything runs at ``--smoke`` size (SF 0.002, one set-up, one round),
so the whole file costs a few seconds.  pytest puts this directory on
``sys.path``, which is how ``run``/``compare``/``workloads`` import.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import run
import workloads

SPEC = run.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {metric["name"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"] for metric in SPEC["per_layer"]}

#: Span-name prefixes of the layer table in README.md.
LAYER_PREFIXES = ("sql.", "moa.", "analysis.", "mil.", "operators.",
                  "multiproc.", "service.", "protocol.", "client.")


def last_result(text):
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    assert run.main(["--smoke", "--out", str(out)]) == 0
    with open(out) as handle:
        return json.load(handle)


def test_smoke_emits_exactly_the_declared_names(smoke_report):
    assert list(smoke_report["workloads"]) == WORKLOADS
    for name, entry in smoke_report["workloads"].items():
        assert set(entry["metrics"]) == END_TO_END, name
        assert entry["failed_share"] == [0.0], name
        for metric in entry["metrics"].values():
            assert metric["values"][0] > 0 and metric["samples"][0] >= 1
    assert list(smoke_report)[-1] == "claim"
    assert smoke_report["claim"] is None
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit",
                "seed", "loadavg_at_start"):
        assert key in smoke_report


def test_corrupted_expected_checksum_is_a_counted_failure(monkeypatch,
                                                          capsys):
    real_expect = workloads.expect

    def corrupting_expect(templates, db):
        real_expect(templates, db)
        templates[0].expected = "0" * 40

    monkeypatch.setattr(workloads, "expect", corrupting_expect)
    status = run.main(["--smoke", "--workload", "direct_sql_mix"])
    result = last_result(capsys.readouterr().out)
    assert status != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_command_line_contract_without_pythonpath():
    """The driver's invocation: no PYTHONPATH, the result object as the
    last line of stdout."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "direct_sql_mix", "--seed", "3", "--seconds", "1", "--trace",
         "0", "--smoke"],
        cwd=run.ROOT, env=env, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    result = last_result(done.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "direct_sql_mix", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout


@pytest.mark.parametrize("workload", ["served_rows_wide",
                                      "served_cols_wide"])
def test_traced_smoke_covers_every_layer(workload, capsys):
    status = run.main(["--trace", "--smoke", "--workload", workload])
    result = last_result(capsys.readouterr().out)
    assert status == 0 and result["correct"]
    assert set(result["metrics"]) == PER_LAYER
    with open(os.path.join(run.SCRATCH,
                           "trace-%s.json" % workload)) as handle:
        trace = json.load(handle)
    names = {span["name"] for span in trace["spans"]}
    prefixes = LAYER_PREFIXES if workload == "served_rows_wide" \
        else LAYER_PREFIXES[2:]     # a MIL request has no SQL/Moa layer
    for prefix in prefixes:
        assert any(name.startswith(prefix) for name in names), prefix
    for span in trace["spans"]:
        assert span["end_ms"] >= span["start_ms"]
        assert span["request"] is not None
    assert trace["header"]["workload"] == workload
    assert trace["header"]["waterfall"]


def test_compare_verdicts_and_like_with_like(smoke_report, tmp_path,
                                             capsys):
    def write(name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return str(path)

    base = write("base.json", smoke_report)
    assert compare.main([base, base]) == 0
    assert "worse" not in capsys.readouterr().out

    slower = copy.deepcopy(smoke_report)
    slower["workloads"]["served_sql_mix"]["metrics"][
        "latency_p50_ms"]["median"] *= 1.5
    assert compare.main([base, write("slower.json", slower)]) == 1
    assert "worse" in capsys.readouterr().out

    failing = copy.deepcopy(smoke_report)
    failing["workloads"]["direct_sql_mix"]["failed_share"] = [0.1]
    assert compare.main([base, write("failing.json", failing)]) == 1

    other_seed = dict(smoke_report, seed=smoke_report["seed"] + 1)
    assert compare.main([base, write("seed.json", other_seed)]) == 2
