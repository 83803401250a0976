"""Figure 9's load row: bulk load, accelerator creation, reorder.

The paper reports 1:28 h ascii import, ~0.5 h extent/datavector
creation and ~1 h tail reordering for 1 GB, with the database
occupying 1.6 GB (1.3 GB base + 300 MB vectors).  This benchmark
reproduces the three-phase pipeline at our scale and prints the same
breakdown; the *ratio* vectors/base (~23% in the paper) is checked to
land in the same region.  :func:`test_cold_start_and_warm_open` times the
whole path a cold start pays and a warm start skips — generate,
flatten, datavectors, reorder, save — and the warm open that replaces
it (``REPRO_TPCD_SF=0.1 PYTHONPATH=src python -m pytest
benchmarks/bench_load.py -q -s -k warm_open``).
"""

import time

from repro.tpcd import generate, load_tpcd, open_tpcd

from conftest import SCALE, SEED


def test_load_phases(benchmark):
    dataset = generate(scale=SCALE, seed=SEED)

    def load():
        _db, report = load_tpcd(dataset)
        return report

    report = benchmark.pedantic(load, rounds=2, iterations=1)
    print("\n" + report.format_table())
    assert report.load_s > 0
    assert report.total_bytes > 0
    ratio = report.vector_bytes / max(1, report.base_bytes)
    print("vectors/base ratio = %.2f (paper: 300MB/1.3GB = 0.23)"
          % ratio)
    assert 0.05 < ratio < 0.8


def test_generate(benchmark):
    dataset = benchmark.pedantic(generate, args=(SCALE,),
                                 kwargs={"seed": SEED}, rounds=2,
                                 iterations=1)
    assert dataset.counts["item"] > 0


def test_cold_start_and_warm_open(tmp_path):
    """Every phase of a cold start, then the warm open, best of 3."""
    rows = {}

    def best(label, seconds):
        rows[label] = min(rows.get(label, seconds), seconds)

    for run in range(3):
        started = time.perf_counter()
        dataset = generate(scale=SCALE, seed=SEED)
        best("generate", time.perf_counter() - started)
        _db, report = load_tpcd(dataset, db_dir=tmp_path / str(run))
        assert not report.warm and report.save_s > 0
        best("flatten", report.load_s)
        best("datavectors", report.datavector_s)
        best("reorder", report.reorder_s)
        best("save", report.save_s)
        started = time.perf_counter()
        open_tpcd(tmp_path / str(run))
        best("open (warm)", time.perf_counter() - started)
    print("\nload phases at SF %g, seed %d (best of 3)" % (SCALE, SEED))
    for label, seconds in rows.items():
        print("%-14s %8.3f s" % (label, seconds))
