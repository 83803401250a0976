"""Shared fixtures for the benchmark suite.

The TPC-D scale factor is configurable through the environment
variable ``REPRO_TPCD_SF`` (default 0.002 — roughly 12 k line items,
seconds-scale benchmarks).  The paper's runs used SF = 1 (6 M line
items) on 1997 hardware; the *shape* of the results is scale-free,
which is what EXPERIMENTS.md compares.
"""

import os

import pytest

from repro.tpcd import RowStore, generate, load_tpcd, save_tpcd

SCALE = float(os.environ.get("REPRO_TPCD_SF", "0.002"))
SEED = int(os.environ.get("REPRO_TPCD_SEED", "42"))


@pytest.fixture(scope="session")
def dataset():
    return generate(scale=SCALE, seed=SEED)


@pytest.fixture(scope="session")
def tpcd_db(dataset):
    db, _report = load_tpcd(dataset)
    return db


@pytest.fixture(scope="session")
def rowstore(dataset):
    return RowStore(dataset)


@pytest.fixture(scope="session")
def saved_db_dir(tpcd_db, dataset, tmp_path_factory):
    """The loaded database saved once, for benchmarks that reopen it
    through mmap (each reopen starts with no page resident)."""
    path = tmp_path_factory.mktemp("tpcd") / "db"
    save_tpcd(tpcd_db, path, dataset)
    return path
