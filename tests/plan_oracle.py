"""The pass-less compile, kept as a test oracle.

Every plan the Moa rewriter emits goes through the optimizer's pass
pipeline (common-subexpression merging, dead-code elimination) before
it is verified and run.  Inside :func:`passes_off` the pipeline is
skipped, so a plan runs exactly as the rewriter emitted it — the
behaviour of the system before the passes existed.  :func:`answers`
digests every query the repository ships, so the differential test is
one dict comparison:

    with passes_off():
        expected = answers(db)
    assert answers(db) == expected
"""

import contextlib

import numpy as np

from repro.moa import rewriter
from repro.monet.multiproc import result_checksum, ship_value
from repro.sql.runtime import execute_sql
from repro.sql.suite import EXTRAS, sql_queries
from repro.tpcd import QUERIES


@contextlib.contextmanager
def passes_off():
    """Compile every plan inside the block without the pass pipeline."""
    original = rewriter.optimize
    rewriter.optimize = lambda program, roots: 0
    try:
        yield
    finally:
        rewriter.optimize = original


class CountingNumpy:
    """Stands in for ``np`` in one module (``monkeypatch.setattr(module,
    "np", CountingNumpy())``) and counts that module's ``np.unique``
    calls — how the tests see how often a grouping is factorized."""

    def __init__(self):
        self.unique_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def unique(self, *args, **kwargs):
        self.unique_calls += 1
        return np.unique(*args, **kwargs)


def sql_texts():
    """The 21 ``sql.suite`` texts: 15 TPC-D formulations + 6 extras."""
    texts = {"Q%02d" % number: text
             for number, text in sql_queries().items()}
    texts.update(EXTRAS)
    return texts


def answers(db):
    """Result digests of the 15 Moa drivers and the 21 SQL texts."""
    digests = {"moa Q%d" % number: result_checksum(
        ship_value(QUERIES[number].run(db))) for number in sorted(QUERIES)}
    for name, text in sorted(sql_texts().items()):
        digests["sql " + name] = result_checksum(
            ship_value(execute_sql(db, text)))
    return digests
