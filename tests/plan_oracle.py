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

Run as a script, it prints one ``name sf seed digest`` line per
:func:`answers` entry at SF 0.002 and 0.01, seeds 7 and 11 — 144 lines
whose diff compares two checkouts' answers:

    PYTHONPATH=src python tests/plan_oracle.py > mine.txt
    PYTHONPATH=../other/src python tests/plan_oracle.py > theirs.txt
    diff mine.txt theirs.txt

The lines are checked in as :data:`DIGESTS_FILE`, and a tier-1 test
recomputes them, so a change that moves an answer fails there.  A
change that moves answers on purpose regenerates the file with
``PYTHONPATH=src python tests/plan_oracle.py >
tests/plan_oracle_digests.txt`` and says which lines moved and why.
"""

import contextlib
import pathlib
from collections import Counter

import numpy as np

from repro.moa import rewriter
from repro.monet.multiproc import result_checksum, ship_value
from repro.sql.runtime import execute_sql
from repro.sql.suite import EXTRAS, sql_queries
from repro.tpcd import QUERIES, generate, load_tpcd

#: the scale factors and seeds the script digests
SCALES = (0.002, 0.01)
SEEDS = (7, 11)
#: the script's output, checked in
DIGESTS_FILE = pathlib.Path(__file__).with_name("plan_oracle_digests.txt")


@contextlib.contextmanager
def passes_off():
    """Compile every plan inside the block without the pass pipeline."""
    original = rewriter.optimize
    rewriter.optimize = lambda program, roots: 0
    try:
        yield
    finally:
        rewriter.optimize = original


class CountingCalls:
    """Stands in for one function (``monkeypatch.setattr(module, name,
    CountingCalls(getattr(module, name)))``) and counts its calls —
    how the tests see how often a grouping is derived."""

    def __init__(self, func):
        self.func = func
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.func(*args, **kwargs)


class CountingSorts:
    """Stands in for ``np`` in the modules it is installed in
    (``monkeypatch.setattr(module, "np", counting)``) and counts their
    sorting calls — ``unique``, ``argsort``, ``sort``, ``lexsort`` —
    made while a function wrapped by :meth:`inside` runs."""

    SORTS = ("unique", "argsort", "sort", "lexsort")

    def __init__(self):
        self.calls = Counter()
        self.active = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.SORTS:
            return attr

        def counted(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return attr(*args, **kwargs)
        return counted

    def inside(self, func):
        """``func``, counting the sorts made while it runs."""
        def counting(*args, **kwargs):
            self.active += 1
            try:
                return func(*args, **kwargs)
            finally:
                self.active -= 1
        return counting


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


def digest_lines():
    """The ``name sf seed digest`` lines the script prints."""
    for scale in SCALES:
        for seed in SEEDS:
            db, _report = load_tpcd(generate(scale=scale, seed=seed))
            for name, digest in answers(db).items():
                yield "%s %s %s %s" % (name, scale, seed, digest)


def main():
    for line in digest_lines():
        print(line)


if __name__ == "__main__":
    main()
