"""Shared helpers for the chaos suite (imported by its test modules).

Every chaos test runs the same differential contract as the rest of
the suite: after (or despite) an injected fault, a surviving query
answer must be sha1-identical to serial execution of the same query
against the same catalog generation — a fault may cost an operation
(typed error) or a process (crash + recovery), never an answer.
"""

import multiprocessing

import numpy as np

from repro.monet.multiproc import (register_task_kind, result_checksum,
                                   ship_value)
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES, open_tpcd

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

#: The module registering the ``sql`` task kind in every pool worker.
SQL_TASKS = ("repro.server.tasks",)


def sql_task(number, key=None):
    """The worker task running TPC-D query ``number``'s SQL text."""
    return ("sql", key or "q%d" % number, sql_text(number))

def _wide(ctx, task):
    """A wide result: its body fills the pipe many times over, so a
    reply is read in many chunks (forked workers inherit this kind)."""
    return wide_value(), None


register_task_kind("wide", _wide)


def wide_value():
    """The canonical value the ``wide`` task kind ships."""
    return {"kind": "value",
            "value": np.arange(80 << 10) * 0.5}


def wide_task(key="w"):
    return ("wide", key)


#: Queries the per-point differential checks replay — a spread of
#: scan/aggregate (Q1, Q6) and join/order (Q12) shapes.  The full
#: 15-query set runs in the tier-1 server suite; per injection point
#: three shapes keep the sweep's runtime linear in the point count.
SWEEP_QUERIES = (1, 6, 12)


def assert_catalog_intact(db_dir, serial_checksums,
                          queries=SWEEP_QUERIES):
    """Reopen ``db_dir`` and verify the differential contract.

    Returns the generation served.  Asserts that after the reader's
    recovery sweep the directory holds exactly the manifest's files
    (no ``.tmp`` staging litter, no orphaned heap files from a
    crashed save) and that every sweep query still matches the
    serial reference checksums.
    """
    from repro.monet.storage import _manifest_files, as_backend

    db, _report = open_tpcd(db_dir)
    generation = db.kernel.generation
    manifest = as_backend(db_dir).read_manifest()
    expected = set(_manifest_files(manifest)) | {
        "catalog.json", "catalog.lock"}
    on_disk = {path.name for path in db_dir.iterdir()}
    assert not [name for name in on_disk if name.endswith(".tmp")], \
        "staging litter survived the recovery sweep: %s" % (
            sorted(on_disk),)
    assert on_disk <= expected, \
        "orphaned files survived the recovery sweep: %s" % (
            sorted(on_disk - expected),)
    for number in queries:
        checksum = result_checksum(ship_value(QUERIES[number].run(db)))
        assert checksum == serial_checksums[number], \
            "Q%d diverged from the serial reference at generation " \
            "%s" % (number, generation)
    return generation
