"""TPC-D bulk load pipeline with phase timings (paper section 6).

Reproduces the three load phases the paper reports:

1. bulk load of the generated database into BATs ("using its bulk load
   utility, which took 1:28 hour" — properties key/ordered/synced are
   set by the loader),
2. extent + datavector creation ("took about half an hour"),
3. reordering all attribute BATs on tail values ("an additional hour").

Returns a :class:`LoadReport` with per-phase wall-clock seconds and
the resulting catalog sizes (the paper's "1.6 GB of disk space, of
which 300 MB in data vectors, 1.3 GB as base data" row).

Each step pays once: the loader's ``key`` flags come from a bool table
over compact integer columns (no sort), every datavector is the
attribute's tail as loaded (its heads already are the extent, so no
search), and the reorder sorts string ranks at the narrowest width.

With ``db_dir`` the loaded database is persisted through the storage
layer (:mod:`repro.monet.storage`: every heap in one file, fsynced
once; :attr:`LoadReport.save_s` times it) and **warm starts** skip
the whole pipeline: :func:`open_tpcd` maps the saved heap file once
and serves its heaps as ``np.memmap`` views, which is how Monet itself
starts up — "the BATs are mapped into virtual memory" — and what lets
benchmarks skip dbgen entirely.
"""

import time

from ..errors import CatalogError
from ..moa.mapping import (FlattenedDatabase, create_datavectors, flatten,
                           reorder_on_tail)
from ..moa.session import MOADatabase
from ..monet.kernel import MonetKernel
from ..monet.storage import as_backend
from .schema import tpcd_schema


class LoadReport:
    """Phase timings + catalog sizes of one load (or reopen) run."""

    def __init__(self, load_s, datavector_s, reorder_s, base_bytes,
                 vector_bytes, warm=False, save_s=0.0):
        self.load_s = load_s
        self.datavector_s = datavector_s
        self.reorder_s = reorder_s
        #: seconds spent persisting the loaded database to ``db_dir``
        #: (0.0 when nothing was saved); not one of the paper's three
        #: phases, so not part of :attr:`total_s`
        self.save_s = save_s
        self.base_bytes = base_bytes
        self.vector_bytes = vector_bytes
        #: True when the database was reopened from a db_dir cache
        #: instead of being rebuilt (load_s is then the mmap-open time)
        self.warm = warm

    @property
    def total_s(self):
        return self.load_s + self.datavector_s + self.reorder_s

    @property
    def total_bytes(self):
        return self.base_bytes + self.vector_bytes

    def format_table(self):
        first = ("reopen saved heaps (mmap)" if self.warm
                 else "ascii import / bulk load")
        rows = [
            (first, self.load_s),
            ("extent + datavector creation", self.datavector_s),
            ("reorder all tables on tail", self.reorder_s),
            ("total", self.total_s),
        ]
        if self.save_s:
            rows.append(("save to db_dir (one heap file)", self.save_s))
        lines = ["%-32s %10s" % ("load phase", "seconds")]
        for label, seconds in rows:
            lines.append("%-32s %10.2f" % (label, seconds))
        lines.append("%-32s %10.1f MB (base %0.1f + vectors %0.1f)"
                     % ("database size", self.total_bytes / 1e6,
                        self.base_bytes / 1e6, self.vector_bytes / 1e6))
        return "\n".join(lines)


def load_tpcd(dataset, kernel=None, db_dir=None):
    """Load a generated dataset; returns (MOADatabase, LoadReport).

    When ``db_dir`` is given and holds a database saved from the same
    ``(scale, seed)``, the pipeline is skipped and the saved heaps are
    reopened via mmap (``report.warm``); otherwise the dataset is
    loaded in full and then persisted to ``db_dir`` for the next run.
    """
    if db_dir is not None:
        meta = peek_tpcd_meta(db_dir)
        if meta is not None and meta.get("scale") == dataset.scale \
                and meta.get("seed") == dataset.seed:
            db, report = open_tpcd(db_dir)
            # re-attach the logical store so the reference-evaluator
            # path (db.evaluate / check_commutes) keeps working; it is
            # built on first read, not here
            db.flat.data = lambda: dataset.data
            return db, report

    db = MOADatabase(tpcd_schema(), kernel=kernel)

    started = time.perf_counter()
    db.flat = flatten(db.schema, dataset.columns, db.kernel,
                      data=lambda: dataset.data)
    load_s = time.perf_counter() - started
    base_bytes = db.kernel.total_bytes()

    started = time.perf_counter()
    create_datavectors(db.flat)
    datavector_s = time.perf_counter() - started
    vector_bytes = _vector_bytes(db.kernel)

    started = time.perf_counter()
    reorder_on_tail(db.flat)
    reorder_s = time.perf_counter() - started

    report = LoadReport(load_s, datavector_s, reorder_s, base_bytes,
                        vector_bytes)
    if db_dir is not None:
        started = time.perf_counter()
        save_tpcd(db, db_dir, dataset)
        report.save_s = time.perf_counter() - started
    return db, report


def save_tpcd(db, db_dir, dataset=None, meta=None):
    """Persist a loaded TPC-D database; returns the manifest.

    The generating ``dataset``, when at hand, contributes its scale,
    seed and class counts to the manifest's ``meta``.  The save holds
    the directory's exclusive catalog lock and bumps the
    shared-catalog generation once.
    """
    full_meta = {"kind": "tpcd"}
    if dataset is not None:
        full_meta.update({
            "scale": dataset.scale,
            "seed": dataset.seed,
            "counts": {name: int(count)
                       for name, count in dataset.counts.items()},
        })
    full_meta.update(meta or {})
    return db.kernel.save(db_dir, meta=full_meta)


def open_tpcd(db_dir, expected_generation=None, lock_timeout=None):
    """Reopen a saved TPC-D database; returns (MOADatabase, LoadReport).

    Needs no dataset at all — this is the dbgen-skipping warm start.
    The reopened database serves base-BAT columns as ``np.memmap``
    views and answers every query through the physical (MIL) path;
    ``db.flat.data`` is ``None`` until a logical store is attached, so
    the reference-evaluator path is unavailable until then.

    ``expected_generation`` pins the open to one shared-catalog
    generation (see :mod:`repro.monet.storage`) — the multi-process
    dispatcher passes it so every worker serves the same snapshot.
    """
    started = time.perf_counter()
    kernel = MonetKernel.open(
        db_dir, expected_generation=expected_generation,
        lock_timeout=lock_timeout)
    schema = tpcd_schema()
    db = MOADatabase(schema, kernel=kernel)
    db.flat = FlattenedDatabase(schema, kernel, None)
    open_s = time.perf_counter() - started
    vector_bytes = _vector_bytes(kernel)
    base_bytes = kernel.total_bytes()
    report = LoadReport(open_s, 0.0, 0.0, base_bytes, vector_bytes,
                        warm=True)
    return db, report


def peek_tpcd_meta(db_dir):
    """The saved manifest's meta dict, or None when absent/corrupt/
    not a TPC-D database (a corrupt manifest is treated as a cache
    miss here; :func:`open_tpcd` raises on it instead)."""
    try:
        manifest = as_backend(db_dir).read_manifest()
    except CatalogError:
        return None
    meta = manifest.get("meta")
    if not isinstance(meta, dict) or meta.get("kind") != "tpcd":
        return None
    return meta


def _vector_bytes(kernel):
    total = 0
    for name in kernel.names():
        bat = kernel.get(name)
        accel = bat.accel.get("datavector")
        if accel is not None:
            for heap in accel.vector.heaps:
                total += heap.nbytes
    return total
