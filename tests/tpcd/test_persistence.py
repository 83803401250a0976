"""TPC-D persistence: save -> reopen -> identical query answers.

The acceptance contract of the storage layer at database scale: a
TPC-D kernel saved with ``MonetKernel.save`` and reopened with
``MonetKernel.open`` answers every implemented query with results
identical to the freshly-loaded kernel, with base-BAT columns served
as ``np.memmap`` views and *no full-file eager read* on open (checked
through the real pager: a fresh mapping has zero resident pages until
a query touches it).
"""

import numpy as np
import pytest

from repro.monet import MonetKernel
from repro.monet.column import FixedColumn, VarColumn
from repro.monet.storage import residency_snapshot
from repro.tpcd import loader
from repro.tpcd import (QUERIES, load_tpcd, open_tpcd, peek_tpcd_meta,
                        tpcd_schema)


@pytest.fixture(scope="module")
def saved_db_dir(tiny_tpcd, tiny_tpcd_db, tmp_path_factory):
    db_dir = tmp_path_factory.mktemp("tpcd") / "db"
    from repro.tpcd import save_tpcd
    save_tpcd(tiny_tpcd_db, db_dir, tiny_tpcd)
    return db_dir


def test_reopened_db_answers_all_queries_identically(tiny_tpcd_db,
                                                     saved_db_dir):
    reopened, report = open_tpcd(saved_db_dir)
    assert report.warm
    for number in sorted(QUERIES):
        fresh = QUERIES[number].run(tiny_tpcd_db)
        warm = QUERIES[number].run(reopened)
        assert warm == fresh, "Q%d differs after reopen" % number


def test_reopen_serves_memmap_views_without_eager_read(saved_db_dir):
    reopened, _report = open_tpcd(saved_db_dir)
    kernel = reopened.kernel
    checked_fixed = checked_var = 0
    for name in kernel.names():
        bat = kernel.get(name)
        for column in (bat.head, bat.tail):
            if isinstance(column, FixedColumn):
                assert isinstance(column.data, np.memmap), \
                    "%s is not memmap-backed" % name
                checked_fixed += 1
            elif isinstance(column, VarColumn):
                assert isinstance(column.indices, np.memmap), name
                assert not column.heap.decoded, \
                    "%s decoded its var heap eagerly" % name
                checked_var += 1
    assert checked_fixed > 10 and checked_var > 5

    # the real pager agrees: nothing was faulted in by the open...
    snapshot = residency_snapshot(kernel)
    assert snapshot, "pagemap residency accounting unavailable"
    assert all(pages == 0 for pages in snapshot.values())
    # ...until a query actually runs
    QUERIES[1].run(reopened)
    after = residency_snapshot(kernel)
    assert sum(after.values()) > 0


def test_an_open_maps_one_file_whatever_the_heap_count(saved_db_dir):
    # a warm open costs one mapping, not one per heap: every heap is a
    # view of the generation's one heap file
    from repro.monet.storage import iter_catalog_heaps
    reopened, _report = open_tpcd(saved_db_dir)
    mappings = set()
    views = 0
    for heap in iter_catalog_heaps(reopened.kernel):
        for array in getattr(heap, "mapped", ()):
            assert isinstance(array, np.memmap)
            base = array
            while isinstance(base, np.ndarray):
                base = base.base
            mappings.add(id(base))
            views += 1
    assert views > 150
    assert len(mappings) == 1


def test_simulated_fault_traces_survive_reopen(tiny_tpcd_db,
                                               saved_db_dir):
    """The Figure 9 fault simulation is invariant under persistence.

    Depends on the reopen re-sharing heaps exactly as the load built
    them (e.g. the datavector registry extent must be the extent BAT's
    head heap, not a second mapping of the same oids)."""
    from repro.bench.harness import measure_query_faults
    reopened, _report = open_tpcd(saved_db_dir)
    for number in sorted(QUERIES):
        fresh = measure_query_faults(tiny_tpcd_db, QUERIES[number])
        warm = measure_query_faults(reopened, QUERIES[number])
        assert warm == fresh, \
            "Q%d fault trace changed after reopen (%d != %d)" \
            % (number, warm, fresh)


def _forbidden(name):
    def phase(*_args, **_kwargs):
        raise AssertionError("a warm start ran %s" % name)
    return phase


class _NoDbgen:
    """A dataset whose generated contents must not be read: only the
    ``(scale, seed)`` a warm start compares with the saved meta."""

    def __init__(self, dataset):
        self.scale = dataset.scale
        self.seed = dataset.seed

    @property
    def columns(self):
        raise AssertionError("a warm start read the generated columns")

    @property
    def data(self):
        raise AssertionError("a warm start read the generated data")


def test_load_tpcd_db_dir_caches_and_warm_starts(tiny_tpcd, tmp_path,
                                                 monkeypatch):
    db_dir = tmp_path / "cache"
    cold_db, cold_report = load_tpcd(tiny_tpcd, db_dir=db_dir)
    assert not cold_report.warm
    assert cold_report.save_s > 0
    assert load_tpcd(tiny_tpcd)[1].save_s == 0.0      # nothing saved
    meta = peek_tpcd_meta(db_dir)
    assert meta is not None
    assert meta["scale"] == tiny_tpcd.scale
    assert meta["seed"] == tiny_tpcd.seed
    assert meta["counts"]["item"] == tiny_tpcd.counts["item"]

    warm_db, warm_report = load_tpcd(tiny_tpcd, db_dir=db_dir)
    assert warm_report.warm
    assert warm_report.save_s == 0.0
    # a warm start runs no dbgen (never reads the generated columns)
    # and none of the load phases
    with monkeypatch.context() as patch:
        for phase in ("flatten", "create_datavectors", "reorder_on_tail"):
            patch.setattr(loader, phase, _forbidden(phase))
        _db, counted = load_tpcd(_NoDbgen(tiny_tpcd), db_dir=db_dir)
    assert counted.warm
    assert counted.datavector_s == counted.reorder_s == 0.0
    assert QUERIES[13].run(warm_db) == QUERIES[13].run(cold_db)
    # the logical store is re-attached, so the Figure 6 commute check
    # (physical vs reference evaluator) still works on a warm start
    assert warm_db.flat.data is tiny_tpcd.data
    warm_db.check_commutes(QUERIES[13].texts()[0])


def test_reopened_string_search_decodes_only_what_it_visits(
        tiny_tpcd_db, saved_db_dir):
    from repro.monet.operators.select import select_eq
    memory = tiny_tpcd_db.kernel.get("Customer_name")
    assert memory.props.tordered        # the binary-search path
    wanted = memory.tail.value(len(memory) // 3)
    reopened = MonetKernel.open(saved_db_dir).get("Customer_name")
    heap = reopened.tail.heap
    assert not heap.decoded
    found = select_eq(reopened, wanted)
    assert not heap.decoded             # O(log n) values, not the heap
    expected = select_eq(memory, wanted)
    assert len(found) == len(expected) >= 1
    assert found.head.logical().tolist() == \
        expected.head.logical().tolist()
    assert found.tail.logical().tolist() == \
        expected.tail.logical().tolist() == [wanted] * len(found)


def test_mismatched_cache_is_ignored(tiny_tpcd, tmp_path):
    db_dir = tmp_path / "cache"
    load_tpcd(tiny_tpcd, db_dir=db_dir)
    from repro.tpcd import generate
    other = generate(scale=tiny_tpcd.scale, seed=tiny_tpcd.seed + 1)
    _db, report = load_tpcd(other, db_dir=db_dir)
    assert not report.warm                 # seed mismatch -> cold load
    assert peek_tpcd_meta(db_dir)["seed"] == other.seed


def test_catalog_sizes_survive_reopen(tiny_tpcd_db, saved_db_dir):
    reopened, report = open_tpcd(saved_db_dir)
    assert reopened.kernel.total_bytes() == \
        tiny_tpcd_db.kernel.total_bytes()
    assert report.base_bytes > 0
    assert report.vector_bytes > 0
    assert sorted(reopened.kernel.registries) == \
        sorted(tiny_tpcd_db.kernel.registries)
    schema = tpcd_schema()
    assert set(reopened.kernel.registries) == set(schema.classes)


def test_open_missing_dir_raises(tmp_path):
    from repro.errors import CatalogError
    with pytest.raises(CatalogError):
        open_tpcd(tmp_path / "not-there")
    assert peek_tpcd_meta(tmp_path / "not-there") is None


def _widen_saved_columns(db_dir):
    """Rewrite a saved catalog the way it was saved before integer
    columns were narrowed: one file per heap (the layout of that time,
    :func:`storage_v1.unpack_catalog`) and every fixed integer column
    file (BAT heads and tails, datavector vectors) at its atom's own
    width."""
    import json
    from repro.monet import atoms
    from storage_v1 import unpack_catalog
    assert unpack_catalog(db_dir) > 100
    path = db_dir / "catalog.json"
    manifest = json.loads(path.read_text())
    widened = 0

    def widen(spec):
        nonlocal widened
        if spec.get("kind") != "fixed":
            return
        dtype = np.dtype(spec["dtype"])
        wide = atoms.atom(spec["atom"]).dtype.newbyteorder("<")
        if dtype.kind == "i" and dtype != wide:
            data = np.fromfile(db_dir / spec["file"], dtype=dtype)
            data.astype(wide).tofile(db_dir / spec["file"])
            spec["dtype"] = wide.str
            widened += 1
    for entry in manifest["bats"].values():
        widen(entry["head"])
        widen(entry["tail"])
        vector = entry.get("accel", {}).get("datavector")
        if vector is not None:
            widen(vector["vector"])
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return widened


def test_a_catalog_saved_at_full_width_still_opens(tiny_tpcd, tmp_path):
    """No format change came with narrow columns: the manifest records
    each column's dtype, so a catalog saved with every integer column
    at its atom's width, one file per heap, opens as it was saved and
    answers alike."""
    db_dir = tmp_path / "db"
    narrow, _report = load_tpcd(tiny_tpcd, db_dir=db_dir)
    assert _widen_saved_columns(db_dir) > 50
    wide, report = open_tpcd(db_dir)
    assert report.warm
    item = wide.kernel.get("Item_quantity")
    assert item.head.data.dtype == np.int64
    assert item.tail.data.dtype == np.int32
    assert isinstance(item.tail.data, np.memmap)
    for number in sorted(QUERIES):
        assert QUERIES[number].run(wide) == QUERIES[number].run(narrow), \
            "Q%d differs on the full-width catalog" % number
