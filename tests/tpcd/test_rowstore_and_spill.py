"""Row-store access paths, fault asymmetry, and Q1-style spilling."""

import numpy as np
import pytest

from repro.monet.buffer import BufferManager, use
from repro.monet.multiproc import result_checksum
from repro.tpcd import QUERIES, RowStore, load_tpcd


@pytest.fixture(scope="module")
def store(tiny_tpcd):
    return RowStore(tiny_tpcd)


def test_row_width_is_nary(store):
    item = store.tables["item"]
    # 14 attributes + key => (n+1)*w bytes per row, per section 5.2.2
    assert item.row_width == (14 + 1) * 4


def test_select_rows_semantics(store, tiny_tpcd):
    item = tiny_tpcd.tables["item"]
    rows = store.select_rows("item", "returnflag", eq="R")
    assert np.array_equal(rows, np.nonzero(item["returnflag"] == "R")[0])
    rows = store.select_rows("item", "quantity", lo=10, hi=20)
    expected = np.nonzero((item["quantity"] >= 10)
                          & (item["quantity"] < 20))[0]
    assert np.array_equal(rows, expected)


def test_index_vs_scan_choice(store):
    manager = BufferManager()
    with use(manager):
        store.select_rows("item", "quantity", lo=1, hi=2)   # selective
    selective_faults = manager.faults
    manager = BufferManager()
    with use(manager):
        store.select_rows("item", "quantity", lo=1, hi=51)  # everything
    scan_faults = manager.faults
    assert selective_faults < scan_faults


def test_fetch_charges_whole_rows(store):
    # fetching ONE column still faults whole rows in — the row-store
    # penalty that motivates decomposition
    manager = BufferManager()
    rows = np.arange(0, store.tables["item"].n_rows, 7)
    with use(manager):
        store.fetch("item", rows, ["discount"])
    one_col = manager.faults
    manager = BufferManager()
    with use(manager):
        store.fetch("item", rows, ["discount", "quantity", "tax",
                                   "extendedprice"])
    four_cols = manager.faults
    assert one_col == four_cols       # same rows, same pages


def test_narrow_bat_beats_wide_rows(tiny_tpcd, tiny_tpcd_db, store):
    """The paper's core claim at the access-path level: reading one
    attribute of many rows costs less on decomposed storage."""
    from repro.monet import operators as ops
    manager_rel = BufferManager()
    with use(manager_rel):
        store.scan("item", ["discount"])
    manager_monet = BufferManager()
    with use(manager_monet):
        bat = tiny_tpcd_db.kernel.get("Item_discount")
        ops.select_range(bat, None, None)
    assert manager_monet.faults < manager_rel.faults


def test_q1_hot_set_spill(tiny_tpcd_db):
    """Section 6.2: query 1's hot set outgrows memory; with a small
    buffer budget the intermediate results spill and re-fault."""
    query = QUERIES[1]
    unbounded = BufferManager(page_size=4096)
    with use(unbounded):
        query.run(tiny_tpcd_db)
    tight = BufferManager(page_size=4096, memory_pages=40)
    with use(tight):
        query.run(tiny_tpcd_db)
    assert tight.evictions > 0
    assert tight.faults > unbounded.faults


def test_all_queries_produce_fault_attribution(store, tiny_tpcd_db):
    for number in (3, 6, 13):
        manager = BufferManager()
        with use(manager):
            store.run(number, QUERIES[number].params())
        assert any(k.startswith("rel.") for k in manager.op_faults)
        manager = BufferManager()
        with use(manager):
            QUERIES[number].run(tiny_tpcd_db)
        assert manager.op_faults


def test_old_rowstore_section_is_ignored_then_pruned(tmp_path, tiny_tpcd):
    """Catalogs saved while the row-store baseline was persisted carry
    a ``rowstore`` manifest section and ``_rowstore.*`` column files.
    Opening such a catalog ignores the section; the next save drops it
    and prunes its files."""
    from repro.monet.storage import as_backend
    from repro.tpcd import open_tpcd, save_tpcd
    db_dir = tmp_path / "db"
    load_tpcd(tiny_tpcd, db_dir=db_dir)
    backend = as_backend(db_dir)
    manifest = backend.read_manifest()
    quantity = np.asarray(tiny_tpcd.tables["item"]["quantity"])
    old_file = "g1._rowstore.item.quantity.col"
    quantity.astype(quantity.dtype.newbyteorder("<")).tofile(
        db_dir / old_file)
    manifest["rowstore"] = {"tables": {"item": {"quantity": {
        "file": old_file, "dtype": quantity.dtype.str,
        "length": len(quantity)}}}}
    backend.write_manifest(manifest)

    db, _report = open_tpcd(db_dir)
    expected = result_checksum(QUERIES[6].run(load_tpcd(tiny_tpcd)[0]))
    assert result_checksum(QUERIES[6].run(db)) == expected
    save_tpcd(db, db_dir)
    assert "rowstore" not in backend.read_manifest()
    assert not (db_dir / old_file).exists()
    reopened, _report = open_tpcd(db_dir)
    assert result_checksum(QUERIES[6].run(reopened)) == expected


def test_qppd_metric():
    from repro.bench import geometric_mean
    assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([5.0]) == pytest.approx(5.0)


def test_format_table_and_chart():
    from repro.bench import ascii_chart, format_table
    table = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]],
                         title="t")
    assert "t\n" in table and "x" in table
    chart = ascii_chart([0, 1], {"s": [0, 10]}, width=10, height=4)
    assert "s = " not in chart or "= s" in chart or "s" in chart
