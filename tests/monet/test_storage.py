"""Storage layer: backends, save/open round trips, corruption paths.

The round-trip contract is BUN-for-BUN equality across every atom
kind, with properties, alignment (synced) groups, shared var heaps and
datavectors preserved — and, for the mmap backend, *zero-copy*
reopening: columns come back as ``np.memmap`` views and var heaps do
not decode until first use.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import CatalogError, HeapError
from repro.monet import (MemoryBackend, MmapBackend, MonetKernel,
                         bat_from_pairs, operators as ops)
from repro.monet.buffer import BufferManager, use
from repro.monet.heap import MappedVarHeap, VarHeap
from repro.monet.properties import synced, verify
from repro.monet.storage import (HEAP_ALIGN, PAGESIZE, heap_resident_pages,
                                 iter_catalog_heaps, mapped_file_rss,
                                 residency_report, residency_snapshot)

from storage_v1 import unpack_catalog


def build_kernel():
    """A small catalog covering every atom kind + accelerators."""
    kernel = MonetKernel()
    kernel.bulk_load("T_name", "oid", [0, 1, 2, 3], "string",
                     ["cherry", "apple", "banana", "apple"], group="T")
    kernel.bulk_load("T_price", "oid", [0, 1, 2, 3], "double",
                     [9.5, 1.25, -3.0, 1.25], group="T")
    kernel.bulk_load("T_size", "oid", [0, 1, 2, 3], "int",
                     [7, 2, 2, 9], group="T")
    kernel.bulk_load("T_flag", "oid", [0, 1, 2, 3], "bool",
                     [True, False, True, True], group="T")
    kernel.bulk_load("T_grade", "oid", [0, 1, 2, 3], "char",
                     ["a", "c", "b", "a"], group="T")
    kernel.bulk_load("T_when", "oid", [0, 1, 2, 3], "instant",
                     ["1995-03-05", "1992-01-01", "1998-08-02",
                      "1995-03-05"], group="T")
    kernel.create_extent("T", "T_name")
    kernel.create_datavectors("T", ["T_name", "T_price"])
    return kernel


@pytest.fixture(params=["memory", "mmap"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryBackend()
    return MmapBackend(tmp_path / "db")


def test_round_trip_bun_for_bun(backend):
    kernel = build_kernel()
    kernel.save(backend, meta={"kind": "demo"})
    reopened = MonetKernel.open(backend)
    assert reopened.names() == kernel.names()
    for name in kernel.names():
        original, copy = kernel.get(name), reopened.get(name)
        assert copy.to_pairs() == original.to_pairs(), name
        assert copy.props == original.props, name
        assert copy.signature() == original.signature(), name
        verify(copy)


def test_round_trip_alignment_and_shared_heaps(backend):
    kernel = build_kernel()
    kernel.save(backend)
    reopened = MonetKernel.open(backend)
    # one load group -> still mutually synced after reopen
    assert synced(reopened.get("T_name"), reopened.get("T_price"))
    assert synced(reopened.get("T_name"), reopened.get("T_when"))
    # the datavector of a string attribute shares the base heap; the
    # share must survive (the heap is written and opened exactly once)
    name_bat = reopened.get("T_name")
    vector = name_bat.accel["datavector"].vector
    assert vector.heap is name_bat.tail.heap
    # reopened group alignment is re-attached to the kernel, so later
    # loads into the same group stay synced with reopened BATs
    reopened.bulk_load("T_extra", "oid", [0, 1, 2, 3], "int",
                       [5, 6, 7, 8], group="T")
    assert synced(reopened.get("T_extra"), reopened.get("T_price"))


def test_round_trip_accelerators(backend):
    kernel = build_kernel()
    kernel.save(backend)
    reopened = MonetKernel.open(backend)
    # datavector answers the same lookups
    original_dv = kernel.get("T_price").accel["datavector"]
    reopened_dv = reopened.get("T_price").accel["datavector"]
    assert list(reopened_dv.vector.logical()) == \
        list(original_dv.vector.logical())
    assert np.array_equal(reopened_dv.registry.extent,
                          original_dv.registry.extent)


def test_stale_hash_accelerator_slot_is_ignored_and_pruned(tmp_path):
    # builds that had a hash accelerator listed it as an accel slot
    # with two array files; reopening ignores the slot and the next
    # save prunes the files it no longer references
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    manifest_path = tmp_path / "db" / "catalog.json"
    manifest = json.loads(manifest_path.read_text())
    stale = []
    for slot in ("hash", "hash_tail"):
        files = {part: "g1.T_price.%s.%s" % (slot, part)
                 for part in ("order", "keys")}
        for file_name in files.values():
            np.arange(4, dtype="<i8").tofile(tmp_path / "db" / file_name)
            stale.append(file_name)
        manifest["bats"]["T_price"]["accel"][slot] = dict(
            files, dtype="<i8", length=4, label="T_price." + slot)
    manifest_path.write_text(json.dumps(manifest))
    reopened = MonetKernel.open(tmp_path / "db")
    assert set(reopened.get("T_price").accel) == {"datavector"}
    assert reopened.get("T_price").to_pairs() == \
        kernel.get("T_price").to_pairs()
    reopened.save(tmp_path / "db")
    left = set(os.listdir(tmp_path / "db"))
    assert not left & set(stale)
    assert MonetKernel.open(tmp_path / "db").get("T_price").to_pairs() \
        == kernel.get("T_price").to_pairs()


def test_mmap_reopen_is_zero_copy_and_lazy(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    reopened = MonetKernel.open(tmp_path / "db")
    price = reopened.get("T_price")
    assert isinstance(price.tail.data, np.memmap)
    assert isinstance(price.head.data, np.memmap)
    name = reopened.get("T_name")
    assert isinstance(name.tail.indices, np.memmap)
    heap = name.tail.heap
    assert isinstance(heap, MappedVarHeap)
    assert not heap.decoded          # no eager read of the bodies
    assert len(heap) == 3            # length known without decoding
    assert heap.nbytes == sum(len(v) + 1 for v in
                              ("cherry", "apple", "banana"))
    # one value decodes from the mapped body alone
    assert name.tail.value(0) == "cherry"
    assert not heap.decoded
    # the first lookup materialises values + lookup lazily
    assert heap.lookup["banana"] == 2
    assert heap.decoded
    assert name.tail.value(2) == "banana"


def test_saving_reopened_kernel_does_not_decode(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "one")
    reopened = MonetKernel.open(tmp_path / "one")
    reopened.save(tmp_path / "two")
    assert not reopened.get("T_name").tail.heap.decoded
    again = MonetKernel.open(tmp_path / "two")
    assert again.get("T_name").to_pairs() == \
        kernel.get("T_name").to_pairs()


def test_resave_prunes_stale_heap_files(tmp_path):
    # every save names its files after its own generation; the
    # previous generation must not be stranded on disk
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    first = set(os.listdir(tmp_path / "db"))
    reopened = MonetKernel.open(tmp_path / "db")
    reopened.save(tmp_path / "db")
    second = set(os.listdir(tmp_path / "db"))
    assert len(second) <= len(first)
    foreign = tmp_path / "db" / "users-notes.txt"
    foreign.write_text("not ours")
    MonetKernel.open(tmp_path / "db").save(tmp_path / "db")
    assert foreign.exists()               # pruning never touches it
    assert MonetKernel.open(tmp_path / "db").get("T_name").to_pairs() \
        == kernel.get("T_name").to_pairs()


def _kernel_with_heaps_born(order):
    """Two string BATs, their var heaps allocated in ``order`` but
    registered in one fixed order."""
    values = {"T_a": ["x", "y", "x"], "T_b": ["q", "r", "q"]}
    bats = {name: bat_from_pairs("oid", "string", enumerate(values[name]))
            for name in order}
    kernel = MonetKernel()
    for name in sorted(bats):
        kernel.register(name, bats[name])
    return kernel


def test_saves_of_equal_catalogs_are_byte_identical(tmp_path):
    # var heap keys count heaps in save order, not the process-wide
    # heap id, so allocation order cannot change a single byte
    for label, order in (("ab", ["T_a", "T_b"]), ("ba", ["T_b", "T_a"])):
        _kernel_with_heaps_born(order).save(tmp_path / label)
    names = sorted(os.listdir(tmp_path / "ab"))
    assert names == sorted(os.listdir(tmp_path / "ba"))
    for name in names:
        assert (tmp_path / "ab" / name).read_bytes() == \
            (tmp_path / "ba" / name).read_bytes(), name
    manifest = json.loads((tmp_path / "ab" / "catalog.json").read_text())
    assert sorted(manifest["var_heaps"]) == ["vh0", "vh1"]


def test_manifest_keyed_by_heap_id_still_opens_and_prunes(tmp_path):
    # catalogs saved before keys counted save order named each var
    # heap vh<heap id> (in the one-file-per-heap layout of the time):
    # they reopen unchanged, and the next save replaces those files
    # with one packed heap file
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    unpack_catalog(tmp_path / "db")
    manifest_path = tmp_path / "db" / "catalog.json"
    manifest = json.loads(manifest_path.read_text())
    renamed = {}
    old_files = set()
    for number, (key, spec) in enumerate(sorted(
            manifest["var_heaps"].items())):
        old_key = "vh%d" % (4711 + number)
        for part in ("offsets", "body"):
            old_name = spec[part].replace(key + ".", old_key + ".")
            os.rename(tmp_path / "db" / spec[part],
                      tmp_path / "db" / old_name)
            spec[part] = old_name
            old_files.add(old_name)
        renamed[key] = old_key
        manifest["var_heaps"][old_key] = manifest["var_heaps"].pop(key)
    for entry in manifest["bats"].values():
        for side in [entry["head"], entry["tail"]] + [
                slot["vector"] for slot in entry.get("accel", {}).values()]:
            if side.get("heap") in renamed:
                side["heap"] = renamed[side["heap"]]
    assert renamed
    manifest_path.write_text(json.dumps(manifest))
    reopened = MonetKernel.open(tmp_path / "db")
    for name in kernel.names():
        assert reopened.get(name).to_pairs() == \
            kernel.get(name).to_pairs(), name
    reopened.save(tmp_path / "db")
    assert not old_files & set(os.listdir(tmp_path / "db"))
    again = MonetKernel.open(tmp_path / "db")
    for name in kernel.names():
        assert again.get(name).to_pairs() == kernel.get(name).to_pairs()


def test_saving_back_to_the_same_directory(tmp_path):
    # the arrays being written are np.memmap views of the destination
    # files themselves; the write-to-temp + rename path must not
    # truncate the backing file under the live mapping (SIGBUS)
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    reopened = MonetKernel.open(tmp_path / "db")
    reopened.save(tmp_path / "db")
    again = MonetKernel.open(tmp_path / "db")
    for name in kernel.names():
        assert again.get(name).to_pairs() == \
            kernel.get(name).to_pairs(), name


def test_missing_manifest_raises_catalog_error(tmp_path):
    with pytest.raises(CatalogError):
        MonetKernel.open(tmp_path / "nowhere")


def test_corrupt_manifest_raises_catalog_error(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    manifest_path = tmp_path / "db" / "catalog.json"
    text = manifest_path.read_text()
    manifest_path.write_text(text[:len(text) // 2])   # truncated JSON
    with pytest.raises(CatalogError):
        MonetKernel.open(tmp_path / "db")


def test_wrong_format_raises_catalog_error(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    manifest_path = tmp_path / "db" / "catalog.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = "something-else"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CatalogError):
        MonetKernel.open(tmp_path / "db")


def test_unsupported_version_raises_catalog_error(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    manifest_path = tmp_path / "db" / "catalog.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CatalogError):
        MonetKernel.open(tmp_path / "db")


def _heap_file_of(db_dir, bat_name):
    # heap file names are generation-scoped; the manifest is the one
    # authority on them
    manifest = json.loads((db_dir / "catalog.json").read_text())
    return db_dir / manifest["bats"][bat_name]["tail"]["file"]


def test_truncated_heap_file_raises_heap_error(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    victim = _heap_file_of(tmp_path / "db", "T_price")
    data = victim.read_bytes()
    victim.write_bytes(data[:-8])
    with pytest.raises(HeapError):
        MonetKernel.open(tmp_path / "db")


def test_missing_heap_file_raises_heap_error(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    os.unlink(_heap_file_of(tmp_path / "db", "T_size"))
    with pytest.raises(HeapError):
        MonetKernel.open(tmp_path / "db")


def test_empty_catalog_and_empty_heaps_round_trip(tmp_path):
    kernel = MonetKernel()
    kernel.save(tmp_path / "empty")
    assert MonetKernel.open(tmp_path / "empty").names() == []

    kernel.bulk_load("E", "oid", [], "string", [])
    kernel.save(tmp_path / "db")
    reopened = MonetKernel.open(tmp_path / "db")
    assert reopened.get("E").to_pairs() == []
    assert len(reopened.get("E").tail.heap) == 0


def test_buffer_tracks_pages_per_heap():
    kernel = build_kernel()
    bat = kernel.get("T_price")
    manager = BufferManager(page_size=4096, track_pages=True)
    with use(manager):
        ops.select_range(bat, -100.0, 100.0)
    counts = manager.touched_page_counts()
    assert counts
    assert all(pages >= 1 for pages in counts.values())
    manager.reset_counters()
    assert manager.touched_page_counts() == {}


def test_residency_report_against_real_pager(tmp_path):
    # 64 pages of int64 per column once; the values 0 .. n-1 fit
    # int16, the width a catalog column of them is stored in, so the
    # column is n * 2 bytes: 16 pages
    n = 64 * PAGESIZE // 8
    kernel = MonetKernel()
    kernel.bulk_load("big", "oid", list(range(n)), "long",
                     list(range(n)), group="G")
    kernel.save(tmp_path / "db")
    reopened = MonetKernel.open(tmp_path / "db")
    bat = reopened.get("big")
    assert bat.tail.data.dtype == np.int16
    before = residency_snapshot(reopened)
    assert before, "pagemap residency accounting unavailable"
    # a fresh mapping has faulted nothing in yet — the no-eager-read
    # guarantee, observed through the real pager
    assert all(pages == 0 for pages in before.values())

    manager = BufferManager(page_size=PAGESIZE, track_pages=True)
    with use(manager):
        manager.access_heap(bat.tail.heaps[0])
    int(np.asarray(bat.tail.data).sum())     # really touch every page
    rows, totals = residency_report(reopened, manager, before=before)
    tail_rows = [row for row in rows if row["label"] == "big.tail"]
    assert tail_rows
    assert tail_rows[0]["simulated_pages"] == 16
    assert tail_rows[0]["resident_pages"] >= 16


def test_residency_helpers_degrade_gracefully(tmp_path):
    assert mapped_file_rss(None) is None
    assert mapped_file_rss(str(tmp_path / "unmapped.bin")) in (0, None)
    plain_heap_bat = MonetKernel()
    plain_heap_bat.bulk_load("m", "oid", [0, 1], "long", [1, 2])
    for column in (plain_heap_bat.get("m").head,
                   plain_heap_bat.get("m").tail):
        for heap in column.heaps:
            assert heap_resident_pages(heap) is None   # not mmap-backed


def test_var_heap_sorted_order_vectorised_and_cached():
    heap = VarHeap()
    for value in ["pear", "apple", "fig", "apple", "cherry"]:
        heap.insert(value)
    order, rank = heap.sorted_order()
    assert [heap.values[i] for i in order] == \
        sorted(["pear", "apple", "fig", "cherry"])
    assert list(rank[order]) == list(range(len(heap)))
    # cached until the next insert (same objects returned)
    assert heap.sorted_order()[0] is order
    table = heap.decode_table()
    assert heap.decode_table() is table
    banana = heap.insert("banana")
    assert heap.sorted_order()[0] is not order
    assert list(heap.decode([banana])) == ["banana"]


def test_mapped_var_heap_insert_after_reopen_round_trips(tmp_path):
    """Mutating a reopened (mmap-backed) var heap must behave like a
    live VarHeap: the insert materialises the value list lazily,
    ``lookup``/``_body_bytes`` stay consistent, and a subsequent
    ``MonetKernel.save`` re-encodes the mutated heap instead of
    writing the stale mapped bytes."""
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    reopened = MonetKernel.open(tmp_path / "db")
    heap = reopened.get("T_name").tail.heap
    assert isinstance(heap, MappedVarHeap) and not heap.decoded

    before_bytes = heap.nbytes
    index = heap.insert("quince")
    assert heap.decoded                      # insert forced the decode
    assert index == 3                        # appended after the
    assert heap.decode_one(index) == "quince"   # 3 mapped values
    assert heap.insert("quince") == index    # interning, not appending
    assert heap.lookup == {"cherry": 0, "apple": 1, "banana": 2,
                           "quince": 3}
    assert heap.nbytes == before_bytes + len("quince") + 1
    assert len(heap) == 4

    # the mutated heap round-trips through save (fresh dir and
    # save-over-self, which rewrites under the live mapping)
    for target in (tmp_path / "other", tmp_path / "db"):
        reopened.save(target)
        again = MonetKernel.open(target)
        again_heap = again.get("T_name").tail.heap
        assert len(again_heap) == 4
        assert again_heap.decode_one(3) == "quince"
        assert again_heap.nbytes == heap.nbytes
        assert again.get("T_name").to_pairs() == \
            kernel.get("T_name").to_pairs()
        assert again_heap.lookup["quince"] == 3


def test_mapped_var_heap_sorted_order(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    reopened = MonetKernel.open(tmp_path / "db")
    heap = reopened.get("T_name").tail.heap
    order, _rank = heap.sorted_order()
    assert [heap.values[i] for i in order] == \
        ["apple", "banana", "cherry"]


def _heap_specs(manifest):
    """``(file, offset, nbytes)`` of every heap a manifest lists."""
    specs = []

    def column(spec):
        if spec["kind"] != "void":
            specs.append((spec["file"], spec["offset"],
                          np.dtype(spec["dtype"]).itemsize
                          * spec["length"]))
    for entry in manifest["bats"].values():
        column(entry["head"])
        column(entry["tail"])
        if "datavector" in entry.get("accel", {}):
            column(entry["accel"]["datavector"]["vector"])
    for spec in manifest["var_heaps"].values():
        specs.append((spec["offsets"], spec["offsets_offset"],
                      8 * (spec["count"] + 1)))
        specs.append((spec["body"], spec["body_offset"],
                      spec["body_bytes"]))
    return specs


def _column_bytes(column):
    if hasattr(column, "indices"):
        return np.asarray(column.indices).tobytes()
    return np.asarray(column.data).tobytes()


def test_packed_save_reopens_every_heap_byte_identical(tmp_path):
    # one heap file per save, every heap at its own aligned offset,
    # no two heaps overlapping; each reopens with the bytes it had
    kernel = build_kernel()
    manifest = kernel.save(tmp_path / "db")
    assert set(os.listdir(tmp_path / "db")) == {
        "g1.heaps", "catalog.json", "catalog.lock"}
    specs = sorted(_heap_specs(manifest), key=lambda spec: spec[1])
    assert len(specs) > 10
    assert {spec[0] for spec in specs} == {"g1.heaps"}
    assert all(offset % HEAP_ALIGN == 0 for _file, offset, _n in specs)
    for (_f, offset, nbytes), (_g, following, _m) in zip(specs,
                                                         specs[1:]):
        assert offset + nbytes <= following
    reopened = MonetKernel.open(tmp_path / "db")
    for name in kernel.names():
        original, copy = kernel.get(name), reopened.get(name)
        for side in ("head", "tail"):
            old, new = getattr(original, side), getattr(copy, side)
            if hasattr(old, "data") or hasattr(old, "indices"):
                assert _column_bytes(new) == _column_bytes(old), \
                    (name, side)
            if hasattr(old, "heap"):
                assert new.heap.values == old.heap.values, name
        if "datavector" in original.accel:
            assert _column_bytes(copy.accel["datavector"].vector) == \
                _column_bytes(original.accel["datavector"].vector), name


def test_a_per_file_catalog_still_opens_and_resaves_packed(tmp_path):
    # a version-1 catalog (one raw file per heap, no offsets) opens
    # through the same reader, and its next save packs it
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    assert unpack_catalog(tmp_path / "db") > 10
    on_disk = set(os.listdir(tmp_path / "db"))
    assert "g1.heaps" not in on_disk
    assert any(name.endswith(".col") for name in on_disk)
    reopened = MonetKernel.open(tmp_path / "db")
    assert isinstance(reopened.get("T_price").tail.data, np.memmap)
    for name in kernel.names():
        assert reopened.get(name).to_pairs() == \
            kernel.get(name).to_pairs(), name
        assert reopened.get(name).props == kernel.get(name).props
    assert list(reopened.get("T_name").accel["datavector"].vector
                .logical()) == ["cherry", "apple", "banana", "apple"]
    reopened.save(tmp_path / "db")
    assert set(os.listdir(tmp_path / "db")) == {
        "g2.heaps", "catalog.json", "catalog.lock"}
    again = MonetKernel.open(tmp_path / "db")
    for name in kernel.names():
        assert again.get(name).to_pairs() == kernel.get(name).to_pairs()


def _mapping_of(array):
    """The ``mmap`` object at the bottom of an array's base chain."""
    base = array
    while isinstance(base, np.ndarray):
        base = base.base
    return base


def test_an_open_maps_its_heap_file_once(tmp_path):
    kernel = build_kernel()
    kernel.save(tmp_path / "db")
    opened = [MonetKernel.open(tmp_path / "db") for _ in range(2)]
    for reopened in opened:
        arrays = [array for heap in iter_catalog_heaps(reopened)
                  for array in getattr(heap, "mapped", ())]
        assert len(arrays) > 10
        assert all(isinstance(array, np.memmap) for array in arrays)
        assert len({id(_mapping_of(array)) for array in arrays}) == 1
    # each open maps its own generation's file
    assert _mapping_of(opened[0].get("T_price").tail.data) is not \
        _mapping_of(opened[1].get("T_price").tail.data)


def test_pagemap_residency_equals_smaps_rss_on_a_single_heap_file(
        tmp_path):
    # a void-headed BAT saves one heap, so its heap file is that heap
    # alone and smaps' per-file Rss is the heap's residency too
    per_page = PAGESIZE // 8
    kernel = MonetKernel()
    kernel.dense_bat("one", "long",
                     np.arange(64 * per_page, dtype=np.int64) << 40)
    manifest = kernel.save(tmp_path / "db")
    assert len(_heap_specs(manifest)) == 1
    reopened = MonetKernel.open(tmp_path / "db")
    data = reopened.get("one").tail.data
    assert data.dtype == np.int64
    heap = reopened.get("one").tail.heaps[0]
    path = str(tmp_path / "db" / "g1.heaps")
    assert heap_resident_pages(heap) == mapped_file_rss(path) // PAGESIZE \
        == 0
    int(np.asarray(data[8 * per_page:24 * per_page]).sum())
    resident = heap_resident_pages(heap)
    assert resident == mapped_file_rss(path) // PAGESIZE
    assert 16 <= resident <= 64


def test_var_heap_saves_nul_terminated_utf8():
    # one encode of the whole heap gives the bytes and offsets a
    # per-value encode gives, multi-byte and empty values included
    values = ["", "é", "x中文", "abc", "\U0001f600z"]
    kernel = MonetKernel()
    kernel.bulk_load("S", "oid", list(range(len(values))), "string",
                     values)
    backend = MemoryBackend()
    manifest = kernel.save(backend)
    (spec,) = manifest["var_heaps"].values()
    blob = backend.map_file(spec["body"])
    encoded = [value.encode("utf-8") + b"\0" for value in values]
    body = blob[spec["body_offset"]:][:spec["body_bytes"]]
    assert body.tobytes() == b"".join(encoded)
    offsets = blob[spec["offsets_offset"]:][:8 * (spec["count"] + 1)]
    assert offsets.view("<i8").tolist() == \
        [0] + np.cumsum([len(piece) for piece in encoded]).tolist()
    assert MonetKernel.open(backend).get("S").to_pairs() == \
        kernel.get("S").to_pairs()
