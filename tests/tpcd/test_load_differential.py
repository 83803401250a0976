"""The columnar loader against the per-value one it replaced.

``load_tpcd`` flattens dbgen's class columns a column at a time;
``loader_reference.py`` holds the loader it replaced, which flattened
the eagerly built logical store object by object.  Loading the same
dataset both ways must give equal catalogs — atoms, dtypes (each
integer column in the narrowest width holding it, by the reference's
own rule), heap value order, indices, props, alignment groups and
datavectors, BAT by BAT — and byte-identical ``save_tpcd``
directories.  The logical store the reference evaluator reads is
built only when something reads it.
"""

import os

import numpy as np
import pytest

import loader_reference as reference
from repro.moa import MOADatabase
from repro.moa import mapping
from repro.moa.mapping import create_datavectors, reorder_on_tail
from repro.monet.column import VarColumn, VoidColumn
from repro.sql.runtime import execute_sql
from repro.sql.suite import sql_queries, sql_text
from repro.tpcd import (QUERIES, generate, load_tpcd, save_tpcd,
                        tpcd_schema)
from repro.tpcd import dbgen


def _reference_load(data):
    """The replaced pipeline: per-value flatten of the logical view,
    then the same datavector and reorder phases as ``load_tpcd``."""
    db = MOADatabase(tpcd_schema())
    db.flat = reference.flatten(db.schema, data, db.kernel)
    create_datavectors(db.flat)
    reorder_on_tail(db.flat)
    return db


def _column_state(column):
    if isinstance(column, VoidColumn):
        return ("void", column.seqbase, column.length)
    if isinstance(column, VarColumn):
        heap = column.heap
        return ("var", column.atom.name, column.indices.dtype.str,
                column.indices.tolist(), list(heap.values), heap.label,
                heap.nbytes, column._index_heap.label)
    data = column.data
    return ("fixed", column.atom.name, data.dtype.str,
            # NaN-safe: compare the bytes, not the values
            data.tobytes(), column._heap.label)


def _catalog_state(kernel):
    """Everything a load decides, with alignment tokens and heap ids
    (process-global counters) replaced by first-seen indices."""
    groups = {}
    state = []
    for name in kernel.names():
        bat = kernel.get(name)
        token = bat.alignment
        group = None if token is None else (
            token[0], groups.setdefault(token, len(groups)))
        vector = bat.accel.get("datavector")
        state.append((name, _column_state(bat.head),
                      _column_state(bat.tail), repr(bat.props), group,
                      sorted(bat.accel),
                      vector and _column_state(vector.vector)))
    registries = {class_name: np.asarray(registry.extent).tolist()
                  for class_name, registry in kernel.registries.items()}
    return state, registries


def _directory_bytes(path):
    return {name: (path / name).read_bytes()
            for name in sorted(os.listdir(path))}


@pytest.mark.parametrize("scale", [0.002, 0.005, 0.02])
@pytest.mark.parametrize("seed", [7, 11])
def test_columnar_load_equals_reference_load(scale, seed, tmp_path):
    dataset = generate(scale=scale, seed=seed)
    db, _report = load_tpcd(dataset)
    view = reference._logical_view(dataset.tables)
    expected = _reference_load(view)
    # the state holds every fixed column's dtype, and the reference
    # narrows integer columns by its own rule: the widths are diffed
    assert _catalog_state(db.kernel) == _catalog_state(expected.kernel)
    items = len(db.kernel.get("Item"))
    assert db.kernel.get("Item").head.data.dtype \
        == (np.int16 if items < 2 ** 15 else np.int32)
    assert db.kernel.get("Item_quantity").tail.data.dtype == np.int16
    save_tpcd(db, tmp_path / "columnar", dataset)
    save_tpcd(expected, tmp_path / "reference", dataset)
    assert _directory_bytes(tmp_path / "columnar") == \
        _directory_bytes(tmp_path / "reference")
    # the lazily derived logical store equals the hand-written view
    assert dataset.data == view


def test_loaded_columns_do_not_alias_dataset_tables():
    dataset = generate(scale=0.001, seed=7)
    db, _report = load_tpcd(dataset)
    arrays = [array for table in dataset.tables.values()
              for array in table.values()]
    for name in db.kernel.names():
        bat = db.kernel.get(name)
        for column in (bat.head, bat.tail):
            data = getattr(column, "data", None)
            if data is None:
                continue
            assert not any(np.shares_memory(data, array)
                           for array in arrays), name


def test_load_and_sql_plans_never_build_the_logical_view(monkeypatch):
    built = []
    real = mapping.columns_to_objects

    def counting(schema, columns):
        built.append(schema)
        return real(schema, columns)

    monkeypatch.setattr(dbgen, "columns_to_objects", counting)
    dataset = generate(scale=0.001, seed=7)
    db, _report = load_tpcd(dataset)
    for number in sorted(sql_queries()):
        execute_sql(db, sql_text(number))
    assert built == []
    # the reference evaluator still works, building it exactly once
    db.check_commutes(QUERIES[13].texts()[0])
    db.check_commutes(QUERIES[1].texts()[0])
    assert len(built) == 1
    assert db.flat.data is dataset.data


def test_warm_start_attaches_the_dataset_without_building(monkeypatch,
                                                          tmp_path):
    dataset = generate(scale=0.001, seed=7)
    load_tpcd(dataset, db_dir=tmp_path / "db")
    built = []
    monkeypatch.setattr(dbgen, "columns_to_objects",
                        lambda schema, columns: built.append(1) or {})
    warm, report = load_tpcd(dataset, db_dir=tmp_path / "db")
    assert report.warm and built == []
    assert warm.flat.data is dataset.data and len(built) == 1
