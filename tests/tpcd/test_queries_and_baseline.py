"""All 15 TPC-D queries: MOA engine == row-store baseline.

Three independent engines must agree on every query: the flattened
MOA/Monet execution (the hand-written drivers here, the SQL path in
``tests/sql``), the n-ary row-store baseline, and sqlite
(``tests/sql/test_oracle.py`` pins the drivers to it).
"""

import pytest

from repro.moa.values import sequences_equivalent
from repro.tpcd import QUERIES, RowStore, load_tpcd
from repro.tpcd.schema import tpcd_schema


def _agree(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(a, (int, float)):
        return abs(float(a) - float(b)) \
            <= 1e-6 * max(1.0, abs(float(b)))
    return sequences_equivalent(a, b)


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_rowstore_matches_reference(number, tiny_tpcd, tiny_tpcd_db):
    # the reference is the Moa driver, itself pinned to sqlite: field
    # names, bag semantics and float tolerance are all compared
    query = QUERIES[number]
    store = RowStore(tiny_tpcd)
    expected = query.run(tiny_tpcd_db)
    actual = store.run(number, query.params())
    assert _agree(actual, expected), \
        "Q%d mismatch:\nROW: %r\nMOA: %r" % (number, actual, expected)


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_query_texts_parse(number):
    from repro.moa.parser import parse
    from repro.moa.typecheck import resolve
    schema = tpcd_schema()
    for text in QUERIES[number].texts():
        resolve(parse(text), schema)


def test_parameter_overrides(tiny_tpcd, tiny_tpcd_db):
    query = QUERIES[6]
    wide = query.run(tiny_tpcd_db, {"disc_lo": "0.0", "disc_hi": "0.1",
                                    "qty": 51})
    narrow = query.run(tiny_tpcd_db)
    assert float(wide) >= float(narrow)


def test_schema_matches_figure1():
    schema = tpcd_schema()
    assert set(schema.class_names()) == {
        "Region", "Nation", "Part", "Supplier", "Customer", "Order",
        "Item"}
    item = schema.cls("Item")
    assert item.attribute_names() == [
        "part", "supplier", "order", "quantity", "returnflag",
        "linestatus", "extendedprice", "discount", "tax", "shipdate",
        "commitdate", "receiptdate", "shipmode", "shipinstruct"]
    supplier = schema.cls("Supplier")
    from repro.moa.types import SetType, TupleType
    supplies = supplier.attribute("supplies")
    assert isinstance(supplies, SetType)
    assert isinstance(supplies.element, TupleType)


def test_loader_builds_accelerators(tiny_tpcd):
    db, report = load_tpcd(tiny_tpcd)
    assert report.load_s > 0
    assert report.vector_bytes > 0
    assert "Item" in db.kernel.registries
    item_price = db.kernel.get("Item_extendedprice")
    assert "datavector" in item_price.accel
    assert item_price.props.tordered         # reordered on tail


def test_item_selectivities_reasonable(tiny_tpcd):
    # Figure 9's selectivity column: Q1 is ~98%, Q6 low, Q13 very low
    s1 = QUERIES[1].item_selectivity(tiny_tpcd)
    assert s1 > 0.9
    s6 = QUERIES[6].item_selectivity(tiny_tpcd)
    assert s6 < 0.1
    s13 = QUERIES[13].item_selectivity(tiny_tpcd)
    assert s13 < 0.05


def test_rowstore_faults_accounted(tiny_tpcd):
    from repro.monet.buffer import BufferManager, use
    store = RowStore(tiny_tpcd)
    manager = BufferManager()
    with use(manager):
        store.run(6, QUERIES[6].params())
    assert manager.faults > 0


def test_moa_faults_accounted(tiny_tpcd_db):
    from repro.monet.buffer import BufferManager, use
    manager = BufferManager()
    with use(manager):
        QUERIES[6].run(tiny_tpcd_db)
    assert manager.faults > 0
