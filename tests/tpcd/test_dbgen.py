"""DBGEN equivalent: determinism, cardinalities, distributions."""

import numpy as np
import pytest

from repro.errors import DBGenError
from repro.monet.atoms import days_to_date
from repro.tpcd import generate
from repro.tpcd.dbgen import CURRENT_DATE, END_DATE, START_DATE


@pytest.fixture(scope="module")
def ds():
    return generate(scale=0.001, seed=5)


def test_determinism():
    a = generate(scale=0.0005, seed=9)
    b = generate(scale=0.0005, seed=9)
    assert np.array_equal(a.tables["item"]["extendedprice"],
                          b.tables["item"]["extendedprice"])
    assert a.data["Order"][0] == b.data["Order"][0]
    c = generate(scale=0.0005, seed=10)
    assert not np.array_equal(a.tables["item"]["extendedprice"],
                              c.tables["item"]["extendedprice"])


def test_invalid_scale():
    with pytest.raises(DBGenError):
        generate(scale=0)


def test_cardinalities_scale(ds):
    # spec ratios at SF=1: 10k suppliers, 200k parts, 150k customers,
    # 1.5M orders, ~6M items (1-7 per order, mean 4)
    assert ds.counts["region"] == 5
    assert ds.counts["nation"] == 25
    assert ds.counts["supplier"] == 10
    assert ds.counts["part"] == 200
    assert ds.counts["customer"] == 150
    assert ds.counts["order"] == 1500
    assert 3.5 * ds.counts["order"] < ds.counts["item"] \
        < 4.5 * ds.counts["order"]
    assert ds.counts["partsupp"] == 4 * ds.counts["part"]


def test_referential_integrity(ds):
    item = ds.tables["item"]
    assert item["order"].max() < ds.counts["order"]
    assert item["part"].max() < ds.counts["part"]
    assert item["supplier"].max() < ds.counts["supplier"]
    orders = ds.tables["orders"]
    assert orders["cust"].max() < ds.counts["customer"]
    # item supplier must actually supply the part
    ps_pairs = set(zip(ds.tables["partsupp"]["part"].tolist(),
                       ds.tables["partsupp"]["supplier"].tolist()))
    for p, s in zip(item["part"][:200].tolist(),
                    item["supplier"][:200].tolist()):
        assert (p, s) in ps_pairs


def test_date_rules(ds):
    item = ds.tables["item"]
    orders = ds.tables["orders"]
    assert orders["orderdate"].min() >= START_DATE
    assert orders["orderdate"].max() <= END_DATE
    odates = orders["orderdate"][item["order"]]
    assert np.all(item["shipdate"] > odates)
    assert np.all(item["receiptdate"] > item["shipdate"])
    # returnflag rule: R/A iff received before the current date
    returned = item["receiptdate"] <= CURRENT_DATE
    flags = item["returnflag"]
    assert set(flags[returned]) <= {"R", "A"}
    assert set(flags[~returned]) <= {"N"}
    # linestatus rule
    assert np.all((item["linestatus"] == "F")
                  == (item["shipdate"] <= CURRENT_DATE))


def test_value_ranges(ds):
    item = ds.tables["item"]
    assert item["quantity"].min() >= 1 and item["quantity"].max() <= 50
    assert item["discount"].min() >= 0.0
    assert item["discount"].max() <= 0.10 + 1e-9
    assert item["tax"].max() <= 0.08 + 1e-9
    part = ds.tables["part"]
    assert part["size"].min() >= 1 and part["size"].max() <= 50
    assert all(len(t.split()) == 3 for t in part["type"][:50])


def test_order_status_consistent(ds):
    orders = ds.tables["orders"]
    item = ds.tables["item"]
    order0_items = np.nonzero(item["order"] == 0)[0]
    statuses = set(item["linestatus"][order0_items])
    if statuses == {"F"}:
        assert orders["status"][0] == "F"
    elif statuses == {"O"}:
        assert orders["status"][0] == "O"
    else:
        assert orders["status"][0] == "P"


def test_totalprice_matches_items(ds):
    orders = ds.tables["orders"]
    item = ds.tables["item"]
    rows = np.nonzero(item["order"] == 1)[0]
    expected = (item["extendedprice"][rows]
                * (1 - item["discount"][rows])
                * (1 + item["tax"][rows])).sum()
    assert abs(orders["totalprice"][1] - expected) < 0.01


def test_logical_view_consistent(ds):
    # nested sets mirror the flat foreign keys
    order0 = ds.data["Order"][0]
    item_rows = np.nonzero(ds.tables["item"]["order"] == 0)[0]
    assert sorted(order0["item"]) == sorted(item_rows.tolist())
    cust = order0["cust"]
    assert 0 in ds.data["Customer"][cust]["orders"]
    # supplies match partsupp
    supplies0 = ds.data["Supplier"][0]["supplies"]
    ps = ds.tables["partsupp"]
    expected = int((ps["supplier"] == 0).sum())
    assert len(supplies0) == expected


def test_clerk_pool(ds):
    clerks = set(ds.tables["orders"]["clerk"])
    assert len(clerks) <= ds.counts["clerk"]
    assert all(c.startswith("Clerk#") for c in clerks)


def test_dates_convertible(ds):
    day = int(ds.tables["orders"]["orderdate"][0])
    assert 1992 <= days_to_date(day).year <= 1998


class _RecordingGenerator:
    """A numpy Generator that keeps every ``integers`` draw, in order."""

    def __init__(self, generator):
        self._generator = generator
        self.draws = []

    def integers(self, low, high=None, size=None, **kwargs):
        drawn = self._generator.integers(low, high, size=size, **kwargs)
        self.draws.append(((low, high), drawn))
        return drawn

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _draw_after(draws, bounds, size):
    """Index of the first draw of ``bounds`` and ``size`` rows."""
    return next(index for index, (drawn_bounds, values)
                in enumerate(draws) if drawn_bounds == bounds
                and len(values) == size)


@pytest.mark.parametrize("scale,seed", [(0.0005, 3), (0.002, 8)])
def test_vocabulary_columns_equal_the_per_row_formulas(scale, seed,
                                                       monkeypatch):
    """Part type, container and manufacturer and the order clerk index
    a table of every name; each row equals the name formatted from the
    row's own draws, as the spec's per-row formulas give it."""
    from repro.tpcd import dbgen, text
    recorders = []
    real = np.random.Generator

    def recording(bit_generator):
        recorders.append(_RecordingGenerator(real(bit_generator)))
        return recorders[-1]
    monkeypatch.setattr(dbgen.np.random, "Generator", recording)
    ds = generate(scale=scale, seed=seed)
    monkeypatch.undo()
    draws = recorders[0].draws
    n_part, n_order = ds.counts["part"], ds.counts["order"]
    part = ds.tables["part"]
    first = _draw_after(draws, (0, len(text.TYPE_SYLLABLE_1)), n_part)
    syllables = [values for _bounds, values in draws[first:first + 3]]
    assert part["type"].tolist() == [
        "%s %s %s" % (text.TYPE_SYLLABLE_1[a], text.TYPE_SYLLABLE_2[b],
                      text.TYPE_SYLLABLE_3[c])
        for a, b, c in zip(*syllables)]
    maker = _draw_after(draws, (1, 6), n_part)
    assert part["manufacturer"].tolist() == [
        "Manufacturer#%d" % m for m in draws[maker][1]]
    # the two container words are drawn right after the manufacturer
    assert [bounds for bounds, _values in draws[maker + 1:maker + 3]] \
        == [(0, len(text.CONTAINERS_1)), (0, len(text.CONTAINERS_2))]
    sizes, kinds = draws[maker + 1][1], draws[maker + 2][1]
    assert part["container"].tolist() == [
        "%s %s" % (text.CONTAINERS_1[a], text.CONTAINERS_2[b])
        for a, b in zip(sizes, kinds)]
    priority = _draw_after(draws, (0, len(text.ORDER_PRIORITIES)),
                           n_order)
    bounds, clerks = draws[priority + 1]
    assert bounds == (0, ds.counts["clerk"])
    assert ds.tables["orders"]["clerk"].tolist() == [
        text.clerk_name(c) for c in clerks]


def test_string_columns_load_as_codes_with_no_per_value_interning(
        monkeypatch):
    """dbgen hands every string column to the loader as codes into a
    vocabulary (at the narrowest integer width), and ``tables`` holds
    the decoded strings: the load factorizes no object array and
    inserts no heap value one at a time."""
    from repro.monet import column as column_module
    from repro.monet.column import Coded
    from repro.monet.heap import VarHeap
    from repro.tpcd import load_tpcd
    factorized, inserted = [], []
    real_factorize = column_module._factorize
    real_insert = VarHeap.insert
    monkeypatch.setattr(column_module, "_factorize", lambda values: (
        factorized.append(len(values)) or real_factorize(values)))
    monkeypatch.setattr(VarHeap, "insert", lambda heap, value: (
        inserted.append(value) or real_insert(heap, value)))
    dataset = generate(scale=0.002, seed=13)
    coded = 0
    for _oids, attributes in dataset.columns.values():
        for column in attributes.values():
            if isinstance(column, Coded):
                coded += 1
                assert column.codes.dtype.itemsize <= 2
            elif isinstance(column, np.ndarray):
                assert column.dtype != object
    assert coded == 23
    shipmode = dataset.tables["item"]["shipmode"]
    assert shipmode.dtype == object and set(shipmode) <= {
        "REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
    load_tpcd(dataset)
    assert factorized == [] and inserted == []
    # the counters see the per-value path when it runs
    column_module.column_from_values("string", shipmode)
    assert factorized == [len(shipmode)]
