"""Deterministic, scalable TPC-D data generator (DBGEN equivalent).

The paper loads the official 1 GB DBGEN output; offline we synthesise
an equivalent database at a configurable scale factor.  Cardinalities
follow the spec (per SF=1: 10 k suppliers, 200 k parts, 150 k
customers, 1.5 M orders, ~6 M lineitems, 25 nations, 5 regions) and the
value distributions preserve the properties the queries select on:

* order dates uniform over 1992-01-01 .. 1998-08-02,
* ship/commit/receipt dates offset from the order date like the spec,
* returnflag R/A for items received before the current date
  (1995-06-17), N after — so Q1/Q10/Q13 selectivities match,
* part types composed of the spec's three syllable lists ("PROMO
  BURNISHED BRASS"), sizes 1..50, names containing colour words,
* each part supplied by (up to) 4 suppliers with independent cost and
  availability, reflected in the *nested* Supplier.supplies set,
* clerks drawn from a pool of 1000*SF names, so a one-clerk selection
  (Q13) has selectivity ~1/(1000*SF).

Everything is driven by one ``numpy`` PCG64 generator seeded from the
``seed`` argument: equal (scale, seed) pairs produce identical
databases on every platform.

The data is generated as columns.  A string column is never built
string by string for the load: a column drawn from a small vocabulary
(flags, modes, priorities, segments, clerks, part types, containers,
manufacturers, brands) is drawn as codes into that vocabulary, at the
narrowest integer width, and a column of (nearly) unique values (names,
addresses, phones) is ``arange`` codes over its strings.  Either is a
:class:`~repro.monet.column.Coded`.  The columns are served in three
shapes, columns first:

* ``dataset.tables`` — arrays per *relational* table (region, nation,
  supplier, customer, part, partsupp, orders, item), a string column
  as an object array made by one gather ``vocabulary[codes]`` on first
  read; used by the row-store baseline of :mod:`repro.tpcd.rowstore`,
  the sqlite oracle of :mod:`repro.sql.oracle` and the query drivers,
* ``dataset.columns`` — the same columns per Figure 1 *class*, string
  columns still coded and nested sets as ``(owners, elements)``
  arrays: the flattening input (see :mod:`repro.moa.mapping`), which
  the loader turns into BATs a column at a time, each vocabulary
  becoming a var heap with no per-value step,
* ``dataset.data`` — the logical object store ``{class: {oid:
  {attr: value}}}`` the reference evaluator reads, derived from
  ``columns`` on first read (nothing on the load or query path reads
  it).
"""

import datetime
import functools
import itertools

import numpy as np

from ..errors import DBGenError
from ..moa.mapping import columns_to_objects
from ..monet.atoms import date_to_days
from ..monet.column import Coded
from . import text
from .schema import tpcd_schema

#: TPC-D "current date" used for returnflag / linestatus rules
CURRENT_DATE = date_to_days(datetime.date(1995, 6, 17))
START_DATE = date_to_days(datetime.date(1992, 1, 1))
END_DATE = date_to_days(datetime.date(1998, 8, 2))


class TPCDDataset:
    """The generated database: tables, class columns, logical store.

    ``coded`` holds the generator's tables with every string column
    as :class:`~repro.monet.column.Coded` codes plus vocabulary; the
    class columns keep that form and ``tables`` decodes it on first
    read (a load never reads it)."""

    def __init__(self, scale, seed, coded, counts):
        self.scale = scale
        self.seed = seed
        self.counts = counts
        self.columns = _class_columns(coded)
        self._coded = coded

    @functools.cached_property
    def tables(self):
        """The relational tables, each string column an object array."""
        return {name: {column: values.decode()
                       if isinstance(values, Coded) else values
                       for column, values in table.items()}
                for name, table in self._coded.items()}

    @functools.cached_property
    def data(self):
        """The logical object store, built from ``columns`` once."""
        return columns_to_objects(tpcd_schema(), self.columns)

    def __repr__(self):
        return ("TPCDDataset(scale=%g, seed=%d, %s)"
                % (self.scale, self.seed,
                   ", ".join("%s=%d" % kv for kv in
                             sorted(self.counts.items()))))


def _count(base, scale, minimum):
    return max(minimum, int(round(base * scale)))


def generate(scale=0.001, seed=42):
    """Generate a TPC-D database at the given scale factor."""
    if scale <= 0:
        raise DBGenError("scale factor must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = {
        "region": len(text.REGIONS),
        "nation": len(text.NATIONS),
        "supplier": _count(10_000, scale, 3),
        "part": _count(200_000, scale, 8),
        "customer": _count(150_000, scale, 5),
        "order": _count(1_500_000, scale, 20),
        # keep a reasonably sized clerk pool even at tiny scale, so a
        # one-clerk selection (Q13) stays low-selectivity as in the
        # paper (s ~ 0.001 at SF 1)
        "clerk": _count(1_000, scale, 25),
    }
    tables = {}
    tables["region"] = {"name": _distinct(text.REGIONS)}
    tables["nation"] = {
        "name": _distinct([n for n, _r in text.NATIONS]),
        "region": np.array([r for _n, r in text.NATIONS], dtype=np.int64),
    }
    _gen_supplier(rng, counts, tables)
    _gen_part(rng, counts, tables)
    _gen_partsupp(rng, counts, tables)
    _gen_customer(rng, counts, tables)
    _gen_orders_items(rng, counts, tables)
    counts["item"] = len(tables["item"]["order"])
    counts["partsupp"] = len(tables["partsupp"]["part"])
    return TPCDDataset(scale, seed, tables, counts)


def _coded(codes, vocabulary):
    """A string column drawing ``vocabulary[codes]``, with the codes
    kept at the narrowest signed width indexing the vocabulary."""
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if len(vocabulary) <= np.iinfo(dtype).max + 1:
            break
    return Coded(np.asarray(codes).astype(dtype, copy=False), vocabulary)


def _distinct(strings):
    """A string column formatted row by row, whose values (names,
    addresses, phones) are (nearly) all distinct: ``arange`` codes over
    the strings.  Phones repeat above SF 0.06; the heap takes a
    repeated value once."""
    return _coded(np.arange(len(strings)), strings)


def _vocabulary(pattern, *words):
    """Every ``pattern % combination`` of ``words``, last list
    fastest: a column drawing one combination per row codes it by
    its index here instead of formatting each row."""
    return [pattern % combination
            for combination in itertools.product(*words)]


def _gen_supplier(rng, counts, tables):
    n = counts["supplier"]
    nation = rng.integers(0, counts["nation"], size=n)
    tables["supplier"] = {
        "name": _distinct([text.supplier_name(i) for i in range(n)]),
        "address": _distinct(["addr sup %d" % i for i in range(n)]),
        "phone": _distinct([text.phone(int(nation[i]), i)
                            for i in range(n)]),
        "acctbal": np.round(rng.uniform(-999.99, 9999.99, size=n), 2),
        "nation": nation.astype(np.int64),
    }


def _gen_part(rng, counts, tables):
    n = counts["part"]
    syllable_1 = rng.integers(0, len(text.TYPE_SYLLABLE_1), size=n)
    syllable_2 = rng.integers(0, len(text.TYPE_SYLLABLE_2), size=n)
    syllable_3 = rng.integers(0, len(text.TYPE_SYLLABLE_3), size=n)
    types = _coded(
        (syllable_1 * len(text.TYPE_SYLLABLE_2) + syllable_2)
        * len(text.TYPE_SYLLABLE_3) + syllable_3,
        _vocabulary("%s %s %s", text.TYPE_SYLLABLE_1,
                    text.TYPE_SYLLABLE_2, text.TYPE_SYLLABLE_3))
    colour_idx = rng.integers(0, len(text.PART_COLOURS), size=(n, 2))
    names = _distinct(["%s %s part %d"
                       % (text.PART_COLOURS[int(a)],
                          text.PART_COLOURS[int(b)], i)
                       for i, (a, b) in enumerate(colour_idx)])
    manufacturer = rng.integers(1, 6, size=n)
    container_1 = rng.integers(0, len(text.CONTAINERS_1), size=n)
    container_2 = rng.integers(0, len(text.CONTAINERS_2), size=n)
    container = _coded(container_1 * len(text.CONTAINERS_2) + container_2,
                       _vocabulary("%s %s", text.CONTAINERS_1,
                                   text.CONTAINERS_2))
    # spec retail price formula: 90000 + (i%20001)/10 + 100*(i%1000),
    # all divided by 100
    indices = np.arange(n)
    retail = (90000 + (indices % 20001) / 10.0 + 100 * (indices % 1000)) \
        / 100.0
    tables["part"] = {
        "name": names,
        "manufacturer": _coded(manufacturer - 1, _vocabulary(
            "Manufacturer#%d", range(1, 6))),
        # the spec's brand: Brand#MN, M the manufacturer, N = 1 + i % 5
        "brand": _coded((manufacturer - 1) * 5 + indices % 5, _vocabulary(
            "Brand#%d%d", range(1, 6), range(1, 6))),
        "type": types,
        "size": rng.integers(1, 51, size=n).astype(np.int64),
        "container": container,
        "retailprice": np.round(retail, 2),
    }


def _gen_partsupp(rng, counts, tables):
    n_part = counts["part"]
    n_supp = counts["supplier"]
    per_part = min(4, n_supp)
    parts = np.repeat(np.arange(n_part), per_part)
    # spec formula: supplier of part p, copy k = (p + k*(S/4 + floor))
    # % S — spreads suppliers; a plain stride keeps the same property
    offsets = np.tile(np.arange(per_part), n_part)
    supps = (parts + offsets * max(1, n_supp // per_part)
             + offsets) % n_supp
    n = len(parts)
    tables["partsupp"] = {
        "part": parts.astype(np.int64),
        "supplier": supps.astype(np.int64),
        "cost": np.round(rng.uniform(1.0, 1000.0, size=n), 2),
        "available": rng.integers(1, 10_000, size=n).astype(np.int64),
    }


def _gen_customer(rng, counts, tables):
    n = counts["customer"]
    nation = rng.integers(0, counts["nation"], size=n)
    tables["customer"] = {
        "name": _distinct([text.customer_name(i) for i in range(n)]),
        "address": _distinct(["addr cust %d" % i for i in range(n)]),
        "phone": _distinct([text.phone(int(nation[i]), i + 7)
                            for i in range(n)]),
        "acctbal": np.round(rng.uniform(-999.99, 9999.99, size=n), 2),
        "nation": nation.astype(np.int64),
        "mktsegment": _coded(
            rng.integers(0, len(text.MARKET_SEGMENTS), size=n),
            text.MARKET_SEGMENTS),
    }


def _gen_orders_items(rng, counts, tables):
    n_order = counts["order"]
    n_customer = counts["customer"]
    # the spec populates orders for two thirds of the customers
    eligible = max(1, (n_customer * 2) // 3)
    cust = rng.integers(0, eligible, size=n_order).astype(np.int64)
    orderdate = rng.integers(START_DATE, END_DATE + 1,
                             size=n_order).astype(np.int32)
    priorities = _coded(
        rng.integers(0, len(text.ORDER_PRIORITIES), size=n_order),
        text.ORDER_PRIORITIES)
    clerks = _coded(rng.integers(0, counts["clerk"], size=n_order),
                    [text.clerk_name(c) for c in range(counts["clerk"])])

    items_per_order = rng.integers(1, 8, size=n_order)
    n_item = int(items_per_order.sum())
    item_order = np.repeat(np.arange(n_order), items_per_order)
    part = rng.integers(0, counts["part"], size=n_item).astype(np.int64)
    # the supplier comes from the part's supplier list (partsupp)
    per_part = min(4, counts["supplier"])
    copy = rng.integers(0, per_part, size=n_item)
    ps_part = tables["partsupp"]["part"]
    ps_supp = tables["partsupp"]["supplier"]
    supplier = ps_supp[part * per_part + copy]

    quantity = rng.integers(1, 51, size=n_item).astype(np.int64)
    retail = tables["part"]["retailprice"][part]
    extendedprice = np.round(quantity * retail, 2)
    discount = np.round(rng.integers(0, 11, size=n_item) / 100.0, 2)
    tax = np.round(rng.integers(0, 9, size=n_item) / 100.0, 2)

    odate_per_item = orderdate[item_order].astype(np.int64)
    shipdate = (odate_per_item
                + rng.integers(1, 122, size=n_item)).astype(np.int32)
    commitdate = (odate_per_item
                  + rng.integers(30, 91, size=n_item)).astype(np.int32)
    receiptdate = (shipdate
                   + rng.integers(1, 31, size=n_item)).astype(np.int32)

    returned = receiptdate <= CURRENT_DATE
    coin = rng.random(size=n_item) < 0.5
    returnflag = _coded(np.where(returned, np.where(coin, 0, 1), 2),
                        ["R", "A", "N"])
    shipped = shipdate <= CURRENT_DATE
    linestatus = _coded(np.where(shipped, 0, 1), ["F", "O"])

    shipmode = _coded(rng.integers(0, len(text.SHIP_MODES), size=n_item),
                      text.SHIP_MODES)
    shipinstruct = _coded(
        rng.integers(0, len(text.SHIP_INSTRUCTIONS), size=n_item),
        text.SHIP_INSTRUCTIONS)

    # order status: F when all its items shipped, O when none, else P
    shipped_per_order = np.bincount(item_order,
                                    weights=shipped.astype(np.int64),
                                    minlength=n_order)
    status = _coded(np.where(shipped_per_order == items_per_order, 0,
                             np.where(shipped_per_order == 0, 1, 2)),
                    ["F", "O", "P"])
    line_total = extendedprice * (1.0 - discount) * (1.0 + tax)
    totalprice = np.round(np.bincount(item_order, weights=line_total,
                                      minlength=n_order), 2)

    tables["orders"] = {
        "cust": cust,
        "status": status,
        "totalprice": totalprice,
        "orderdate": orderdate,
        "orderpriority": priorities,
        "clerk": clerks,
        "shippriority": _coded(np.zeros(n_order, dtype=np.int8), ["0"]),
    }
    tables["item"] = {
        "part": part,
        "supplier": supplier.astype(np.int64),
        "order": item_order.astype(np.int64),
        "quantity": quantity,
        "returnflag": returnflag,
        "linestatus": linestatus,
        "extendedprice": extendedprice,
        "discount": discount,
        "tax": tax,
        "shipdate": shipdate,
        "commitdate": commitdate,
        "receiptdate": receiptdate,
        "shipmode": shipmode,
        "shipinstruct": shipinstruct,
    }


def _class_columns(tables):
    """The Figure 1 classes as flattening columns, string columns
    coded as the generator drew them.

    Every extent is ``0..n-1`` over its table's rows.  A nested set
    is the child table's foreign key, stably sorted: the owners come
    out in oid order and each owner's elements in row order.
    """
    def nested(foreign_key):
        rows = np.argsort(foreign_key, kind="stable")
        return foreign_key[rows], rows

    ps = tables["partsupp"]
    supplies_owner, supplies_rows = nested(ps["supplier"])
    orders_owner, orders_rows = nested(tables["orders"]["cust"])
    items_owner, items_rows = nested(tables["item"]["order"])
    n_region = len(tables["region"]["name"])
    part = dict(tables["part"])
    part["retailPrice"] = part.pop("retailprice")
    attributes = {
        "Region": {"name": tables["region"]["name"],
                   "comment": _distinct(["region %d" % oid
                                         for oid in range(n_region)])},
        "Nation": tables["nation"],
        "Part": part,
        "Supplier": dict(tables["supplier"], supplies=(supplies_owner, {
            field: ps[field][supplies_rows]
            for field in ("part", "cost", "available")})),
        "Customer": dict(tables["customer"],
                         orders=(orders_owner, orders_rows)),
        "Order": dict(tables["orders"], item=(items_owner, items_rows)),
        "Item": tables["item"],
    }
    return {class_name: (np.arange(len(next(iter(columns.values()))),
                                   dtype=np.int64), columns)
            for class_name, columns in attributes.items()}
