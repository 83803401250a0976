"""Column-wise materialization against the per-element reference.

``repro.moa.structures.Materializer`` builds a top-level set of tuples
as one :class:`~repro.moa.values.RowBatch` with vectorized gathers;
``materializer_reference.py`` is the dict-and-``Row``-per-element walk
it replaced, kept verbatim.  Every query below runs through its normal
public entry point with a materializer that computes the answer both
ways on the same MIL environment and demands

* ``list(batch)`` equal to the reference rows, in order, and
* ``result_checksum(batch) == result_checksum(list(batch))`` — the
  digest does not depend on which way the rows are held,

over all 15 hand-written Moa drivers, all 21 ``sql.suite`` texts, the
benchmark's three rows-wide texts, and nested-set shapes on the small
hand-built schema (where fields ride as object columns).
"""

import pytest

from materializer_reference import Materializer as ReferenceMaterializer
from repro.moa import session
from repro.moa.structures import Materializer
from repro.moa.values import Bag, Row, RowBatch
from repro.monet.multiproc import result_checksum
from repro.sql.runtime import execute_sql
from repro.sql.suite import EXTRAS, sql_queries
from repro.tpcd import QUERIES

ROWS_WIDE_SQL = ("select l_orderkey, l_partkey, l_quantity, "
                 "l_extendedprice from lineitem where l_quantity < %d")


class BothWays(Materializer):
    """Materializes column-wise and per element; returns the former
    after checking it against the latter."""

    checked = []            # (rows, was_batch) per top-level call

    def top_level(self, rep):
        value = super().top_level(rep)
        expected = ReferenceMaterializer(self.resolver).top_level(rep)
        assert list(value) == expected
        if isinstance(value, RowBatch):
            assert len(value) == len(expected)
            assert all(isinstance(row, Row) for row in value)
            if not any(isinstance(item, Bag) for row in expected
                       for item in row.values):      # Bags do not ship
                assert result_checksum(value) \
                    == result_checksum(expected)
        self.checked.append((len(expected), isinstance(value, RowBatch)))
        return value


@pytest.fixture
def both_ways(monkeypatch):
    monkeypatch.setattr(session, "Materializer", BothWays)
    monkeypatch.setattr(BothWays, "checked", [])
    return BothWays.checked


@pytest.mark.parametrize("number", sorted(QUERIES))
def test_moa_drivers(tiny_tpcd_db, both_ways, number):
    value = QUERIES[number].run(tiny_tpcd_db)
    assert both_ways or not hasattr(value, "__len__")  # scalars: Q6, Q14
    if both_ways and not isinstance(value, list):      # Q15 may be []
        assert isinstance(value, RowBatch)


@pytest.mark.parametrize("name, text", sorted(
    [("Q%02d" % number, text)
     for number, text in sql_queries().items()] + list(EXTRAS.items())))
def test_sql_suite_texts(tiny_tpcd_db, both_ways, name, text):
    value = execute_sql(tiny_tpcd_db, text)
    assert both_ways or not hasattr(value, "__len__")


@pytest.mark.parametrize("k", (2, 3, 5))
def test_rows_wide_texts(tiny_tpcd_db, both_ways, k):
    value = execute_sql(tiny_tpcd_db, ROWS_WIDE_SQL % k)
    assert both_ways == [(len(value), True)] and len(value) > 0
    # two reference columns, an int32 and a float64 one: all flat
    assert [column.dtype.kind for column in value.columns] \
        == ["i", "i", "i", "f"]
    assert value.ref_classes == ("Order", "Part", None, None)


@pytest.mark.parametrize("text", [
    # a nested set of tuples and a nested set of atoms per row
    "project[<name : n, supplies : s>](Supplier)",
    "project[<returnflag : f, tags : t>](Item)",
    # a set of references / of atoms: no tuple, so a plain list
    "select[>(acctbal, 0.0)](Supplier)",
    "project[name](Nation)",
    # ordered, and through a join's identifier remapping
    "sort[a desc](project[<name : n, acctbal : a>](Supplier))",
    "project[<%1.name : s, %2.name : n>]("
    "join[nation, %0](Supplier, Nation))",
])
def test_nested_and_non_tuple_shapes(small_db, both_ways, text):
    small_db.query(text)
    assert len(both_ways) == 1
