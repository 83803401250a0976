"""Differential oracle: the SQL path and the Moa drivers vs sqlite3.

The oracle loads the *same generated rowstore* into an in-memory
sqlite3 database and re-renders each parsed query to sqlite's
dialect; :func:`repro.sql.oracle.check_result` then asserts multiset
equality of canonicalised rows, for the SQL path's answer and for the
hand-written Moa driver's.  Independence is the point — sqlite
shares no code with the Moa/MIL pipeline, so agreement on every
supported query (and on the EXTRAS constructs sqlite can express) is
strong evidence the lowering is semantics-preserving, not just
self-consistent.
"""

import pytest

from repro.errors import TypeCheckError
from repro.sql import execute_sql
from repro.sql.oracle import (canonical_rows, check_query, check_result,
                              load_oracle, rows_equivalent)
from repro.sql.suite import EXTRAS, GAPS, sql_queries
from repro.tpcd import QUERIES


@pytest.fixture(scope="module")
def oracle(tiny_tpcd):
    conn = load_oracle(tiny_tpcd)
    yield conn
    conn.close()


@pytest.mark.parametrize("number", sorted(sql_queries()))
def test_tpcd_queries_match_sqlite(number, tiny_tpcd_db, oracle):
    text = sql_queries()[number]
    check_query(tiny_tpcd_db, oracle, text)
    check_result(oracle, text, QUERIES[number].run(tiny_tpcd_db))


@pytest.mark.parametrize("name", sorted(EXTRAS))
def test_extra_constructs_match_sqlite(name, tiny_tpcd_db, oracle):
    check_query(tiny_tpcd_db, oracle, EXTRAS[name])


#: Lowering paths no TPC-D text or EXTRAS entry reaches: ``select *``
#: (star expansion), HAVING over an aggregate the select list does not
#: project, and an ordinal ORDER BY.
UNCOVERED_SHAPES = {
    "star": "select * from nation, region "
            "where n_regionkey = r_regionkey",
    "having_unprojected": "select l_returnflag from lineitem "
                          "group by l_returnflag "
                          "having sum(l_quantity) > 100",
    "order_by_ordinal": "select l_returnflag, count(*) as n "
                        "from lineitem group by l_returnflag order by 1",
}


@pytest.mark.parametrize("name", sorted(UNCOVERED_SHAPES))
def test_uncovered_lowering_paths_match_sqlite(name, tiny_tpcd_db,
                                               oracle):
    check_query(tiny_tpcd_db, oracle, UNCOVERED_SHAPES[name])


def test_ordinal_order_by_a_key_column_is_refused_typed(tiny_tpcd_db):
    """A key column lowers to a reference, which Moa does not order:
    sorting on it is a typed refusal, not a wrong order."""
    with pytest.raises(TypeCheckError, match="not comparable"):
        execute_sql(tiny_tpcd_db,
                    "select n_name, n_nationkey from nation "
                    "order by 2 desc")


def test_gaps_name_only_unreproduced_queries():
    # the gap list covers exactly the TPC-H queries beyond the 15
    # reproduced ones, each with its blocking construct named
    assert set(GAPS) == {16, 17, 18, 19, 20, 21, 22}
    assert not set(GAPS) & set(sql_queries())
    for reason in GAPS.values():
        assert isinstance(reason, str) and reason


def test_oracle_detects_an_injected_divergence(tiny_tpcd_db, oracle):
    # the harness itself must be falsifiable: a predicate flipped
    # between the two sides has to fail loudly
    with pytest.raises(AssertionError):
        check_query(
            tiny_tpcd_db, oracle,
            "select count(*) as n from lineitem "
            "where l_quantity > 30.0",
            sqlite_text="select count(*) as n from lineitem "
                        "where l_quantity > 31.0")


def test_row_canonicalisation_tolerates_float_noise():
    a = canonical_rows([("x", 1.0000000001)])
    b = canonical_rows([("x", 1.0)])
    assert rows_equivalent(a, b)
    assert not rows_equivalent(canonical_rows([("x", 1.0)]),
                               canonical_rows([("x", 2.0)]))
    # equal within the tolerance but on either side of a 2-decimal
    # rounding boundary (x.xx5, where revenue sums routinely land):
    # the rows must still pair up with their own counterparts
    assert rows_equivalent([(1.0049999999, "a"), (1.0, "b")],
                           [(1.0050000001, "a"), (1.0, "b")])
    assert rows_equivalent([(0.1249999999,), (0.12,)],
                           [(0.12,), (0.1250000001,)])
