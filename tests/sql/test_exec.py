"""End-to-end execution: the SQL path is checksum-identical to Moa.

Every SQL formulation of the reproduced TPC-D queries is executed
through parse -> bind -> lower -> resolve -> rewrite -> MIL on the
tier-1 fixture database, and its canonical sha1 must equal the
hand-written Moa driver's — the same byte-identity contract the
serving path enforces.  ``tests/sql/test_oracle.py`` pins both to
sqlite.
"""

import pytest

from repro.errors import SqlUnsupportedError
from repro.monet.multiproc import result_checksum, ship_value
from repro.sql.runtime import PreparedSql, execute_sql, prepare_sql
from repro.sql.suite import sql_queries, sql_text
from repro.tpcd.queries import QUERIES


@pytest.mark.parametrize("number", sorted(sql_queries()))
def test_sql_checksum_equals_moa_driver(number, tiny_tpcd_db):
    db = tiny_tpcd_db
    moa_rows = QUERIES[number].run(db)
    sql_rows = execute_sql(db, sql_text(number))
    assert result_checksum(ship_value(sql_rows)) == \
        result_checksum(ship_value(moa_rows))


def test_param_overrides_flow_into_the_sql_text(tiny_tpcd_db):
    overrides = {"qty": 30}
    moa_rows = QUERIES[6].run(tiny_tpcd_db, overrides)
    sql_rows = execute_sql(tiny_tpcd_db,
                           sql_text(6, overrides=overrides))
    assert sql_rows == pytest.approx(moa_rows)


def test_prepared_sql_reexecutes_identically(tiny_tpcd_db):
    prepared = prepare_sql(tiny_tpcd_db, sql_text(3))
    assert isinstance(prepared, PreparedSql)
    first = result_checksum(ship_value(prepared.run()))
    second = result_checksum(ship_value(prepared.run()))
    assert first == second


def test_prepared_sql_compiles_hole_free_phases_once(tiny_tpcd_db):
    # Q11: two hole-free phases compiled at prepare time, the holed
    # HAVING phase left for per-run resolution
    prepared = prepare_sql(tiny_tpcd_db, sql_text(11))
    seen_holes = False
    for phase, compiled in zip(prepared.lowered.phases,
                               prepared._compiled):
        if phase.kind != "moa":
            assert compiled is None     # py phases never compile
            continue
        seen_holes = seen_holes or phase.has_holes
        assert (compiled is not None) == (not phase.has_holes)
    assert seen_holes


def test_budget_rejection_happens_at_prepare_time(tiny_tpcd_db):
    from repro.analysis.verify import (PlanBudget,
                                       catalog_stats_from_kernel)
    from repro.errors import PlanBudgetExceededError
    catalog = catalog_stats_from_kernel(tiny_tpcd_db.kernel)
    with pytest.raises(PlanBudgetExceededError):
        prepare_sql(tiny_tpcd_db, sql_text(1),
                    budget=PlanBudget(max_rows=1), catalog=catalog)


def test_unsupported_sql_never_reaches_execution(tiny_tpcd_db):
    with pytest.raises(SqlUnsupportedError):
        execute_sql(tiny_tpcd_db,
                    "select l_orderkey from lineitem, orders")


def test_scalar_result_is_a_python_scalar(tiny_tpcd_db):
    value = execute_sql(tiny_tpcd_db,
                        "select sum(l_quantity) as q from lineitem")
    assert isinstance(float(value), float)
