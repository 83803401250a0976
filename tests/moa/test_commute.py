"""The Figure 6 commuting diagram, over a broad query corpus.

Every query is executed along both gray paths — the MIL translation on
the flattened BATs, and the reference evaluator on the logical objects
— and the results must be equivalent.  This is the paper's correctness
criterion for the implementation of MOA on MIL.
"""

import pytest

from repro.analysis.signatures import SIGNATURES
from repro.moa import MOADatabase, Schema
from repro.moa.types import LONG
from repro.monet import mil
from repro.sql import prepare_sql
from repro.sql.suite import EXTRAS, sql_queries

QUERIES = [
    # selections: point, range, conjunction, navigation, general preds
    "select[=(returnflag, 'R')](Item)",
    "select[>(extendedprice, 40.0)](Item)",
    "select[<=(extendedprice, 50.0)](Item)",
    "select[>=(discount, 0.1)](Item)",
    "select[=(returnflag, 'R'), >(extendedprice, 50.0)](Item)",
    "select[and(=(returnflag, 'R'), >(extendedprice, 50.0))](Item)",
    "select[or(=(returnflag, 'A'), =(returnflag, 'N'))](Item)",
    "select[not(=(returnflag, 'R'))](Item)",
    'select[=(order.clerk, "Clerk#1")](Item)',
    'select[=(nation.region.name, "ASIA")](Supplier)',
    "select[!=(returnflag, 'R')](Item)",
    "select[=(discount, 0.0)](Item)",
    'select[<(orderdate, date("1996-01-01"))](Order)',
    # selection comparing two attributes (no literal)
    "select[<(discount, extendedprice)](Item)",
    # projections
    "project[extendedprice](Item)",
    "project[<extendedprice : p, discount : d>](Item)",
    "project[*(extendedprice, -(1.0, discount))](Item)",
    "project[<year(orderdate) : y, clerk : c>](Order)",
    "project[%0](Nation)",
    "project[<%0 : self, name : n>](Nation)",
    "project[order.clerk](Item)",
    "project[nation.region.name](Supplier)",
    # nest + aggregates over groups
    "nest[returnflag](Item)",
    "nest[returnflag, discount](Item)",
    "project[<returnflag : f, count(%group) : n>]"
    "(nest[returnflag](Item))",
    "project[<returnflag : f, sum(project[extendedprice](%group)) : s,"
    " avg(project[discount](%group)) : a,"
    " min(project[extendedprice](%group)) : lo,"
    " max(project[extendedprice](%group)) : hi>]"
    "(nest[returnflag](Item))",
    "nest[order.clerk : clerk](Item)",
    "nest[order](Item)",
    # nested sets (section 4.3.2)
    "project[<%name, select[=(%available, 0)](%supplies) : z>]"
    "(Supplier)",
    "project[<name : n, count(%supplies) : c>](Supplier)",
    "project[<name : n, min(project[cost](%supplies)) : mc>]"
    "(select[>(count(%supplies), 0)](Supplier))",
    "project[<name : n, select[=(%0, \"a\")](%tags) : a_tags>](Item)"
    .replace("name : n", "returnflag : n"),
    "project[<returnflag : f, count(%tags) : nt>](Item)",
    # joins / semijoins / unnest
    "join[%0, order](Order, Item)",
    "join[clerk, order.clerk](Order, Item)",
    "project[<%1.clerk : c, %2.extendedprice : p>]"
    "(join[%0, order](Order, Item))",
    "semijoin[%0, order](Order, select[=(returnflag, 'A')](Item))",
    "antijoin[%0, order](Order, select[=(returnflag, 'A')](Item))",
    "unnest[supplies](Supplier)",
    "project[<%1.name : s, %2.cost : c>](unnest[supplies](Supplier))",
    "select[<(%2.available, 2)](unnest[supplies](Supplier))",
    "unnest[tags](Item)",
    # multi-key join
    "join[<order, returnflag>, <order, returnflag>](Item, Item)",
    # set operations
    "union(select[=(returnflag, 'R')](Item), "
    "select[=(returnflag, 'A')](Item))",
    "difference(Item, select[=(returnflag, 'R')](Item))",
    "intersection(Item, select[=(returnflag, 'R')](Item))",
    "union(project[returnflag](Item), project[returnflag](Item))",
    "difference(project[returnflag](Item), "
    "project[returnflag](select[=(returnflag, 'R')](Item)))",
    "intersection(project[returnflag](Item), "
    "project[returnflag](select[=(returnflag, 'R')](Item)))",
    # left operands naming an element more than once
    "intersection(project[order](Item), project[%0](Order))",
    "difference(project[order](Item), "
    "project[order](select[=(returnflag, 'A')](Item)))",
    "difference(project[%0](Order), "
    "project[order](select[=(returnflag, 'R')](Item)))",
    # membership
    "select[in(nation, project[%0](Nation))](Supplier)",
    "select[in(order.clerk, project[clerk]"
    "(select[<(orderdate, date(\"1996-01-01\"))](Order)))](Item)",
    "select[not(in(returnflag, project[returnflag]"
    "(select[=(discount, 0.2)](Item))))](Item)",
    # sort / top (ordered comparison)
    "sort[extendedprice desc](Item)",
    "sort[returnflag asc, extendedprice desc](Item)",
    "top[3](sort[extendedprice desc](Item))",
    "top[2](sort[acctbal desc](Supplier))",
    "top[100](sort[extendedprice asc](Item))",
    # scalar roots
    "count(Item)",
    "sum(project[extendedprice](Item))",
    "avg(project[discount](Item))",
    "min(project[extendedprice](Item))",
    "max(project[extendedprice](Item))",
    "count(select[=(returnflag, 'R')](Item))",
    # deep compositions
    "project[<y : y, sum(project[r](%group)) : loss>](nest[y]("
    "project[<year(order.orderdate) : y, "
    "*(extendedprice, -(1.0, discount)) : r>]("
    "select[=(order.clerk, \"Clerk#1\"), =(returnflag, 'R')](Item))))",
    "top[2](sort[s desc](project[<returnflag : f, "
    "sum(project[extendedprice](%group)) : s>]"
    "(nest[returnflag](Item))))",
    "project[<%1.%1.name : s, %1.%2.cost : c>](join[<%2.cost>, <%2.cost>]"
    "(unnest[supplies](Supplier), unnest[supplies](Supplier)))"
    .replace("join[<%2.cost>, <%2.cost>]", "join[%2.cost, %2.cost]"),
    "project[ifthenelse(=(returnflag, 'R'), extendedprice, 0.0)](Item)",
    "project[<returnflag : f, ifthenelse(startswith(order.clerk, "
    "\"Clerk\"), 1, 0) : is_clerk>](Item)",
]


@pytest.mark.parametrize("query", QUERIES)
def test_commutes(small_db, query):
    small_db.check_commutes(query)


def test_compilers_emit_exactly_the_mil_ops(small_db, tiny_tpcd_db,
                                            monkeypatch):
    """MIL has an operator only if something compiles to it: the SQL
    plans (EXTRAS included) plus MOA's set operations over class and
    base-type elements emit every op in ``mil._OPS``, and nothing
    else."""
    emitted = set()
    run_compiled = tiny_tpcd_db.run_compiled

    def recording(compiled):
        # holed SQL phases are compiled only once their literals are known
        emitted.update(stmt.op for stmt in compiled.program)
        return run_compiled(compiled)

    monkeypatch.setattr(tiny_tpcd_db, "run_compiled", recording)
    for text in list(sql_queries().values()) + list(EXTRAS.values()):
        prepare_sql(tiny_tpcd_db, text).run()
    setops = [q for q in QUERIES
              if q.startswith(("union(", "difference(", "intersection("))]
    assert len(setops) == 9
    for text in setops:
        _resolved, compiled = small_db.compile(text)
        emitted.update(stmt.op for stmt in compiled.program)
    assert emitted == set(mil._OPS) == set(SIGNATURES)


def test_empty_results_commute(small_db):
    small_db.check_commutes('select[=(returnflag, \'Z\')](Item)')
    small_db.check_commutes(
        'project[extendedprice](select[=(returnflag, \'Z\')](Item))')
    small_db.check_commutes(
        "nest[returnflag](select[=(returnflag, 'Z')](Item))")
    assert small_db.query(
        "count(select[=(returnflag, 'Z')](Item))").rows == 0


def test_empty_class_commutes(small_db):
    # Supplier 2 has an empty supplies set
    physical = small_db.query(
        "project[<name : n, count(%supplies) : c>](Supplier)").rows
    by_name = {r["n"]: r["c"] for r in physical}
    assert by_name["s2"] == 0


def test_integer_sums_commute_exactly():
    """A long column whose sum float64 cannot hold (2**53 + 1): the
    physical ``sum()`` and ``{sum}`` equal the reference evaluator's
    Python-int sums exactly, not within the diagram's float tolerance."""
    schema = Schema()
    schema.define("Entry", [("kind", LONG), ("amount", LONG)])
    db = MOADatabase(schema)
    db.load({"Entry": {0: {"kind": 1, "amount": 2 ** 53},
                       1: {"kind": 1, "amount": 1},
                       2: {"kind": 2, "amount": -2 ** 63},
                       3: {"kind": 2, "amount": 1}}})
    total, expected = db.check_commutes(
        "sum(project[amount](select[=(kind, 1)](Entry)))")
    assert total == expected == 2 ** 53 + 1
    rows, expected = db.check_commutes(
        "project[<kind : k, sum(project[amount](%group)) : s>]"
        "(nest[kind](Entry))")
    pairs = [sorted((row["k"], row["s"]) for row in side)
             for side in (rows, expected)]
    assert pairs[0] == pairs[1] == [(1, 2 ** 53 + 1), (2, -2 ** 63 + 1)]
