"""Every shipped query, compiled through the optimizer's passes.

* **differential** — all 15 Moa drivers and all 21 ``sql.suite`` texts
  answer checksum-identically to the pass-less compile
  (``tests/plan_oracle.py``) at two scale factors;
* **properties** — every intermediate BAT of every passed plan
  declares only properties its data has (shared head columns and
  synced joins must not leak a false ``key``/``ordered`` flag);
* **one grouping** — Q1's eight aggregates and two key extractions
  factorize their shared grouping once;
* **Figure 10** — the paper's Q13 plan is pinned statement for
  statement, with and without the passes;
* **shorter** — no plan grows, and the 15 TPC-D SQL plans lose the
  recomputed statements they carried.
"""

import pytest

from plan_oracle import CountingNumpy, answers, passes_off, sql_texts
from repro.moa import session
from repro.moa.rewriter import Rewriter
from repro.monet import MILInterpreter, verify
from repro.monet.operators import aggregate
from repro.sql import prepare_sql
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES, generate, load_tpcd


@pytest.fixture(scope="module")
def sf005_db():
    db, _report = load_tpcd(generate(scale=0.005, seed=7))
    return db


@pytest.fixture(scope="module")
def sf02_db():
    db, _report = load_tpcd(generate(scale=0.02, seed=7))
    return db


@pytest.mark.parametrize("scale", ["sf005", "sf02"])
def test_answers_equal_the_passless_compile(request, scale):
    db = request.getfixturevalue(scale + "_db")
    with passes_off():
        expected = answers(db)
    assert answers(db) == expected


class VerifyingInterpreter(MILInterpreter):
    """Checks the declared properties of every BAT a run leaves."""

    bats = []

    def run(self, program, trace=False):
        out = super().run(program, trace=trace)
        for value in self.env.values():
            if hasattr(value, "props"):
                verify(value)
                self.bats.append(value)
        return out


def test_every_intermediate_declares_only_true_properties(
        tiny_tpcd_db, monkeypatch):
    monkeypatch.setattr(session, "MILInterpreter", VerifyingInterpreter)
    monkeypatch.setattr(VerifyingInterpreter, "bats", [])
    for number in sorted(QUERIES):
        QUERIES[number].run(tiny_tpcd_db)
        prepare_sql(tiny_tpcd_db, sql_text(number)).run()
    assert len(VerifyingInterpreter.bats) > 500


def test_q1_factorizes_its_one_grouping_once(sf005_db, monkeypatch):
    prepared = prepare_sql(sf005_db, sql_text(1))
    (compiled,) = [c for c in prepared._compiled if c is not None]
    aggregates = [stmt for stmt in compiled.program if stmt.op == "aggr"]
    assert len(aggregates) == 10          # 8 aggregates + 2 group keys
    counting = CountingNumpy()
    monkeypatch.setattr(aggregate, "np", counting)
    prepared.run()
    assert counting.unique_calls == 1
    QUERIES[1].run(sf005_db)              # the Moa driver: same plan
    assert counting.unique_calls == 2


#: The paper's Figure 10 plan for Q13 (clerk ``Clerk#000000001``) as
#: the rewriter emits it; neither pass may touch it.
FIGURE_10_Q13 = [
    'q1 := select(Order_clerk, "Clerk#000000001")',
    "q2 := join(Item_order, q1)",
    "sel3 := semijoin(Item, q2)",
    'q4 := select(Item_returnflag, "R")',
    "sel5 := semijoin(sel3, q4)",
    "nav6 := semijoin(Item_order, sel5)",
    "nav7 := join(nav6, Order_orderdate)",
    "m8 := [year](nav7)",
    "col9 := semijoin(Item_extendedprice, sel5)",
    "col10 := semijoin(Item_discount, sel5)",
    "m11 := [-](1.0, col10)",
    "m12 := [*](col9, m11)",
    "col13 := semijoin(m8, sel5)",
    "ids14 := ident(sel5)",
    "alg15 := join(ids14, col13)",
    "grp16 := group(alg15)",
    "members17 := mirror(grp16)",
    "keyv18 := join(members17, col13)",
    "key19 := {min}(keyv18)  # key extraction per group",
    "col20 := semijoin(key19, key19)",
    "sidx21 := semijoin(members17, key19)",
    "elems22 := mirror(sidx21)",
    "col23 := semijoin(m12, elems22)",
    "aggv24 := join(sidx21, col23)",
    "agg25 := {sum}(aggv24)",
    "agg26 := fillzero(agg25, key19)",
    "col27 := semijoin(col20, key19)",
    "ids28 := ident(key19)",
    "alg29 := join(ids28, col27)",
    "sorted30 := sortby(key19, alg29, false)",
    "result31 := ident(sorted30)  # result set index",
]


def test_figure_10_plan_is_emitted_verbatim(tiny_tpcd_db):
    text = QUERIES[13].texts()[0]
    _resolved, passed = tiny_tpcd_db.compile(text)
    with passes_off():
        _resolved, plain = tiny_tpcd_db.compile(text)
    assert [stmt.render() for stmt in passed.program] == FIGURE_10_Q13
    assert [stmt.render() for stmt in plain.program] == FIGURE_10_Q13


def _statements(db, text):
    prepared = prepare_sql(db, text)
    return sum(len(c.program) for c in prepared._compiled
               if c is not None)


def test_no_plan_grows_and_the_tpcd_plans_shrink(tiny_tpcd_db):
    passed, emitted = {}, {}
    for name, text in sql_texts().items():
        passed[name] = _statements(tiny_tpcd_db, text)
        with passes_off():
            emitted[name] = _statements(tiny_tpcd_db, text)
        assert passed[name] <= emitted[name], name
    tpcd = [name for name in passed if name.startswith("Q")]
    assert sum(emitted[name] for name in tpcd) == 720
    assert sum(passed[name] for name in tpcd) <= 635
    assert (emitted["Q01"], passed["Q01"]) == (76, 51)


def test_the_rewriter_alone_emits_the_passless_plan(tiny_tpcd_db):
    # the oracle's premise: switching the passes off is exactly the
    # rewriter's own output
    for number in sorted(QUERIES):
        for text in QUERIES[number].texts():
            resolved = tiny_tpcd_db.prepare(text)
            with passes_off():
                _resolved, plain = tiny_tpcd_db.compile(text)
            emitted = Rewriter(resolved, tiny_tpcd_db.flat).rewrite()
            assert [s.render() for s in plain.program] \
                == [s.render() for s in emitted.program]
