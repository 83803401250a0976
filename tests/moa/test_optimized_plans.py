"""Every shipped query, compiled through the optimizer's passes.

* **differential** — all 15 Moa drivers and all 21 ``sql.suite`` texts
  answer checksum-identically to the pass-less compile
  (``tests/plan_oracle.py``) at two scale factors, and to the 144
  digests checked in as ``tests/plan_oracle_digests.txt``;
* **properties** — every intermediate BAT of every passed plan
  declares only properties its data has (shared head columns and
  synced joins must not leak a false ``key``/``ordered`` flag);
* **one grouping** — Q1's eight aggregates and two key extractions
  derive their shared grouping once, and neither its ``group`` calls
  nor its aggregates sort (counted); past the grouping Q1 pays per
  group, not per row: its key extractions take the group-constant
  ``{min}``, its extent semijoin answers by position, its member-index
  semijoin through the cached grouping, and its ``group`` calls make
  no first-position scatter (counted per statement);
* **stored layouts** — no ``hashjoin`` runs at all (every join inner
  is synced, void, ordered, a datavector attribute or a compact integer
  key) and no multiplex decodes a whole string column (counted, not
  timed);
* **Figure 10** — the paper's Q13 plan is pinned statement for
  statement, with and without the passes;
* **shorter** — no plan grows, and the 15 TPC-D SQL plans lose the
  recomputed statements they carried.
"""

import importlib
from collections import Counter, defaultdict

import numpy as np
import pytest

from plan_oracle import (DIGESTS_FILE, CountingCalls, CountingSorts,
                         answers, digest_lines, passes_off, sql_texts)
from repro.moa import session
from repro.moa.rewriter import Rewriter
from repro.monet import (MILInterpreter, bat_from_pairs, compute_props,
                         dispatch_disabled, mil, vectorized, verify)
from repro.monet.accelerators.datavector import has_datavector
from repro.monet.column import VarColumn
from repro.monet.heap import VarHeap
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


def test_answers_equal_the_checked_in_digests():
    # the 144 answers of tests/plan_oracle.py, recomputed: a change
    # that moves one fails here, not only in a diff of two checkouts
    assert list(digest_lines()) == DIGESTS_FILE.read_text().splitlines()


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
    counting = CountingCalls(aggregate.grouping)
    monkeypatch.setattr(aggregate, "grouping", counting)
    prepared.run()
    assert counting.calls == 1
    QUERIES[1].run(sf005_db)              # the Moa driver: same plan
    assert counting.calls == 2


def test_q1_groups_and_aggregates_without_sorting(sf005_db, monkeypatch):
    """A count, not a timing: one run of prepared Q1 makes no
    ``np.unique``, ``np.argsort``, ``np.sort`` or ``np.lexsort`` call
    inside ``group`` or an aggregate — every key it groups on is a
    compact integer (heap indices, group oids) and every min/max runs
    over integer ranks.  The counter is proven live on a wide-span
    group and a float min, where the sorts come back."""
    counting = CountingSorts()
    # group.py calls no numpy itself: its kernels live in vectorized
    for module in (vectorized, aggregate):
        monkeypatch.setattr(module, "np", counting)
    for name in ("group1", "group2", "set_aggregate"):
        monkeypatch.setattr(mil, name, counting.inside(getattr(mil, name)))
    prepare_sql(sf005_db, sql_text(1)).run()
    assert counting.calls == Counter()
    mil.group1(bat_from_pairs("oid", "long", [(0, 2 ** 40), (1, 0)]))
    mil.set_aggregate("min", bat_from_pairs("oid", "double",
                                            [(0, 1.5), (0, 0.5)]))
    assert counting.calls["unique"] > 0 and counting.calls["argsort"] > 0


class PathLog:
    """Which implementation each MIL statement ran, by its target.

    :meth:`statement` wraps an operator the interpreter calls (it
    notes the statement's target while the operator runs); :meth:`path`
    wraps one implementation inside it and logs its label under that
    target."""

    def __init__(self):
        self.target = None
        self.paths = defaultdict(list)

    def statement(self, operator):
        def running(*args, name=None, **kwargs):
            self.target = name
            try:
                return operator(*args, name=name, **kwargs)
            finally:
                self.target = None
        return running

    def path(self, label, func, when=lambda result: True):
        def taken(*args, **kwargs):
            result = func(*args, **kwargs)
            if when(result):
                self.paths[self.target].append(label)
            return result
        return taken


class CountingAt:
    """Stands in for ``np`` in :mod:`repro.monet.vectorized`, logging
    every ``np.minimum.at`` scatter to a :class:`PathLog`."""

    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        return self if name == "minimum" else getattr(np, name)

    def __call__(self, *args, **kwargs):          # np.minimum(...)
        return np.minimum(*args, **kwargs)

    def at(self, *args, **kwargs):                # np.minimum.at(...)
        self.log.paths[self.log.target].append("minimum.at")
        return np.minimum.at(*args, **kwargs)


def test_q1_pays_its_rows_once_in_the_grouping(sf005_db, monkeypatch):
    """A count, not a timing: in one run of prepared Q1 both key
    extractions take the group-constant ``{min}``, ``sel2 :=
    semijoin(Item, q1)`` answers by position on the dense extent,
    ``sidx18 := semijoin(members11, key13)`` through the member
    index's cached grouping, and neither ``group`` makes an
    ``np.minimum.at`` scatter.  Each counter is then proven live on an
    operand where its fast path must not fire."""
    semijoin_module = importlib.import_module(
        "repro.monet.operators.semijoin")
    log = PathLog()
    for name in ("semijoin", "set_aggregate", "group1", "group2"):
        monkeypatch.setattr(mil, name, log.statement(getattr(mil, name)))
    for label, helper in (("positional", "_positional_members"),
                          ("grouped", "_grouped_members"),
                          ("masked", "_member_mask")):
        monkeypatch.setattr(semijoin_module, helper, log.path(
            label, getattr(semijoin_module, helper)))
    monkeypatch.setattr(aggregate, "_constant_extreme", log.path(
        "constant", aggregate._constant_extreme,
        when=lambda positions: positions is not None))
    monkeypatch.setattr(aggregate, "grouped_extreme", log.path(
        "scatter", aggregate.grouped_extreme))
    monkeypatch.setattr(vectorized, "np", CountingAt(log))
    prepare_sql(sf005_db, sql_text(1)).run()
    paths = log.paths
    # the first key extraction derives the member index's grouping:
    # the one first-position scatter of the plan
    assert paths["key13"] == ["minimum.at", "constant"]
    assert paths["key15"] == ["constant"]
    assert paths["sel2"] == ["positional"]
    assert paths["sidx18"] == ["grouped"]
    assert paths["grp9"] == paths["grp10"] == []

    # live: a tail varying inside its groups, a head neither dense nor
    # grouped, then grouped by an aggregate; the aggregate's grouping
    # is where first positions are scattered
    varying = bat_from_pairs("oid", "long", [(4, 2), (9, 1), (4, 1)])
    probe = bat_from_pairs("oid", "long", [(4, 0)])
    mil.semijoin(varying, probe, name="live_masked")
    mil.set_aggregate("min", varying, name="live_min")
    mil.semijoin(varying, probe, name="live_grouped")
    dense = bat_from_pairs("oid", "long", [(4, 0), (5, 1)])
    dense.props = compute_props(dense)
    mil.semijoin(dense, probe, name="live_positional")
    assert paths["live_min"].count("scatter") == 1
    assert "minimum.at" in paths["live_min"]
    assert "constant" not in paths["live_min"]
    assert paths["live_masked"] == ["masked"]
    assert paths["live_grouped"] == ["grouped"]
    assert paths["live_positional"] == ["positional"]


def test_no_hashjoin_on_a_datavector_and_no_string_decode_in_multiplex(
        sf005_db, monkeypatch):
    """A count, not a timing: over the 15 SQL plans and the 15 Moa
    drivers no ``hashjoin`` runs — so none re-sorts the head of an
    attribute BAT that carries a datavector — and no multiplex decodes
    a whole string column.  The counters are proven live with dispatch
    switched off, where all three come back."""
    counts = Counter()
    # the package re-exports the function ``join`` under the module's name
    join_module = importlib.import_module("repro.monet.operators.join")
    hashjoin = join_module._hashjoin

    def counting_hashjoin(ab, cd, name):
        counts["hashjoin"] += 1
        counts["hashjoin on a datavector"] += has_datavector(cd)
        return hashjoin(ab, cd, name)

    reading = []          # index arrays of the running multiplex's strings
    multiplex = mil.multiplex

    def counting_multiplex(fname, *operands, name=None):
        reading.append({id(op.tail.indices) for op in operands
                        if isinstance(getattr(op, "tail", None), VarColumn)})
        counts["multiplex over strings"] += bool(reading[-1])
        try:
            return multiplex(fname, *operands, name=name)
        finally:
            reading.pop()

    decode = VarHeap.decode

    def counting_decode(heap, indices):
        counts["full-column decode in multiplex"] += bool(
            reading and id(indices) in reading[-1])
        return decode(heap, indices)

    monkeypatch.setattr(join_module, "_hashjoin", counting_hashjoin)
    monkeypatch.setattr(mil, "multiplex", counting_multiplex)
    monkeypatch.setattr(VarHeap, "decode", counting_decode)
    for number in sorted(QUERIES):
        prepare_sql(sf005_db, sql_text(number)).run()
        QUERIES[number].run(sf005_db)
    assert counts["hashjoin on a datavector"] == 0
    assert counts["full-column decode in multiplex"] == 0
    assert counts["hashjoin"] == 0 and counts["multiplex over strings"] > 0
    counts.clear()
    with dispatch_disabled():
        prepare_sql(sf005_db, sql_text(9)).run()
    assert counts["hashjoin"] > counts["hashjoin on a datavector"] > 0
    assert counts["full-column decode in multiplex"] > 0


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
    # 720 emitted / 628 passed until a lower and an upper bound on one
    # path fused into one range select (two statements fewer each) and
    # a path predicate on a filtered carrier began to restrict the
    # path's first BAT to the carrier (one statement more each)
    assert sum(emitted[name] for name in tpcd) == 701
    assert sum(passed[name] for name in tpcd) <= 609
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
