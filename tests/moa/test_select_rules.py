"""The two plan rules of ``select``, against the Moa evaluator.

* **range fusion** — a lower and an upper literal bound on one
  attribute path, and no other bound on it, compile to one two-sided
  ``select(bat, low, high, low_incl, high_incl)``; two bounds on the
  same side stay two selections;
* **join-back through the carrier** — a path predicate on a carrier
  that earlier predicates filtered walks the path forward from the
  carrier; only a predicate on the class extent joins back from the
  whole attribute BATs (the paper's Figure 10 plan).

Hypothesis draws predicate lists over the tiny TPC-D database — literal
on either side, every inclusive/exclusive pair, crossed bounds, two
same-side bounds, ``!=``, integer, float, date and string attributes,
multi-hop paths, selections on a nested set — and every answer must
equal the reference evaluator's (Figure 6).  The structural pins hold
the shipped TPC-D plans to the rules.
"""

import contextlib
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from plan_oracle import passes_off
from repro.sql import prepare_sql
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES

#: attribute path -> literals (rendered) over the tiny database's range,
#: some outside it, some between stored values
_ATTRIBUTES = {
    "quantity": ["0", "1", "10", "24", "25", "50", "51"],
    "discount": ["0.0", "0.02", "0.05", "0.07", "0.1", "0.035"],
    "shipdate": ['date("1994-01-01")', 'date("1995-01-01")',
                 'date("1995-03-15")', 'date("1990-01-01")'],
    "returnflag": ["'A'", "'N'", "'R'", "'B'"],
    "shipmode": ['"AIR"', '"MAIL"', '"RAIL"', '"TRUCK"', '"BOAT"'],
    "order.orderdate": ['date("1993-06-01")', 'date("1995-01-01")',
                        'date("1996-12-31")'],
    "order.totalprice": ["947.03", "50000.0", "150000.0"],
    "order.cust.mktsegment": ['"AUTOMOBILE"', '"BUILDING"',
                              '"HOUSEHOLD"', '"MACHINERY"', '"C"'],
    "part.size": ["2", "15", "30", "50"],
}

_LOWER, _UPPER = (">", ">="), ("<", "<=")
#: the operator with the literal on the left that states the same bound
_FLIPPED = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "=": "=",
            "!=": "!="}


def _render(path, op, literal, literal_left):
    if literal_left:
        return "%s(%s, %%%s)" % (_FLIPPED[op], literal, path)
    return "%s(%%%s, %s)" % (op, path, literal)


@st.composite
def _comparison(draw, path=None, ops=("=", "!=") + _LOWER + _UPPER):
    """``(path, op, text)``: one literal comparison; ``op`` is stated
    with the literal on the right, whichever side it is rendered on."""
    path = path or draw(st.sampled_from(sorted(_ATTRIBUTES)))
    op = draw(st.sampled_from(ops))
    literal = draw(st.sampled_from(_ATTRIBUTES[path]))
    return path, op, _render(path, op, literal, draw(st.booleans()))


@st.composite
def _bound_pair(draw):
    """Two bounds on one path: a lower and an upper one (in either
    order, possibly crossed), or two on the same side."""
    path = draw(st.sampled_from(sorted(_ATTRIBUTES)))
    first_side, second_side = draw(st.sampled_from(
        [(_LOWER, _UPPER), (_UPPER, _LOWER), (_LOWER, _LOWER),
         (_UPPER, _UPPER)]))
    return [draw(_comparison(path, first_side)),
            draw(_comparison(path, second_side))]


@st.composite
def predicate_lists(draw):
    """A shuffled list of comparisons and bound pairs; sometimes two
    neighbours joined by ``and``."""
    parts = draw(st.lists(st.one_of(_bound_pair(),
                                    _comparison().map(lambda c: [c])),
                          min_size=1, max_size=3))
    comparisons = draw(st.permutations(
        [comparison for part in parts for comparison in part]))
    texts = [text for _path, _op, text in comparisons]
    if len(texts) > 1 and draw(st.booleans()):
        texts[:2] = ["and(%s, %s)" % tuple(texts[:2])]
    return comparisons, texts


def _expected_selects(comparisons):
    """Literal selections the rules leave: one per comparison but
    ``!=``, less one per path holding exactly one lower and one upper
    bound."""
    lower, upper = Counter(), Counter()
    for path, op, _text in comparisons:
        lower[path] += op in _LOWER
        upper[path] += op in _UPPER
    return (sum(op != "!=" for _path, op, _text in comparisons)
            - sum(lower[p] == upper[p] == 1 for p in lower))


def _literal_selects(program):
    """``select`` statements on catalog BATs (not ``select(b, true)``
    over a computed predicate column)."""
    return [stmt for stmt in program if stmt.op == "select"
            and stmt.args[0].name[0].isupper()]


_SETTINGS = dict(max_examples=40, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(**_SETTINGS)
@given(case=predicate_lists())
def test_selections_answer_like_the_evaluator(tiny_tpcd_db, case):
    comparisons, texts = case
    query = "select[%s](Item)" % ", ".join(texts)
    tiny_tpcd_db.check_commutes(query)
    with passes_off():      # as emitted: CSE merges repeated selects
        _resolved, compiled = tiny_tpcd_db.compile(query)
    assert len(_literal_selects(compiled.program)) \
        == _expected_selects(comparisons), query


@settings(**dict(_SETTINGS, max_examples=20))
@given(case=predicate_lists(), counted=st.booleans())
def test_nested_set_selections_answer_like_the_evaluator(tiny_tpcd_db,
                                                         case, counted):
    _comparisons, texts = case
    nested = "select[%s](%%item)" % ", ".join(texts)
    if counted:
        nested = "count(%s)" % nested
    tiny_tpcd_db.check_commutes(
        "project[<%%clerk : c, %s : s>](Order)" % nested)


@pytest.mark.parametrize("low_op", _LOWER)
@pytest.mark.parametrize("high_op", _UPPER)
@pytest.mark.parametrize("sides", [(True, False), (False, True)])
@pytest.mark.parametrize("bounds", [(10, 30), (30, 10), (24, 24)])
def test_every_bound_pair_fuses_into_one_select(tiny_tpcd_db, low_op,
                                                high_op, sides, bounds):
    low, high = bounds
    query = "select[%s, %s](Item)" % (
        _render("quantity", low_op, low, sides[0]),
        _render("quantity", high_op, high, sides[1]))
    physical, _logical = tiny_tpcd_db.check_commutes(query)
    _resolved, compiled = tiny_tpcd_db.compile(query)
    assert [stmt.render() for stmt in _literal_selects(compiled.program)] \
        == ["q1 := select(Item_quantity, %d, %d, %s, %s)"
            % (low, high, str(low_op == ">=").lower(),
               str(high_op == "<=").lower())]
    if low > high:
        assert len(physical) == 0


@pytest.mark.parametrize("query, selects", [
    # two bounds on one side never fuse
    ("select[>(%quantity, 10), >=(%quantity, 20)](Item)", 2),
    ("select[<(%discount, 0.07), <=(0.05, %discount), "
     "<=(%discount, 0.1)](Item)", 3),
    # a path with one lower and one upper bound fuses, next to others
    ('select[>=(%shipmode, "MAIL"), =(%returnflag, \'R\'), '
     '<(%shipmode, "TRUCK"), !=(%quantity, 5)](Item)', 2),
    ('select[>(%order.cust.mktsegment, "BUILDING"), '
     '<=(%order.cust.mktsegment, "MACHINERY")](Item)', 1),
])
def test_fusion_needs_one_bound_on_each_side(tiny_tpcd_db, query, selects):
    tiny_tpcd_db.check_commutes(query)
    _resolved, compiled = tiny_tpcd_db.compile(query)
    assert len(_literal_selects(compiled.program)) == selects


@pytest.mark.parametrize("op", ["=", "<", ">="])
def test_a_literal_the_attribute_cannot_hold_compares_by_value(
        tiny_tpcd_db, op):
    # 24.5 is no int: the comparison is computed per element (it used
    # to fail to compile with an AtomError), and fuses with nothing
    query = "select[%s(%%quantity, 24.5), <=(%%quantity, 40)](Item)" % op
    tiny_tpcd_db.check_commutes(query)
    _resolved, compiled = tiny_tpcd_db.compile(query)
    assert len(_literal_selects(compiled.program)) == 1


def test_a_filtered_carrier_walks_the_path_forward(tiny_tpcd_db):
    """The first predicate joins back from the whole attribute BATs; a
    later one restricts the path's first BAT to the carrier and walks
    forward to the selection."""
    query = ('select[=(%returnflag, \'R\'), '
             '=(%order.cust.mktsegment, "BUILDING")](Item)')
    tiny_tpcd_db.check_commutes(query)
    assert tiny_tpcd_db.mil_text(query).splitlines() == [
        'q1 := select(Item_returnflag, "R")',
        "sel2 := semijoin(Item, q1)",
        'q3 := select(Customer_mktsegment, "BUILDING")',
        "nav4 := semijoin(Item_order, sel2)",
        "nav5 := join(nav4, Order_cust)",
        "q6 := join(nav5, q3)",
        "sel7 := semijoin(sel2, q6)",
        "result8 := ident(sel7)  # result set index",
    ]


# ----------------------------------------------------------------------
# the shipped TPC-D plans
# ----------------------------------------------------------------------
def _tpcd_programs(db, number):
    """(label, program) of query ``number``'s SQL plan(s) and Moa
    driver(s), each as emitted and as the passes leave it."""
    programs = []
    for passes in (True, False):
        with contextlib.nullcontext() if passes else passes_off():
            programs += [("sql", compiled.program) for compiled
                         in prepare_sql(db, sql_text(number))._compiled
                         if compiled is not None]
            programs += [("moa", db.compile(text)[1].program)
                         for text in QUERIES[number].texts()]
    return programs


def test_q6_selects_three_ranges(tiny_tpcd_db):
    # shipdate, discount and quantity: one select each, where the
    # parent compiled five
    for _label, program in _tpcd_programs(tiny_tpcd_db, 6):
        assert sum(stmt.op == "select" for stmt in program) == 3


@pytest.mark.parametrize("number", [3, 5, 8, 10])
def test_no_join_back_from_a_whole_attribute_after_the_first_predicate(
        tiny_tpcd_db, number):
    catalog = {name for name in tiny_tpcd_db.flat.kernel.names()
               if "_" in name}
    for label, program in _tpcd_programs(tiny_tpcd_db, number):
        statements = list(program)
        defined = {stmt.target: stmt for stmt in statements}
        first = next(i for i, stmt in enumerate(statements)
                     if stmt.op == "semijoin")
        if label == "sql":
            # the SQL plans filter one carrier: after its first
            # predicate no join reads a whole attribute BAT
            assert not [stmt.render() for stmt in statements[first + 1:]
                        if stmt.op == "join"
                        and stmt.args[0].name in catalog], number
        # in every plan, a predicate on a filtered carrier reaches its
        # qualifying ids through joins whose left operand is not a
        # whole attribute BAT
        for stmt in statements:
            carrier = defined.get(getattr(stmt.args[0], "name", None)) \
                if stmt.op == "semijoin" and stmt.args else None
            if carrier is None or carrier.op != "semijoin":
                continue
            qualifying = defined.get(stmt.args[1].name)
            while qualifying is not None and qualifying.op == "join":
                assert qualifying.args[0].name not in catalog, \
                    (number, qualifying.render())
                qualifying = defined.get(qualifying.args[1].name)
