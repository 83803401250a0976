"""Property-based differential query fuzzer (two-engine equality).

Hypothesis generates random typed BATs — int/float/string columns,
NaN keys, duplicates, empty operands, oid subsets of a dense class
extent — and random operator plans over
them.  Every operator application is executed two ways:

* **naive** — the BUN-at-a-time reference semantics, rebuilt here from
  the :mod:`repro.monet.operators.naive` kernels and plain Python
  dict/set loops (the executable specification),
* **vectorized** — the real operators.

Position/code/gather results must be **bit-identical** across both;
float aggregate sums compare to the last ulp
(``np.allclose(rtol=1e-9)``) because the naive accumulation order
legitimately differs from the kernels'.

Besides the random BATs, every operator runs once, with and without
property dispatch, on operands cut from a generated TPC-D database:
a permuted join inner, string keys in two heaps, a float sum grouped
by order id, and set operations whose pair codes are too spread out
for a direct-address table.

NaN semantics are pinned throughout: a NaN key equals nothing (no join
match, no membership), and every NaN occurrence forms its own group /
survives dedup — the contract every kernel keeps.
"""

import contextlib

import numpy as np
import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.monet import (BAT, MILInterpreter, MILProgram, Var,
                         bat_dense_head, bat_from_columns_values,
                         compute_props, dispatch_disabled)
from repro.monet import operators as ops
from repro.monet import vectorized as vz
from repro.monet.column import column_from_values, equality_keys
from repro.monet.multiproc import result_checksum
from repro.monet.operators import naive

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _bat(head_atom, heads, tail_atom, tails, props=False):
    out = bat_from_columns_values(head_atom, list(heads), tail_atom,
                                  list(tails))
    if props:
        out.props = compute_props(out)
    return out


def _buns(bat):
    """(head values, tail values) of a result BAT, BUN order."""
    return (np.asarray(bat.head.logical()),
            np.asarray(bat.tail.logical()))


def _assert_matches_naive(op_fn, expected_buns, exact=True):
    """Run an operator and compare it against the naive-engine
    expectation."""
    got = _buns(op_fn())
    for side, expected_col, got_col in zip(
            ("head", "tail"), expected_buns, got):
        if exact or got_col.dtype.kind not in "fc":
            assert result_checksum(got_col) == \
                result_checksum(np.asarray(expected_col,
                                           dtype=got_col.dtype)), \
                "vectorized engine diverges from naive on %s" % side
        else:
            assert np.allclose(got_col,
                               np.asarray(expected_col, dtype=np.float64),
                               rtol=1e-9, atol=0.0, equal_nan=True)


# ----------------------------------------------------------------------
# naive engine: reference semantics from the BUN-at-a-time kernels
# ----------------------------------------------------------------------
def naive_join(ab, cd):
    left, right = naive.match(*equality_keys(ab.tail, cd.head))
    heads, tails = _buns(ab)[0], _buns(cd)[1]
    return heads[left], tails[right]


def naive_semijoin(ab, cd):
    mask = naive.membership_mask(*equality_keys(ab.head, cd.head))
    heads, tails = _buns(ab)
    return heads[mask], tails[mask]


def naive_antijoin(ab, cd):
    mask = naive.membership_mask(*equality_keys(ab.head, cd.head))
    heads, tails = _buns(ab)
    return heads[~mask], tails[~mask]


def naive_select_range(ab, low, high):
    heads, tails = _buns(ab)
    keep = [pos for pos, value in enumerate(tails.tolist())
            if (low is None or value >= low)
            and (high is None or value <= high)]
    return heads[keep], tails[keep]


def naive_select_eq(ab, value):
    heads, tails = _buns(ab)
    keep = [pos for pos, v in enumerate(tails.tolist()) if v == value]
    return heads[keep], tails[keep]


def naive_group_codes(keys):
    """Dense codes in sorted-distinct order; every NaN its own code
    after the finite ones, in BUN order (the group1 contract)."""
    keys = np.asarray(keys)
    values = keys.tolist() if keys.dtype != object else list(keys)
    finite = sorted({v for v in values if v == v})
    rank = {v: code for code, v in enumerate(finite)}
    out = np.empty(len(values), dtype=np.int64)
    next_code = len(finite)
    for pos, value in enumerate(values):
        if value != value:                       # NaN
            out[pos] = next_code
            next_code += 1
        else:
            out[pos] = rank[value]
    return out, next_code


def naive_group1(ab):
    codes, _n = naive_group_codes(ab.tail.keys())
    return _buns(ab)[0], codes


def naive_aggregate(func, ab):
    keys = np.asarray(ab.head.keys())
    heads, tails = _buns(ab)
    values = keys.tolist()
    distinct = sorted(set(values))
    first_pos = {v: values.index(v) for v in distinct}
    groups = {v: [] for v in distinct}
    for v, tail in zip(values, tails.tolist()):
        groups[v].append(tail)
    out_heads = heads[[first_pos[v] for v in distinct]]
    out_tails = []
    for v in distinct:
        members = groups[v]
        if func == "count":
            out_tails.append(len(members))
        elif func == "sum":
            out_tails.append(sum(members))
        elif func == "avg":
            out_tails.append(sum(members) / len(members))
        elif func == "min":
            out_tails.append(min(members))
        else:
            out_tails.append(max(members))
    return out_heads, np.asarray(out_tails)


def naive_extreme(func, ab):
    """Grouped min/max with the kernels' tie rule: the first position
    among tied minima, the last among tied maxima; NaN ranks above
    every number and ties with NaN (the stable float argsort)."""
    heads, tails = _buns(ab)
    keys = heads.tolist()
    values = tails.tolist() if tails.dtype != object else list(tails)

    def rank(value):
        if isinstance(value, float):
            return (1, 0.0) if value != value else (0, value)
        return (0, value)

    best = {}
    for pos, (key, value) in enumerate(zip(keys, values)):
        if key not in best:
            best[key] = pos
            continue
        held, new = rank(values[best[key]]), rank(value)
        if (new < held) if func == "min" else (new >= held):
            best[key] = pos
    chosen = [best[key] for key in sorted(best)]
    first = {}
    for pos, key in enumerate(keys):
        first.setdefault(key, pos)
    return heads[[first[key] for key in sorted(best)]], tails[chosen]


def naive_group2(grp, cd):
    """Codes of (group, refining key) pairs in sorted pair order, the
    refining keys coded first (NaN keys pairwise distinct)."""
    right, _n = naive_group_codes(cd.tail.keys())
    pairs = list(zip(grp.tail.logical().tolist(), right.tolist()))
    rank = {pair: code for code, pair in enumerate(sorted(set(pairs)))}
    return _buns(grp)[0], np.asarray([rank[p] for p in pairs],
                                     dtype=np.int64)


def _pairs(bat):
    heads, tails = _buns(bat)
    heads = heads.tolist() if heads.dtype != object else list(heads)
    tails = tails.tolist() if tails.dtype != object else list(tails)
    return list(zip(heads, tails))


def _dedup(pairs):
    seen = set()
    keep = []
    for pos, pair in enumerate(pairs):
        if pair not in seen:      # NaN pairs never equal: all survive
            seen.add(pair)
            keep.append(pos)
    return keep


def naive_unique(ab):
    heads, tails = _buns(ab)
    keep = _dedup(_pairs(ab))
    return heads[keep], tails[keep]


def naive_union(ab, cd):
    heads = np.concatenate([_buns(ab)[0], _buns(cd)[0]])
    tails = np.concatenate([_buns(ab)[1], _buns(cd)[1]])
    keep = _dedup(_pairs(ab) + _pairs(cd))
    return heads[keep], tails[keep]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
ints = st.integers(min_value=-4, max_value=4)           # heavy overlap
floats = st.one_of(
    st.just(float("nan")),
    st.sampled_from([-1.5, 0.0, 0.5, 2.0, 1e300, -0.0]))
strings = st.sampled_from(["", "a", "b", "bb", "Clerk#1", "zz"])

int_lists = st.lists(ints, max_size=24)
float_lists = st.lists(floats, max_size=24)
string_lists = st.one_of(
    st.lists(strings, max_size=24),
    # duplicate-heavy: a heap of two values, every BUN a repeat
    st.lists(st.sampled_from(["", "MAIL"]), min_size=8, max_size=24),
    # a heap holding only the empty string
    st.lists(st.just(""), max_size=8))
finite_float_lists = st.lists(
    st.sampled_from([-1.5, 0.0, 0.5, 2.0, 3.25]), max_size=24)


def _heads(n):
    return list(range(n))


@st.composite
def extent_subsets(draw):
    """``(extent, subset)``: a dense oid extent ``base .. base+n-1`` and
    a shuffled duplicate-free subset of it — the shape of a selection
    inside a class extent, which key joins and the membership table
    address directly."""
    base = draw(st.sampled_from([0, 7, 120_000]))
    extent = list(range(base, base + draw(st.integers(1, 40))))
    subset = draw(st.lists(st.sampled_from(extent), unique=True,
                           max_size=len(extent)))
    return extent, draw(st.permutations(subset))


# ----------------------------------------------------------------------
# single-operator differentials
# ----------------------------------------------------------------------
@given(int_lists, int_lists, st.booleans())
@settings(**SETTINGS)
def test_join_differential_int(left, right, props):
    ab = _bat("oid", _heads(len(left)), "long", left, props=props)
    cd = _bat("long", right, "long", [v * 10 for v in right],
              props=props)
    _assert_matches_naive(lambda: ops.join(ab, cd), naive_join(ab, cd))


@given(string_lists, string_lists)
@settings(**SETTINGS)
def test_join_differential_strings(left, right):
    ab = _bat("oid", _heads(len(left)), "string", left)
    cd = _bat("string", right, "long", _heads(len(right)))
    _assert_matches_naive(lambda: ops.join(ab, cd), naive_join(ab, cd))


@given(float_lists, float_lists, st.booleans())
@settings(**SETTINGS)
def test_join_differential_nan_keys(left, right, props):
    ab = _bat("oid", _heads(len(left)), "double", left, props=props)
    cd = _bat("double", right, "long", _heads(len(right)), props=props)
    _assert_matches_naive(lambda: ops.join(ab, cd), naive_join(ab, cd))


@given(int_lists, int_lists, st.booleans())
@settings(**SETTINGS)
def test_semijoin_differential(left, right, props):
    ab = _bat("long", left, "long", _heads(len(left)), props=props)
    cd = _bat("long", right, "long", _heads(len(right)), props=props)
    _assert_matches_naive(lambda: ops.semijoin(ab, cd),
                       naive_semijoin(ab, cd))
    _assert_matches_naive(lambda: ops.antijoin(ab, cd),
                       naive_antijoin(ab, cd))


@given(extent_subsets(), st.lists(st.integers(-2, 42), max_size=24),
       st.booleans())
@settings(**SETTINGS)
def test_oid_subset_differential(case, offsets, props):
    # outer oids inside, below and past the extent, some repeated,
    # against a keyed subset: keyjoin, and the semijoin bool table
    extent, subset = case
    probes = [max(0, extent[0] + d) for d in offsets]
    ab = _bat("oid", _heads(len(probes)), "oid", probes, props=props)
    cd = _bat("oid", subset, "long", [v * 3 for v in subset], props=True)
    _assert_matches_naive(lambda: ops.join(ab, cd), naive_join(ab, cd))
    members = _bat("oid", extent, "long", _heads(len(extent)), props=props)
    _assert_matches_naive(lambda: ops.semijoin(members, cd),
                          naive_semijoin(members, cd))
    _assert_matches_naive(lambda: ops.antijoin(members, cd),
                          naive_antijoin(members, cd))


@given(string_lists, string_lists)
@settings(**SETTINGS)
def test_semijoin_differential_strings(left, right):
    ab = _bat("string", left, "long", _heads(len(left)))
    cd = _bat("string", right, "long", _heads(len(right)))
    _assert_matches_naive(lambda: ops.semijoin(ab, cd),
                       naive_semijoin(ab, cd))


@given(float_lists, st.booleans())
@settings(**SETTINGS)
def test_semijoin_differential_nan_keys(keys, props):
    ab = _bat("double", keys, "long", _heads(len(keys)), props=props)
    cd = _bat("double", list(reversed(keys)), "long",
              _heads(len(keys)), props=props)
    _assert_matches_naive(lambda: ops.semijoin(ab, cd),
                       naive_semijoin(ab, cd))


#: string predicates and their BUN-at-a-time Python meaning
STRING_PREDICATES = {
    "=": lambda v, p: v == p, "!=": lambda v, p: v != p,
    "<": lambda v, p: v < p, ">=": lambda v, p: v >= p,
    "startswith": lambda v, p: v.startswith(p),
    "endswith": lambda v, p: v.endswith(p),
    "contains": lambda v, p: p in v,
}


@given(string_lists, strings, st.sampled_from(sorted(STRING_PREDICATES)))
@settings(**SETTINGS)
def test_string_predicate_differential(tails, pattern, fname):
    ab = _bat("oid", _heads(len(tails)), "string", tails)
    expected = [STRING_PREDICATES[fname](v, pattern) for v in tails]
    _assert_matches_naive(lambda: ops.multiplex(fname, ab, pattern),
                          (np.arange(len(tails)),
                           np.asarray(expected, dtype=bool)))


@given(int_lists, ints, ints, st.booleans())
@settings(**SETTINGS)
def test_select_range_differential(tails, low, high, props):
    ab = _bat("oid", _heads(len(tails)), "long", tails, props=props)
    _assert_matches_naive(lambda: ops.select_range(ab, low, high),
                       naive_select_range(ab, low, high))
    _assert_matches_naive(lambda: ops.select_range(ab, low, None),
                       naive_select_range(ab, low, None))


@given(int_lists, ints, st.booleans())
@settings(**SETTINGS)
def test_select_eq_differential(tails, value, props):
    ab = _bat("oid", _heads(len(tails)), "long", tails, props=props)
    _assert_matches_naive(lambda: ops.select_eq(ab, value),
                       naive_select_eq(ab, value))


@given(st.one_of(int_lists, float_lists, string_lists))
@settings(**SETTINGS)
def test_group1_differential(tails):
    atom = ("long" if all(isinstance(v, int) for v in tails)
            else "double" if not any(isinstance(v, str) for v in tails)
            else "string")
    ab = _bat("oid", _heads(len(tails)), atom, tails)
    _assert_matches_naive(lambda: ops.group1(ab), naive_group1(ab))


@given(int_lists, st.sampled_from(ops.AGGREGATES), st.booleans())
@settings(**SETTINGS)
def test_aggregate_differential_int(keys, func, floats_tail):
    tails = ([v * 0.25 for v in range(len(keys))] if floats_tail
             else list(range(len(keys))))
    atom = "double" if floats_tail else "long"
    ab = _bat("long", keys, atom, tails)
    exact = func in ("count", "min", "max") or \
        (func == "sum" and not floats_tail)
    _assert_matches_naive(lambda: ops.set_aggregate(func, ab),
                       naive_aggregate(func, ab), exact=exact)


#: per-atom tail values of the group-constant fuzz; a 0.0 group mixes
#: -0.0 and 0.0 rows (equal keys, different bytes)
_CONSTANT_POOLS = {
    "long": st.sampled_from([-2 ** 63, -1, 0, 5, 2 ** 63 - 1]),
    "double": st.sampled_from([-1.5, 0.0, 2.0, 1e300, float("nan")]),
    "string": strings,
}


@st.composite
def group_constant_tails(draw):
    """``(atom, heads, tails)`` whose tails are constant per head group
    — the shape of a key extraction — or, when ``broken``, with one row
    changed, so the group-constant test has to fail over to the
    scatter-reduce."""
    atom = draw(st.sampled_from(sorted(_CONSTANT_POOLS)))
    pool = _CONSTANT_POOLS[atom]
    heads = draw(st.lists(ints, min_size=1, max_size=24))
    value = {head: draw(pool) for head in sorted(set(heads))}
    tails = []
    for head in heads:
        tail = value[head]
        if atom == "double" and tail == 0.0:
            tail = draw(st.sampled_from([-0.0, 0.0]))
        tails.append(tail)
    if draw(st.booleans()):
        tails[draw(st.integers(0, len(tails) - 1))] = draw(pool)
    return atom, heads, tails


@given(group_constant_tails(), st.sampled_from(["min", "max"]))
@example(("double", [1, 2, 1, 1], [-0.0, 2.0, -0.0, 0.0]), "max")
@example(("double", [1, 2, 1, 1], [0.0, 2.0, -0.0, -0.0]), "min")
@example(("double", [3, 3], [float("nan"), float("nan")]), "max")
@settings(**SETTINGS)
def test_group_constant_extremes_differential(case, func):
    atom, heads, tails = case
    ab = _bat("long", heads, atom, tails)
    _assert_matches_naive(lambda: ops.set_aggregate(func, ab),
                          naive_extreme(func, ab))


@pytest.mark.parametrize("func", ["min", "max"])
def test_group_constant_test_reads_past_its_probe(func):
    # 3000 rows in 3 groups, constant but for one row far past the
    # probed prefix: the whole-column comparison must catch it
    heads = [pos % 3 for pos in range(3000)]
    tails = [float(head) for head in heads]
    tails[2500] = -7.0 if func == "min" else 9.0
    ab = _bat("long", heads, "double", tails)
    _assert_matches_naive(lambda: ops.set_aggregate(func, ab),
                          naive_extreme(func, ab))
    assert ops.set_aggregate(func, ab).tail.logical()[2500 % 3] == \
        tails[2500]


@st.composite
def dense_semijoins(draw):
    """``(left, right)``: a left operand whose head is a dense oid range
    at a non-zero seqbase — stored, or void — against right keys below,
    inside and past that range, duplicated, or none at all."""
    base = draw(st.sampled_from([7, 120_000, 2 ** 40]))
    n = draw(st.integers(1, 40))
    tails = column_from_values("long", [v * 3 for v in range(n)])
    if draw(st.booleans()):
        left = bat_dense_head(tails, seqbase=base)
    else:
        left = BAT(column_from_values("oid", range(base, base + n)), tails)
        left.props = compute_props(left)
    keys = draw(st.lists(st.integers(base - 3, base + n + 3), max_size=24))
    right = _bat("long", keys, "long", _heads(len(keys)),
                 props=draw(st.booleans()))
    return left, right


@given(dense_semijoins())
@settings(**SETTINGS)
def test_dense_head_semijoin_differential(case):
    left, right = case
    _assert_matches_naive(lambda: ops.semijoin(left, right),
                          naive_semijoin(left, right))


@given(int_lists, int_lists, st.booleans())
@settings(**SETTINGS)
def test_grouped_head_semijoin_differential(left, right, superset):
    ab = _bat("long", left, "long", _heads(len(left)))
    ops.set_aggregate("count", ab)         # caches the head's grouping
    keys = right + left if superset else right
    cd = _bat("long", keys, "long", _heads(len(keys)))
    _assert_matches_naive(lambda: ops.semijoin(ab, cd),
                          naive_semijoin(ab, cd))


#: refining keys: a compact span, and one too wide for a table
_refining_keys = st.one_of(
    st.lists(ints, min_size=24, max_size=24),
    st.lists(st.sampled_from([-2 ** 62, -5, 0, 2 ** 40, 2 ** 62]),
             min_size=24, max_size=24))


@given(int_lists, _refining_keys, st.booleans())
@settings(**SETTINGS)
def test_group2_differential(left, refining, synced):
    ab = _bat("oid", _heads(len(left)), "long", left, props=True)
    grp = ops.group1(ab)
    tail = column_from_values("long", refining[:len(left)])
    if synced:
        cd = BAT(ab.head, tail, alignment=ab.alignment)
    else:
        cd = BAT(column_from_values("oid", _heads(len(left))), tail)
        cd.props = compute_props(cd)
    _assert_matches_naive(lambda: ops.group2(grp, cd),
                          naive_group2(grp, cd))


@given(int_lists, int_lists)
@settings(**SETTINGS)
def test_setops_differential(left, right):
    ab = _bat("long", left, "long", [v % 3 for v in left])
    cd = _bat("long", right, "long", [v % 3 for v in right])
    _assert_matches_naive(lambda: ops.unique(ab), naive_unique(ab))
    _assert_matches_naive(lambda: ops.union(ab, cd), naive_union(ab, cd))


@given(float_lists, float_lists)
@settings(**SETTINGS)
def test_setops_differential_nan_tails(left, right):
    ab = _bat("oid", [v % 4 for v in _heads(len(left))], "double", left)
    cd = _bat("oid", [v % 4 for v in _heads(len(right))], "double",
              right)
    _assert_matches_naive(lambda: ops.unique(ab), naive_unique(ab))
    _assert_matches_naive(lambda: ops.union(ab, cd), naive_union(ab, cd))


def test_empty_bats_every_op():
    """Empty operands flow through every fuzzed operator, both ways."""
    empty = _bat("long", [], "long", [])
    other = _bat("long", [1, 2, 2], "long", [0, 1, 2])
    cases = [
        (lambda: ops.join(empty, other), naive_join(empty, other)),
        (lambda: ops.join(other, empty), naive_join(other, empty)),
        (lambda: ops.semijoin(empty, other),
         naive_semijoin(empty, other)),
        (lambda: ops.semijoin(other, empty),
         naive_semijoin(other, empty)),
        (lambda: ops.antijoin(empty, other),
         naive_antijoin(empty, other)),
        (lambda: ops.antijoin(other, empty),
         naive_antijoin(other, empty)),
        (lambda: ops.select_range(empty, 0, 1),
         naive_select_range(empty, 0, 1)),
        (lambda: ops.unique(empty), naive_unique(empty)),
        (lambda: ops.union(empty, other), naive_union(empty, other)),
        (lambda: ops.union(other, empty), naive_union(other, empty)),
        (lambda: ops.group1(empty), naive_group1(empty)),
    ]
    for op_fn, expected in cases:
        _assert_matches_naive(op_fn, expected)


# ----------------------------------------------------------------------
# TPC-D operand shapes: thousands of BUNs drawn from dbgen's columns, so
# the kernels leave the compact-span tables (the set operations' pair
# codes span ~50x the row count) and meet permuted, cross-heap operands
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpcd_operands(tiny_tpcd, tiny_tpcd_db):
    item = tiny_tpcd.tables["item"]
    orders = tiny_tpcd.tables["orders"]
    order_of = np.asarray(item["order"])
    price = np.asarray(item["extendedprice"])
    quantity = np.asarray(item["quantity"])
    n_item, n_orders = len(order_of), len(orders["cust"])
    item_oids = _heads(n_item)
    perm = np.random.default_rng(tiny_tpcd.seed).permutation(n_orders)
    clerks = list(orders["clerk"])
    distinct = sorted(set(clerks))
    half = n_item // 2
    step5 = item_oids[::5]
    # a catalog attribute carries a datavector: its semijoin probes
    # the class extent with the right operand's heads as they are
    item_quantity = tiny_tpcd_db.kernel.get("Item_quantity")
    some_oids = np.asarray(item_quantity.head.logical())[:9]
    float_oids = np.concatenate((some_oids, some_oids + 0.5))
    return {
        "item_order": _bat("oid", item_oids, "long", order_of, True),
        # join inner keyed on order ids, permuted: not head-ordered
        "orders_cust": _bat("long", perm, "long",
                            np.asarray(orders["cust"])[perm], True),
        "item_price": _bat("oid", item_oids, "double", price, True),
        # float grouped sum over order ids
        "order_price": _bat("long", order_of, "double", price, True),
        "item_sel": _bat("oid", step5, "oid", step5, True),
        "items_lo": _bat("oid", item_oids[:half + half // 2], "long",
                         quantity[:half + half // 2]),
        "items_hi": _bat("oid", item_oids[half // 2:], "long",
                         quantity[half // 2:]),
        # string keys in separate heaps: equality_keys re-encodes one
        # side into the other's codes
        "orders_clerk": _bat("long", _heads(n_orders), "string", clerks,
                             True),
        "clerk_names": _bat("string", distinct, "long",
                            _heads(len(distinct)), True),
        "clerk_orders": _bat("string", clerks, "long", _heads(n_orders),
                             True),
        "clerk_sel": _bat("string", distinct[::5], "long",
                          _heads(len(distinct[::5])), True),
        "item_quantity": item_quantity,
        "oid_sel": _bat("oid", some_oids, "long",
                        _heads(len(some_oids)), True),
        # and one oid past the extent
        "oid_miss": _bat("oid", np.append(some_oids, n_item + 7), "long",
                         _heads(len(some_oids) + 1), True),
        # half the heads are integral (they equal an oid), half not
        "float_sel": _bat("double", float_oids, "long",
                          _heads(len(float_oids)), True),
    }


_TPCD_CASES = {
    "join": (lambda o: ops.join(o["item_order"], o["orders_cust"]),
             lambda o: naive_join(o["item_order"], o["orders_cust"])),
    "join_str": (lambda o: ops.join(o["orders_clerk"], o["clerk_names"]),
                 lambda o: naive_join(o["orders_clerk"],
                                      o["clerk_names"])),
    "mergejoin": (lambda o: ops.join(o["item_sel"], o["item_price"]),
                  lambda o: naive_join(o["item_sel"], o["item_price"])),
    "semijoin": (lambda o: ops.semijoin(o["item_price"], o["item_sel"]),
                 lambda o: naive_semijoin(o["item_price"],
                                          o["item_sel"])),
    "semijoin_dv": (lambda o: ops.semijoin(o["item_quantity"],
                                           o["oid_sel"]),
                    lambda o: naive_semijoin(o["item_quantity"],
                                             o["oid_sel"])),
    "semijoin_dv_miss": (lambda o: ops.semijoin(o["item_quantity"],
                                                o["oid_miss"]),
                         lambda o: naive_semijoin(o["item_quantity"],
                                                  o["oid_miss"])),
    "semijoin_dv_float": (lambda o: ops.semijoin(o["item_quantity"],
                                                 o["float_sel"]),
                          lambda o: naive_semijoin(o["item_quantity"],
                                                   o["float_sel"])),
    "semijoin_str": (lambda o: ops.semijoin(o["clerk_orders"],
                                            o["clerk_sel"]),
                     lambda o: naive_semijoin(o["clerk_orders"],
                                              o["clerk_sel"])),
    "group": (lambda o: ops.group1(o["order_price"]),
              lambda o: naive_group1(o["order_price"])),
    "aggregate": (lambda o: ops.set_aggregate("sum", o["order_price"]),
                  lambda o: naive_aggregate("sum", o["order_price"])),
    "unique": (lambda o: ops.unique(o["items_lo"]),
               lambda o: naive_unique(o["items_lo"])),
    # Moa difference/intersection of two Item subsets, as the rewriter
    # compiles them: head-wise on the element oids
    "difference": (lambda o: ops.antijoin(o["items_lo"], o["items_hi"]),
                   lambda o: naive_antijoin(o["items_lo"],
                                            o["items_hi"])),
    "intersection": (lambda o: ops.semijoin(o["items_lo"],
                                            o["items_hi"]),
                     lambda o: naive_semijoin(o["items_lo"],
                                              o["items_hi"])),
    "select": (lambda o: ops.select_range(o["item_price"], 1000.0,
                                          50000.0),
               lambda o: naive_select_range(o["item_price"], 1000.0,
                                            50000.0)),
}


@pytest.mark.parametrize("dispatch", [True, False],
                         ids=["dispatch", "fallback"])
@pytest.mark.parametrize("name", sorted(_TPCD_CASES))
def test_tpcd_operand_differential(tpcd_operands, name, dispatch):
    op_fn, naive_fn = _TPCD_CASES[name]
    with contextlib.nullcontext() if dispatch else dispatch_disabled():
        _assert_matches_naive(lambda: op_fn(tpcd_operands),
                              naive_fn(tpcd_operands),
                              exact=name != "aggregate")


def test_datavector_semijoin_keeps_float_heads_exact(tiny_tpcd_db):
    """``semijoin(Item_quantity, {min}(mirror(Item_discount)))``: the
    right heads are discounts (0.0, 0.01, ...), and only 0.0 equals an
    oid.  Dispatched to the datavector path or run on the fallback
    kernels, the MIL plan answers what the naive semijoin does."""
    program = MILProgram()
    mirrored = program.emit("mirror", [Var("Item_discount")])
    minima = program.emit("aggr", [mirrored], fn="min", target="g")
    program.emit("semijoin", [Var("Item_quantity"), minima],
                 target="r")
    answers = []
    for dispatch in (True, False):
        with contextlib.nullcontext() if dispatch \
                else dispatch_disabled():
            interpreter = MILInterpreter(tiny_tpcd_db.kernel)
            interpreter.run(program)
        answers.append(interpreter.env["r"])
    expected = naive_semijoin(tiny_tpcd_db.kernel.get("Item_quantity"),
                              interpreter.env["g"])
    assert 0 < len(expected[0]) < len(interpreter.env["g"])
    for answer in answers:
        _assert_matches_naive(lambda: answer, expected)


def test_tpcd_string_keys_match_decoded_strings(tpcd_operands):
    # cross-heap codes from equality_keys against the decoded strings
    o = tpcd_operands
    for left, right in ((o["orders_clerk"].tail, o["clerk_names"].head),
                        (o["clerk_orders"].head, o["clerk_sel"].head)):
        codes = equality_keys(left, right)
        strings = [np.asarray(column.logical(), dtype=object)
                   for column in (left, right)]
        for got, want in zip(vz.MultiMap(codes[1]).match(codes[0]),
                             naive.match(*strings)):
            assert np.array_equal(got, want)
        assert np.array_equal(vz.membership_mask(*codes),
                              naive.membership_mask(*strings))


# ----------------------------------------------------------------------
# composite random plans
# ----------------------------------------------------------------------
_PLAN_OPS = ("join", "semijoin", "antijoin", "select", "unique",
             "union", "group")


@given(int_lists, int_lists,
       st.lists(st.tuples(st.sampled_from(_PLAN_OPS), ints, ints),
                min_size=1, max_size=4))
@settings(**SETTINGS)
def test_random_plan_differential(left, right, steps):
    """Random multi-operator plans, checked step by step.

    The vectorized engine drives the plan; at every step the naive
    mirror runs on the *same* inputs, so each
    operator is exercised on realistically-shaped intermediates (join
    outputs, deduped sets, group codes) instead of only on fresh base
    BATs.
    """
    pool = [
        _bat("long", left, "long", [v % 3 for v in left]),
        _bat("long", right, "long", [v * 2 for v in right]),
        _bat("long", _heads(len(left)), "long", left),
    ]
    for op_name, pick_a, pick_b in steps:
        ab = pool[pick_a % len(pool)]
        cd = pool[pick_b % len(pool)]
        if op_name == "join":
            op_fn = lambda a=ab, c=cd: ops.join(a, c)
            expected = naive_join(ab, cd)
        elif op_name == "semijoin":
            op_fn = lambda a=ab, c=cd: ops.semijoin(a, c)
            expected = naive_semijoin(ab, cd)
        elif op_name == "antijoin":
            op_fn = lambda a=ab, c=cd: ops.antijoin(a, c)
            expected = naive_antijoin(ab, cd)
        elif op_name == "select":
            low, high = sorted((pick_a, pick_b))
            op_fn = lambda a=ab, lo=low, hi=high: \
                ops.select_range(a, lo, hi)
            expected = naive_select_range(ab, low, high)
        elif op_name == "unique":
            op_fn = lambda a=ab: ops.unique(a)
            expected = naive_unique(ab)
        elif op_name == "union":
            op_fn = lambda a=ab, c=cd: ops.union(a, c)
            expected = naive_union(ab, cd)
        else:
            op_fn = lambda a=ab: ops.group1(a)
            expected = naive_group1(ab)
        _assert_matches_naive(op_fn, expected)
        if op_name != "group":
            # every other op is closed over [long, long] BATs; group1
            # introduces an oid tail, which later set operations could
            # not legally concatenate with a long operand
            pool.append(op_fn())
