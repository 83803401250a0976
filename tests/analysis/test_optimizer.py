"""The optimizer's compile-time passes on hand-built and random plans.

* **side conditions** — common-subexpression merging only merges pure
  statements with equal typed literals and equal operand value
  numbers, never drops a root, and does nothing to a plan that assigns
  a variable twice;
* **the pure bit** — every signature must declare it (no default), and
  an op registered as impure is never merged even with identical
  arguments;
* **differential fuzz** — random plans with injected duplicate
  subexpressions compute the same root values (and only true
  properties) with and without the passes.
"""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import signatures
from repro.analysis.signatures import SIGNATURES, Signature
from repro.analysis.verify import catalog_stats_from_kernel, check_program
from repro.monet import MILInterpreter, MILProgram, MonetKernel, Var
from repro.monet import mil, verify
from repro.monet.optimizer import (Optimizer,
                                   merge_common_subexpressions,
                                   optimize, use)


def _program(*stmts):
    """``(target, op, args[, fn])`` tuples -> MILProgram; string args
    starting with ``$`` are Vars."""
    program = MILProgram()
    for target, op, args, *fn in stmts:
        program.emit(op, [Var(a[1:]) if isinstance(a, str)
                          and a.startswith("$") else a for a in args],
                     fn=fn[0] if fn else None, target=target)
    return program


def _rendered(program):
    return [stmt.render() for stmt in program]


def test_duplicates_merge_and_later_reads_are_renamed():
    program = _program(("a", "mirror", ["$X"]),
                       ("b", "mirror", ["$X"]),
                       ("c", "join", ["$a", "$Y"]),
                       ("d", "join", ["$b", "$Y"]),
                       ("e", "union", ["$c", "$d"]))
    assert merge_common_subexpressions(program, {"e"}) == 2
    assert _rendered(program) == ["a := mirror(X)", "c := join(a, Y)",
                                  "e := union(c, c)"]


def test_literals_are_typed_and_signed():
    program = _program(("a", "multiplex", ["$X", 1], "+"),
                       ("b", "multiplex", ["$X", 1.0], "+"),
                       ("c", "multiplex", ["$X", True], "+"),
                       ("d", "multiplex", ["$X", 0.0], "*"),
                       ("e", "multiplex", ["$X", -0.0], "*"),
                       ("f", "multiplex", ["$X", 1], "-"),
                       ("g", "multiplex", ["$X", 1], "+"))
    assert merge_common_subexpressions(program, set()) == 1
    assert [stmt.target for stmt in program] == list("abcdef")


def test_roots_are_never_renamed():
    program = _program(("a", "mirror", ["$X"]),
                       ("b", "mirror", ["$X"]),
                       ("c", "ident", ["$b"]))
    assert merge_common_subexpressions(program, {"b", "c"}) == 0
    assert _rendered(program)[1:] == ["b := mirror(X)", "c := ident(b)"]


def test_a_plan_that_reassigns_a_variable_is_left_alone():
    program = _program(("a", "mirror", ["$X"]),
                       ("a", "mirror", ["$a"]),
                       ("b", "mirror", ["$X"]))
    before = _rendered(program)
    assert merge_common_subexpressions(program, set()) == 0
    assert _rendered(program) == before


def test_a_catalog_name_and_a_target_of_that_spelling_differ():
    # X is read from the catalog, then shadowed by a target "X": the
    # two mirrors read different values
    program = _program(("a", "mirror", ["$X"]),
                       ("X", "ident", ["$Y"]),
                       ("b", "mirror", ["$X"]))
    assert merge_common_subexpressions(program, set()) == 0


def test_optimize_counts_both_passes():
    program = _program(("a", "mirror", ["$X"]),
                       ("b", "mirror", ["$X"]),
                       ("dead", "ident", ["$a"]),
                       ("c", "union", ["$a", "$b"]))
    optimizer = Optimizer()
    with use(optimizer):
        assert optimize(program, {"c"}) == 2
    assert optimizer.stats["cse:removed"] == 1
    assert optimizer.stats["dce:removed"] == 1
    assert _rendered(program) == ["a := mirror(X)", "c := union(a, a)"]


# ----------------------------------------------------------------------
# the pure bit
# ----------------------------------------------------------------------
def test_pure_is_a_required_signature_argument():
    with pytest.raises(TypeError):
        Signature("mirror", (1,), SIGNATURES["mirror"].rule)


def test_registry_refuses_a_signature_without_a_pure_bit(monkeypatch):
    signatures._assert_complete()
    monkeypatch.setitem(SIGNATURES, "mirror", Signature(
        "mirror", (1,), SIGNATURES["mirror"].rule, pure=None))
    with pytest.raises(AssertionError, match="pure"):
        signatures._assert_complete()


@pytest.fixture
def tick(monkeypatch):
    """A test-registered effectful op: ``tick(X)`` counts its calls."""
    calls = []

    def run(stmt, args):
        calls.append(stmt.target)
        return args[0]

    def register(pure):
        monkeypatch.setitem(mil._OPS, "tick", run)
        monkeypatch.setitem(SIGNATURES, "tick", Signature(
            "tick", (1,), SIGNATURES["mirror"].rule, pure=pure))
        return calls
    return register


def _ticks():
    return _program(("a", "tick", ["$Fz_a"]),
                    ("b", "tick", ["$Fz_a"]),
                    ("c", "union", ["$a", "$b"]))


def test_an_impure_op_with_identical_arguments_is_not_merged(tick):
    calls = tick(pure=False)
    program = _ticks()
    optimize(program, {"c"})
    assert [stmt.target for stmt in program] == ["a", "b", "c"]
    MILInterpreter(_kernel()).run(program)
    assert calls == ["a", "b"]


def test_the_same_op_declared_pure_is_merged(tick):
    # the falsifiability half: only the pure bit kept the two apart
    calls = tick(pure=True)
    program = _ticks()
    optimize(program, {"c"})
    assert [stmt.target for stmt in program] == ["a", "c"]
    MILInterpreter(_kernel()).run(program)
    assert calls == ["a"]


# ----------------------------------------------------------------------
# differential fuzz
# ----------------------------------------------------------------------
def _kernel():
    kernel = MonetKernel()
    # one load group: the same heads (and token), different tails
    kernel.bulk_load("Fz_a", "oid", list(range(10)), "int",
                     [3, 1, 4, 1, 5, 9, 2, 6, 5, 3], group="Fz")
    kernel.bulk_load("Fz_b", "oid", list(range(10)), "int",
                     [2, 7, 1, 8, 2, 8, 1, 8, 2, 8], group="Fz")
    kernel.bulk_load("Fz_rates", "int", list(range(10)), "int",
                     [10 * k for k in range(10)])
    return kernel


KERNEL = _kernel()
STATS = catalog_stats_from_kernel(KERNEL)

#: one random step; every step's result is an oid-headed, head-unique
#: BAT with an integer tail, so any step can consume any earlier one
step = st.one_of(
    st.tuples(st.just("select"), st.integers(0, 99),
              st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("semijoin"), st.integers(0, 99),
              st.integers(0, 99)),
    st.tuples(st.just("join"), st.integers(0, 99)),
    st.tuples(st.just("plus"), st.integers(0, 99), st.integers(-2, 2)),
    st.tuples(st.just("times"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("mirror2"), st.integers(0, 99)),
    st.tuples(st.just("aggr"), st.integers(0, 99),
              st.sampled_from(["sum", "count", "max", "avg"])),
    st.tuples(st.just("dup"), st.integers(0, 99)),
)


def _build(steps, root_picks):
    """A type-correct plan with injected duplicates, plus its roots."""
    program = MILProgram()
    pool = [Var("Fz_a"), Var("Fz_b")]        # head-unique, int tails
    results = []                             # (stmt index, in pool)

    def pick(index):
        return pool[index % len(pool)]

    def emit(op, args, fn=None, keep=True):
        var = program.emit(op, args, fn=fn)
        results.append((len(program.stmts) - 1, keep))
        if keep:
            pool.append(var)
        return var

    for kind, *args in steps:
        if kind == "select":
            emit("select", [pick(args[0]), min(args[1:]), max(args[1:])])
        elif kind == "semijoin":
            emit("semijoin", [pick(args[0]), pick(args[1])])
        elif kind == "join":
            emit("join", [pick(args[0]), Var("Fz_rates")])
        elif kind == "plus":
            emit("multiplex", [pick(args[0]), args[1]], fn="+")
        elif kind == "times":
            emit("multiplex", [pick(args[0]), pick(args[1])], fn="*")
        elif kind == "mirror2":
            flipped = emit("mirror", [pick(args[0])], keep=False)
            emit("mirror", [flipped])
        elif kind == "aggr":
            source = pick(args[0])
            groups = emit("group", [source], keep=False)
            members = emit("mirror", [groups], keep=False)
            values = emit("join", [members, source], keep=False)
            emit("aggr", [values], fn=args[1])
        elif results:
            index, keep = results[args[0] % len(results)]
            original = program.stmts[index]
            emit(original.op, list(original.args), fn=original.fn,
                 keep=keep)
    names = [var.name for var in pool[2:]] or ["Fz_a"]
    roots = {names[pick_ % len(names)] for pick_ in root_picks}
    program.emit("mirror", [Var(names[-1])], target="last")
    return program, roots | {"last"}


def _values(program, roots):
    interpreter = MILInterpreter(KERNEL)
    interpreter.run(program)
    for value in interpreter.env.values():
        verify(value)
    return {name: interpreter.resolve(Var(name)).to_pairs()
            for name in roots}


@given(st.lists(step, min_size=1, max_size=14),
       st.lists(st.integers(0, 99), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_passes_keep_every_root_value(steps, root_picks):
    program, roots = _build(steps, root_picks)
    passed = copy.deepcopy(program)
    optimize(passed, roots)
    assert len(passed) <= len(program)
    check_program(passed, catalog=STATS)
    assert _values(passed, roots) == _values(program, roots)


def test_the_fuzz_really_injects_mergeable_duplicates():
    program, roots = _build([("select", 0, 1, 5), ("dup", 0),
                             ("times", 2, 3)], [0])
    passed = copy.deepcopy(program)
    assert optimize(passed, roots) >= 1
    assert _values(passed, roots) == _values(program, roots)
