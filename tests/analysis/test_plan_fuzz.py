"""Property-based verifier fuzzing: accept = execute, reject = raise.

Hypothesis generates random *valid* MIL plans over a small typed
catalog (the plan-building pattern of
``tests/monet/test_query_fuzz.py``), then corrupts them three ways:

* **ref rename** — point an argument at a name nothing defines,
* **instruction reorder** — move a statement ahead of a definition it
  consumes,
* **type swap** — substitute an operand of a different (varsized vs
  fixed) type.

The property under test is *agreement*: for every generated plan —
pristine or corrupted — the verifier rejects it **iff** the
interpreter raises on it.  Pristine plans therefore cannot be
falsely rejected, and the corruptions (all statically certain
failures) cannot be falsely accepted.  The same agreement direction
that matters for the server (reject ⇒ raise) is also asserted for
every TPC-D plan in ``test_verifier.py``.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ReproError
from repro.monet import MILProgram, MonetKernel, Var
from repro.monet import bat_from_columns_values
from repro.monet.mil import MILInterpreter
from repro.analysis.verify import (catalog_stats_from_kernel,
                                   verify_program)

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: catalog names by "kind" — plans are built to be type-correct, so
#: every corruption is a deliberate, measurable deviation
INT_BATS = ("Fuzz_qty", "Fuzz_price")
KEYED_BATS = ("Fuzz_rates",)
STR_BATS = ("Fuzz_names",)


def _kernel():
    kernel = MonetKernel()
    kernel.register("Fuzz_qty", bat_from_columns_values(
        "oid", list(range(7)), "int", [4, 2, 7, 2, 9, 1, 5]))
    kernel.register("Fuzz_price", bat_from_columns_values(
        "oid", list(range(5)), "int", [2, 4, 4, 1, 7]))
    kernel.register("Fuzz_rates", bat_from_columns_values(
        "int", [1, 2, 4, 5, 7, 9], "int", [10, 20, 40, 50, 70, 90]))
    kernel.register("Fuzz_names", bat_from_columns_values(
        "oid", list(range(4)), "string", ["a", "b", "bb", "c"]))
    return kernel


KERNEL = _kernel()
STATS = catalog_stats_from_kernel(KERNEL)

#: step kinds a generated plan may chain; each consumes an (oid,int)
#: BAT and produces another, so any step can feed any later step
STEP_KINDS = ("select", "mirror_mirror", "join_rates", "unique",
              "slice", "union_self", "antijoin_self")


def _emit_step(program, kind, source, lo, hi):
    if kind == "select":
        return program.emit("select", [source, min(lo, hi),
                                       max(lo, hi)])
    if kind == "mirror_mirror":
        flipped = program.emit("mirror", [source])
        return program.emit("mirror", [flipped])
    if kind == "join_rates":
        return program.emit("join", [source, Var("Fuzz_rates")])
    if kind == "unique":
        return program.emit("unique", [source])
    if kind == "slice":
        return program.emit("slice", [source, 0, max(lo, hi)])
    if kind == "union_self":
        return program.emit("union", [source, source])
    return program.emit("antijoin", [source, source])


def _build_plan(base, steps):
    """A pristine, type-correct plan: base BAT through ``steps``."""
    program = MILProgram()
    source = Var(base)
    for kind, lo, hi in steps:
        source = _emit_step(program, kind, source, lo, hi)
    program.emit("aggr_all", [source], fn="count", target="out")
    return program


def _executes(program):
    try:
        MILInterpreter(KERNEL).run(program)
        return True
    except ReproError:
        return False


def _accepts(program):
    return verify_program(program, catalog=STATS).ok


def _assert_agreement(program):
    accepted = _accepts(program)
    executed = _executes(program)
    assert accepted == executed, \
        "verifier %s but interpreter %s:\n%s" % (
            "accepted" if accepted else "rejected",
            "succeeded" if executed else "raised",
            "\n".join(stmt.render() for stmt in program))


steps_strategy = st.lists(
    st.tuples(st.sampled_from(STEP_KINDS),
              st.integers(min_value=0, max_value=9),
              st.integers(min_value=0, max_value=9)),
    min_size=1, max_size=5)


@given(st.sampled_from(INT_BATS), steps_strategy)
@settings(**SETTINGS)
def test_pristine_plans_are_never_falsely_rejected(base, steps):
    program = _build_plan(base, steps)
    assert _accepts(program), \
        "\n".join(f.render() for f in
                  verify_program(program, catalog=STATS).findings)
    assert _executes(program)


@given(st.sampled_from(INT_BATS), steps_strategy, st.data())
@settings(**SETTINGS)
def test_ref_rename_agreement(base, steps, data):
    program = _build_plan(base, steps)
    stmt = data.draw(st.sampled_from(program.stmts))
    positions = [i for i, arg in enumerate(stmt.args)
                 if isinstance(arg, Var)]
    stmt.args[data.draw(st.sampled_from(positions))] = \
        Var("fuzz_undefined_name")
    _assert_agreement(program)


@given(st.sampled_from(INT_BATS), steps_strategy, st.data())
@settings(**SETTINGS)
def test_instruction_reorder_agreement(base, steps, data):
    program = _build_plan(base, steps)
    stmts = program.stmts
    src = data.draw(st.integers(min_value=0,
                                max_value=len(stmts) - 1))
    dst = data.draw(st.integers(min_value=0,
                                max_value=len(stmts) - 1))
    stmts.insert(dst, stmts.pop(src))
    _assert_agreement(program)


@given(st.sampled_from(INT_BATS), steps_strategy, st.data())
@settings(**SETTINGS)
def test_type_swap_agreement(base, steps, data):
    program = _build_plan(base, steps)
    stmt = data.draw(st.sampled_from(program.stmts))
    positions = [i for i, arg in enumerate(stmt.args)
                 if isinstance(arg, Var)]
    swapped = data.draw(st.sampled_from(STR_BATS + KEYED_BATS))
    stmt.args[data.draw(st.sampled_from(positions))] = Var(swapped)
    _assert_agreement(program)


def test_corrupted_plans_are_actually_rejected_sometimes():
    """Guard against a vacuous agreement property: the canonical
    corruption really is rejected (typed) and really does raise."""
    program = _build_plan("Fuzz_qty", [("join_rates", 0, 0)])
    program.stmts[0].args[0] = Var("Fuzz_names")   # string tail
    assert not _accepts(program)
    assert not _executes(program)
    with pytest.raises(ReproError):
        verify_program(program, catalog=STATS).raise_for_errors()
