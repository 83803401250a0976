"""The plan verifier: def-use, shadowing, budgets, catalog stats.

The acceptance contract of this suite:

* every plan the Moa rewriter emits for the TPC-D queries verifies
  with **zero findings** — not even warnings;
* the def-use analysis reproduces exactly the reference-resolution
  behaviour of ``MILInterpreter.resolve`` (env first, catalog second);
* assigning a catalog BAT's name is only a ``shadows-catalog``
  warning, whether or not an earlier statement read the catalog BAT:
  the interpreter writes its own environment, never the catalog;
* verifying a TPC-D plan costs at most 5 % of running it (floored at
  1 ms), because a served worker verifies every plan before it runs;
* budget violations raise :class:`~repro.errors.
  PlanBudgetExceededError`, everything else :class:`~repro.errors.
  PlanVerificationError`.
"""

import statistics
import time

import pytest

from repro.errors import (MILError, PlanBudgetExceededError,
                          PlanVerificationError)
from repro.monet import MILProgram, MonetKernel, Var
from repro.monet import bat_from_columns_values
from repro.analysis.verify import (PlanBudget, catalog_stats_from_kernel,
                                   check_program, live_statements,
                                   verify_program)
from repro.tpcd import QUERIES


@pytest.fixture(scope="module")
def kernel():
    k = MonetKernel()
    k.register("Ver_nums", bat_from_columns_values(
        "oid", list(range(6)), "int", [5, 3, 8, 1, 9, 2]))
    k.register("Ver_names", bat_from_columns_values(
        "oid", list(range(3)), "string", ["a", "b", "c"]))
    return k


@pytest.fixture(scope="module")
def stats(kernel):
    return catalog_stats_from_kernel(kernel)


def _codes(plan):
    return [finding.code for finding in plan.findings]


# ----------------------------------------------------------------------
# def-use
# ----------------------------------------------------------------------
def test_undefined_ref_is_an_error(stats):
    program = MILProgram()
    program.emit("mirror", [Var("no_such_bat")])
    plan = verify_program(program, catalog=stats)
    assert _codes(plan) == ["undefined-ref"]
    with pytest.raises(PlanVerificationError) as excinfo:
        plan.raise_for_errors()
    assert excinfo.value.findings == plan.errors


def test_use_before_def_is_distinguished(stats):
    program = MILProgram()
    program.emit("mirror", [Var("late")])
    program.emit("ident", [Var("Ver_nums")], target="late")
    plan = verify_program(program, catalog=stats)
    assert "use-before-def" in _codes(plan)


def test_without_catalog_unresolved_names_pass(kernel):
    program = MILProgram()
    program.emit("mirror", [Var("anything_goes")])
    assert verify_program(program, catalog=None).ok


def test_interpreter_agrees_on_undefined_refs(kernel, stats):
    program = MILProgram()
    program.emit("mirror", [Var("no_such_bat")])
    assert not verify_program(program, catalog=stats).ok
    from repro.monet.mil import MILInterpreter
    with pytest.raises(MILError):
        MILInterpreter(kernel).run(program)


# ----------------------------------------------------------------------
# hazards and liveness
# ----------------------------------------------------------------------
def test_shadowing_after_a_catalog_read_is_only_a_warning(stats):
    program = MILProgram()
    program.emit("mirror", [Var("Ver_nums")])
    program.emit("ident", [Var("Ver_names")], target="Ver_nums")
    plan = verify_program(program, catalog=stats)
    assert _codes(plan) == ["shadows-catalog"]
    assert plan.findings[0].index == 1
    assert plan.ok


def test_shadowing_without_prior_read_is_only_a_warning(stats):
    program = MILProgram()
    program.emit("mirror", [Var("Ver_names")], target="Ver_nums")
    plan = verify_program(program, catalog=stats)
    assert _codes(plan) == ["shadows-catalog"]
    assert plan.ok                       # warnings never reject


def test_dead_statement_warning_and_liveness(stats):
    program = MILProgram()
    kept = program.emit("mirror", [Var("Ver_nums")])
    program.emit("mirror", [Var("Ver_names")])      # dead under roots
    plan = verify_program(program, catalog=stats,
                          roots={kept.name})
    assert _codes(plan) == ["dead-instruction"]
    assert plan.ok
    assert live_statements(program, roots={kept.name}) == [0]
    assert live_statements(program) == [0, 1]


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------
def test_budget_rows_bytes_pages_each_reject(stats):
    program = MILProgram()
    program.emit("mirror", [Var("Ver_nums")])       # 6 rows, 72 bytes
    for budget in (PlanBudget(max_rows=5), PlanBudget(max_bytes=71),
                   PlanBudget(max_pages=0)):
        with pytest.raises(PlanBudgetExceededError):
            check_program(program, catalog=stats, budget=budget)
    assert check_program(program, catalog=stats,
                         budget=PlanBudget(max_rows=6)).ok


def test_underivable_bound_with_budget_is_conservative(stats):
    program = MILProgram()
    program.emit("mirror", [Var("mystery")])
    # no catalog: bounds underivable; with a budget that must reject
    plan = verify_program(program, catalog=None,
                          budget=PlanBudget(max_rows=100))
    assert [f.code for f in plan.errors] == ["budget"]
    with pytest.raises(PlanBudgetExceededError):
        plan.raise_for_errors()
    # without a budget the same plan is fine
    assert verify_program(program, catalog=None).ok


def test_budget_error_is_a_verification_error_subclass():
    assert issubclass(PlanBudgetExceededError, PlanVerificationError)
    assert issubclass(PlanVerificationError, MILError)


def test_budget_pickles_as_it_is():
    """A service ships its budget to workers as it is (pickled under
    the ``spawn`` start method)."""
    import pickle
    budget = pickle.loads(pickle.dumps(PlanBudget(max_rows=5,
                                                  max_pages=3)))
    assert (budget.max_rows, budget.max_bytes, budget.max_pages) \
        == (5, None, 3)


# ----------------------------------------------------------------------
# the acceptance bar: every TPC-D plan verifies finding-free
# ----------------------------------------------------------------------
def test_every_tpcd_plan_verifies_clean(tiny_tpcd_db):
    stats = catalog_stats_from_kernel(tiny_tpcd_db.kernel)
    checked = 0
    for number in sorted(QUERIES):
        for phase, text in enumerate(QUERIES[number].texts()):
            _resolved, result = tiny_tpcd_db.compile(text)
            plan = verify_program(result.program, catalog=stats)
            assert plan.findings == [], \
                "Q%d phase %d: %s" % (number, phase,
                                      [f.render()
                                       for f in plan.findings])
            assert plan.max_rows is not None \
                and plan.total_bytes is not None \
                and plan.total_pages is not None, \
                "Q%d phase %d: bounds must be derivable" \
                % (number, phase)
            checked += 1
    assert checked >= 15


#: Verification under this wall time always passes: at the test scale
#: 5 % of a query's runtime is below timer resolution, and admission
#: work under a millisecond is negligible whatever the query costs.
VERIFY_FLOOR_MS = 1.0


def test_verification_costs_at_most_5_percent_of_the_query(tiny_tpcd_db):
    stats = catalog_stats_from_kernel(tiny_tpcd_db.kernel)
    over = []
    for number in sorted(QUERIES):
        query = QUERIES[number]
        runs = []
        for _ in range(3):
            started = time.perf_counter()
            query.run(tiny_tpcd_db)
            runs.append((time.perf_counter() - started) * 1000.0)
        verify_ms = 0.0
        for text in query.texts():
            program = tiny_tpcd_db.compile(text)[1].program
            # best of three: the check is deterministic, so its fastest
            # run is its cost, not a collector pause inside it
            verify_ms += min(verify_program(program, catalog=stats)
                             .verify_ms for _ in range(3))
        budget = max(0.05 * statistics.median(runs), VERIFY_FLOOR_MS)
        if verify_ms > budget:
            over.append("Q%d: %.3f ms > %.3f ms"
                        % (number, verify_ms, budget))
    assert not over, over
