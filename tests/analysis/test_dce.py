"""Dead-code elimination: always on, liveness-driven, bit-identical.

Every plan the rewriter emits goes through the optimizer's pass
pipeline, whose second pass drops MIL statements the result
representation never observes (the verifier's liveness pass).  The
contract:

* **always on** — there is no switch: no compiled plan keeps a
  statement its result rep cannot observe;
* **differential** — with the passes, every TPC-D query (every phase)
  produces a bit-identical result checksum to the pass-less compile;
* **observable** — the pass records ``dce:removed`` in the optimizer
  stats, and really does remove something on at least one query
  (Q2 and Q15 carry dead staging statements).
"""

import inspect

from plan_oracle import passes_off
from repro.analysis.verify import live_statements
from repro.moa.rewriter import rep_root_names
from repro.monet.multiproc import result_checksum, ship_value
from repro.monet.optimizer import Optimizer, use
from repro.tpcd import QUERIES


def test_dce_is_always_on(tiny_tpcd_db):
    # the dispatch switch is the optimizer's only knob
    assert list(inspect.signature(Optimizer).parameters) == ["dynamic"]
    for number in sorted(QUERIES):
        for text in QUERIES[number].texts():
            _resolved, result = tiny_tpcd_db.compile(text)
            live = live_statements(result.program,
                                   roots=rep_root_names(result))
            assert len(live) == len(result.program), (number, text)


def test_dce_differential_all_tpcd_queries(tiny_tpcd_db):
    with passes_off():
        baseline = {number: result_checksum(
            ship_value(QUERIES[number].run(tiny_tpcd_db)))
            for number in sorted(QUERIES)}
    optimizer = Optimizer()
    with use(optimizer):
        optimized = {number: result_checksum(
            ship_value(QUERIES[number].run(tiny_tpcd_db)))
            for number in sorted(QUERIES)}
    assert optimized == baseline
    assert optimizer.stats["dce:removed"] >= 1, \
        "the DCE pass never removed anything: the differential is " \
        "vacuous"


def test_dce_shrinks_a_plan_and_it_still_verifies(tiny_tpcd_db):
    from repro.analysis.verify import (catalog_stats_from_kernel,
                                       verify_program)
    text = QUERIES[2].texts()[0]
    with passes_off():
        _resolved, plain = tiny_tpcd_db.compile(text)
    _resolved, shrunk = tiny_tpcd_db.compile(text)
    assert len(shrunk.program) < len(plain.program)
    stats = catalog_stats_from_kernel(tiny_tpcd_db.kernel)
    plan = verify_program(shrunk.program, catalog=stats)
    assert plan.findings == []
