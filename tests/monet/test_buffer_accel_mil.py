"""Buffer manager (paging simulation), accelerators, MIL, kernel."""

import pytest

from repro.errors import CatalogError, MILError
from repro.monet import (BufferManager, MILInterpreter, MILProgram,
                         MonetKernel, Var, bat_from_pairs, compute_props,
                         use)
from repro.monet import operators as ops
from repro.monet.heap import FixedHeap


# ----------------------------------------------------------------------
# buffer manager
# ----------------------------------------------------------------------
def _persistent_heap(nbytes):
    import numpy as np
    heap = FixedHeap(np.zeros(nbytes // 4, dtype=np.int32), 4)
    heap.persistent = True
    return heap


def test_sequential_access_faults_once():
    manager = BufferManager(page_size=4096)
    heap = _persistent_heap(4096 * 10)
    manager.access_heap(heap)
    assert manager.faults == 10
    manager.access_heap(heap)          # warm: all hits
    assert manager.faults == 10
    assert manager.hits == 10


def test_cold_restart():
    manager = BufferManager(page_size=4096)
    heap = _persistent_heap(4096 * 4)
    manager.access_heap(heap)
    manager.evict_all()
    manager.access_heap(heap)
    assert manager.faults == 8


def test_positions_dedup_pages():
    manager = BufferManager(page_size=4096)
    heap = _persistent_heap(4096 * 100)
    # 1024 int32 entries per page; touch three entries on one page
    manager.access_positions(heap, [0, 1, 2], 4)
    assert manager.faults == 1
    manager.access_positions(heap, [5000], 4)
    assert manager.faults == 2


def test_transient_heaps_do_not_fault_on_first_touch():
    manager = BufferManager(page_size=4096)
    import numpy as np
    heap = FixedHeap(np.zeros(4096, dtype=np.int32), 4)   # transient
    manager.access_heap(heap)
    assert manager.faults == 0


def test_memory_budget_spills_and_refaults():
    manager = BufferManager(page_size=4096, memory_pages=4)
    import numpy as np
    transient = FixedHeap(np.zeros(8 * 1024, dtype=np.int32), 4)
    manager.access_heap(transient)       # 8 pages through a 4-page buffer
    assert manager.faults == 0
    assert manager.evictions >= 4
    # the early pages were spilled: touching them again faults now
    manager.access_positions(transient, [0], 4)
    assert manager.faults == 1


def test_evict_heap_spills_transients_regression():
    """Q1's "save intermediate results to disk": an explicitly evicted
    transient heap must *fault* when re-touched, exactly like pages
    evicted under memory pressure — it used to be dropped from the
    resident set without joining the spill set, making the re-read
    free."""
    import numpy as np
    manager = BufferManager(page_size=4096)
    transient = FixedHeap(np.zeros(4 * 1024, dtype=np.int32), 4)
    manager.access_heap(transient)       # fresh intermediate: writes
    assert manager.faults == 0
    manager.evict_heap(transient)
    assert manager.evictions == 4
    manager.access_heap(transient)       # re-read after the spill
    assert manager.faults == 4


def test_evict_heap_only_targets_one_heap():
    import numpy as np
    manager = BufferManager(page_size=4096)
    victim = FixedHeap(np.zeros(2 * 1024, dtype=np.int32), 4)
    bystander = _persistent_heap(4096 * 2)
    manager.access_heap(victim)
    manager.access_heap(bystander)
    faults = manager.faults
    manager.evict_heap(victim)
    manager.access_heap(bystander)       # still resident: hits only
    assert manager.faults == faults
    assert manager.hits == 2
    manager.access_heap(victim)          # spilled: faults back in
    assert manager.faults == faults + 2


def test_operator_attribution():
    manager = BufferManager(page_size=4096)
    heap = _persistent_heap(4096 * 3)
    with manager.operator("scan"):
        manager.access_heap(heap)
    assert manager.op_faults["scan"] == 3


def test_disabled_manager_is_noop():
    manager = BufferManager(enabled=False)
    heap = _persistent_heap(4096 * 3)
    manager.access_heap(heap)
    assert manager.faults == 0


def test_use_context_restores():
    from repro.monet.buffer import get_manager
    outer = get_manager()
    inner = BufferManager()
    with use(inner):
        assert get_manager() is inner
    assert get_manager() is outer


# ----------------------------------------------------------------------
# accelerators
# ----------------------------------------------------------------------
def test_datavector_semijoin_and_lookup_cache():
    kernel = MonetKernel()
    oids = list(range(100))
    kernel.bulk_load("T_a", "oid", oids, "int",
                     [i * 3 % 17 for i in oids], group="T")
    kernel.bulk_load("T_b", "oid", oids, "int",
                     [i * 5 % 13 for i in oids], group="T")
    kernel.create_extent("T", "T_a")
    kernel.create_datavectors("T", ["T_a", "T_b"])
    kernel.reorder_on_tail(["T_a", "T_b"])

    selection = bat_from_pairs("oid", "int", [(5, 0), (50, 0), (99, 0)])
    selection.props = compute_props(selection)

    out = ops.semijoin(kernel.get("T_a"), selection)
    from repro.monet.optimizer import get_optimizer
    assert get_optimizer().last["semijoin"] == "datavectorsemijoin"
    assert dict(out.to_pairs()) == {5: 15 % 17, 50: 150 % 17,
                                    99: 297 % 17}
    registry = kernel.registries["T"]
    computed = registry.lookups_computed
    ops.semijoin(kernel.get("T_b"), selection)
    assert registry.lookups_computed == computed       # cached
    assert registry.lookups_reused >= 1
    # invalidation forces a recompute
    registry.invalidate()
    ops.semijoin(kernel.get("T_b"), selection)
    assert registry.lookups_computed == computed + 1

    # regression: the LOOKUP lives on (and dies with) the right operand;
    # a registry keeping one per operand it ever saw grew a long-lived
    # server worker by ~100 KB per query
    def held(registry):
        return sum(len(value) for value in vars(registry).values()
                   if isinstance(value, (dict, list, set)))

    before = held(registry)
    for oid in range(20):
        fresh = bat_from_pairs("oid", "int", [(oid, 0)])
        fresh.props = compute_props(fresh)
        ops.semijoin(kernel.get("T_a"), fresh)
    assert registry.lookups_computed == computed + 21
    assert held(registry) == before


def test_datavector_results_synced_across_attributes():
    from repro.monet.properties import synced
    kernel = MonetKernel()
    oids = list(range(50))
    kernel.bulk_load("S_x", "oid", oids, "double",
                     [float(i) for i in oids], group="S")
    kernel.bulk_load("S_y", "oid", oids, "double",
                     [float(i * i) for i in oids], group="S")
    kernel.create_extent("S", "S_x")
    kernel.create_datavectors("S", ["S_x", "S_y"])
    kernel.reorder_on_tail(["S_x", "S_y"])
    selection = bat_from_pairs("oid", "int", [(7, 0), (13, 0)])
    selection.props = compute_props(selection)
    x = ops.semijoin(kernel.get("S_x"), selection)
    y = ops.semijoin(kernel.get("S_y"), selection)
    assert synced(x, y)
    product = ops.multiplex("*", x, y)
    assert dict(product.to_pairs()) == {7: 7.0 * 49.0, 13: 13.0 * 169.0}


# ----------------------------------------------------------------------
# kernel catalog
# ----------------------------------------------------------------------
def test_kernel_catalog():
    kernel = MonetKernel()
    kernel.bulk_load("X", "oid", [1, 2], "int", [10, 20])
    assert "X" in kernel
    assert kernel.get("X").to_pairs() == [(1, 10), (2, 20)]
    with pytest.raises(CatalogError):
        kernel.bulk_load("X", "oid", [1], "int", [1])
    with pytest.raises(CatalogError):
        kernel.get("missing")
    kernel.drop("X")
    assert "X" not in kernel


def test_bulk_load_sets_properties():
    kernel = MonetKernel()
    bat = kernel.bulk_load("Y", "oid", [1, 2, 3], "int", [5, 5, 7])
    assert bat.props.hkey and bat.props.hordered and bat.props.tordered
    assert not bat.props.tkey


def test_load_group_sync():
    from repro.monet.properties import synced
    kernel = MonetKernel()
    a = kernel.bulk_load("G_a", "oid", [1, 2], "int", [1, 2], group="G")
    b = kernel.bulk_load("G_b", "oid", [1, 2], "int", [3, 4], group="G")
    assert synced(a, b)


# ----------------------------------------------------------------------
# MIL
# ----------------------------------------------------------------------
def test_mil_program_and_interpreter():
    kernel = MonetKernel()
    kernel.bulk_load("Order_clerk", "oid", [100, 101, 102], "string",
                     ["a", "b", "a"])
    program = MILProgram()
    orders = program.emit("select", [Var("Order_clerk"), "a"],
                          target="orders")
    program.emit("mirror", [orders], target="m")
    program.emit("aggr_all", [orders], fn="count", target="n")
    interpreter = MILInterpreter(kernel)
    trace = interpreter.run(program, trace=True)
    assert interpreter.value("orders").to_pairs() == [(100, "a"),
                                                      (102, "a")]
    assert interpreter.value("n") == 2
    assert len(trace.rows) == 3
    assert "select" in trace.rows[0].text


def test_mil_render():
    program = MILProgram()
    program.emit("select", [Var("B"), "x"], target="t")
    program.emit("multiplex", [Var("t")], fn="year", target="y")
    program.emit("aggr", [Var("y")], fn="sum", target="s")
    text = program.render()
    assert 't := select(B, "x")' in text
    assert "y := [year](t)" in text
    assert "s := {sum}(y)" in text


def test_mil_unknown_op_and_unbound_var():
    kernel = MonetKernel()
    program = MILProgram()
    program.emit("warp", [Var("nope")])
    with pytest.raises(MILError):
        MILInterpreter(kernel).run(program)
    # ops MIL no longer has are unknown, even over bound BATs
    kernel.bulk_load("B", "oid", [1, 2], "int", [5, 5])
    for op, arity in (("sort", 1), ("difference", 2), ("intersection", 2),
                      ("kdiff", 2)):
        retired = MILProgram()
        retired.emit(op, [Var("B")] * arity)
        with pytest.raises(MILError, match="unknown MIL op %r" % op):
            MILInterpreter(kernel).run(retired)
    program2 = MILProgram()
    program2.emit("mirror", [Var("nope")])
    with pytest.raises(MILError):
        MILInterpreter(kernel).run(program2)


def test_mil_trace_format():
    kernel = MonetKernel()
    kernel.bulk_load("B", "oid", [1], "int", [1])
    program = MILProgram()
    program.emit("mirror", [Var("B")])
    trace = MILInterpreter(kernel).run(program, trace=True)
    table = trace.format_table()
    assert "MIL statement" in table
    assert "mirror(B)" in table
