"""Multi-process dispatcher: fan-out equality, shipping, the warm pool.

Workers reopen one saved TPC-D db_dir (zero-copy mmap, pinned catalog
generation, page-fault simulation only for tasks that ask for it) and
the parent asserts their shipped sha1 checksums against serial
execution: each query is submitted as its SQL text and diffed against
the hand-written driver, each MIL program against
:func:`run_program_serial`.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro import faults
from repro.errors import (MILError, ProtocolError, QueryTimeoutError,
                          StaleCatalogError, WorkerCrashedError)
from repro.monet import (MILProgram, MonetKernel, MultiprocExecutor,
                         Var, result_checksum, run_program_serial,
                         ship_value)
from repro.monet import buffer
from repro.monet.multiproc import WIDE_BODY_BYTES, register_task_kind
from repro.server.protocol import encode_binary_message
from repro.sql import execute_sql
from repro.sql.suite import sql_text
from repro.tpcd import QUERIES, load_tpcd, open_tpcd

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="multi-process tests need the fork start "
                          "method (spawn re-imports per worker, too "
                          "slow for tier-1)")

#: a representative query slice: scan+group (1), join chain (3),
#: scalar aggregate (6), multiplex chain (13)
QUERY_SLICE = (1, 3, 6, 13)

#: the module registering the ``sql`` task kind in every worker
SQL_TASKS = ("repro.server.tasks",)


def _sql_task(number, key=None):
    return ("sql", key or "q%d" % number, sql_text(number))


def _run_sql(pool, numbers, buffer_stats=False):
    """Submit each query's SQL text; ``{number: TaskOutcome}``."""
    pendings = {number: pool.submit(_sql_task(number),
                                    buffer_stats=buffer_stats)
                for number in numbers}
    return {number: pending.result(timeout=120)
            for number, pending in pendings.items()}


def _sql_cold_faults(db, number):
    """In-process cold-start simulated faults of one query's SQL text."""
    manager = buffer.BufferManager()
    with buffer.use(manager):
        execute_sql(db, sql_text(number))
    return manager.faults


@pytest.fixture(scope="module")
def db_dir(tiny_tpcd, tmp_path_factory):
    path = tmp_path_factory.mktemp("mpdb") / "db"
    load_tpcd(tiny_tpcd, db_dir=path)
    return path


@pytest.fixture(scope="module")
def executor(db_dir):
    with MultiprocExecutor(db_dir, procs=2,
                           task_modules=SQL_TASKS) as pool:
        yield pool


@pytest.fixture(scope="module")
def serial_db(db_dir):
    db, report = open_tpcd(db_dir)
    assert report.warm
    return db


# ----------------------------------------------------------------------
# query fan-out
# ----------------------------------------------------------------------
def test_queries_match_serial_checksums(executor, serial_db):
    outcomes = _run_sql(executor, sorted(QUERIES))
    assert sorted(outcomes) == sorted(QUERIES)
    for number in sorted(QUERIES):
        serial = result_checksum(
            ship_value(QUERIES[number].run(serial_db)))
        assert outcomes[number].checksum == serial, "Q%d" % number


def test_outcomes_report_worker_provenance(executor, db_dir):
    import os
    outcomes = _run_sql(executor, (6, 12))
    for outcome in outcomes.values():
        assert outcome.pid != os.getpid()          # really off-process
        assert outcome.generation == executor.generation == 1
        assert outcome.elapsed_ms >= 0.0
        # nobody asked for a fault simulation, so none ran
        assert outcome.stats is None


def test_inline_payload_roundtrip(executor, serial_db):
    outcome = _run_sql(executor, (6,))[6]
    shipped = outcome.value()
    assert shipped["kind"] == "value"
    assert shipped["value"] == pytest.approx(QUERIES[6].run(serial_db))
    assert result_checksum(shipped) == outcome.checksum


# ----------------------------------------------------------------------
# per-task fault simulation: cold, history-free, and leak-free
# ----------------------------------------------------------------------
def _probe_worker(ctx, task):
    """Test task kind: what buffer manager does this worker hold, and
    how big is the process?  (Forked workers inherit the
    registration.)"""
    with open("/proc/self/status") as handle:
        rss_kb = next(int(line.split()[1]) for line in handle
                      if line.startswith("VmRSS:"))
    manager = buffer.get_manager()
    return ship_value({"disabled": manager is buffer._DISABLED,
                       "resident": manager.resident_pages(),
                       "rss_kb": rss_kb}), None


register_task_kind("probe_worker", _probe_worker)


def _unencodable(ctx, task):
    """Test task kind: a result the wire codec has no form for."""
    return ship_value({1, 2, 3}), None


register_task_kind("unencodable", _unencodable)


def sized_value(size):
    """A canonical value whose encoded body is exactly ``size`` bytes."""
    count = size
    for _attempt in range(8):
        value = {"kind": "value",
                 "value": np.arange(count, dtype=np.uint8)}
        excess = len(encode_binary_message(value)) - size
        if not excess:
            return value
        count -= excess
    raise AssertionError("no value encodes to %d bytes" % size)


def _sized(ctx, task):
    """Test task kind: a result whose body is ``task[2]`` bytes."""
    return sized_value(task[2]), None


register_task_kind("sized", _sized)


def _unhashable(ctx, task):
    """Test task kind: a wide result the codec carries and the
    checksum refuses (a dict whose keys do not sort)."""
    return {"kind": "value",
            "value": {1: np.zeros(WIDE_BODY_BYTES, dtype=np.uint8),
                      "a": 0}}, None


register_task_kind("unhashable", _unhashable)


def test_accounted_faults_do_not_depend_on_worker_history(db_dir):
    """Regression: the worker's one long-lived manager was never
    evicted, so a query's reported faults were whatever its
    predecessors had left non-resident (0 on the second run)."""
    db, _report = open_tpcd(db_dir)
    expected = {number: _sql_cold_faults(db, number)
                for number in QUERY_SLICE}     # in-process, cold
    assert all(expected.values())
    with MultiprocExecutor(db_dir, procs=1,
                           task_modules=SQL_TASKS) as pool:
        for order in (QUERY_SLICE, QUERY_SLICE[::-1], QUERY_SLICE):
            _run_sql(pool, order)                  # unaccounted noise
            outcomes = _run_sql(pool, order, buffer_stats=True)
            assert {number: outcome.stats.faults
                    for number, outcome in outcomes.items()} == expected


def test_worker_buffer_state_and_rss_stay_flat_over_200_tasks(db_dir):
    """Regression: every task used to add its intermediates' pages to
    the worker's resident set for good (~640 keys per Q6)."""
    def probe(pool):
        outcome = pool.submit(("probe_worker", "probe")).result(60)
        return outcome.value()["value"]

    with MultiprocExecutor(db_dir, procs=1,
                           task_modules=SQL_TASKS) as pool:
        for round_ in range(10):       # caches + allocator arenas warm
            _run_sql(pool, QUERY_SLICE, buffer_stats=round_ % 2 == 1)
        before = probe(pool)
        for round_ in range(50):
            _run_sql(pool, QUERY_SLICE, buffer_stats=round_ % 2 == 1)
        after = probe(pool)
    assert before["disabled"] and after["disabled"]
    assert before["resident"] == after["resident"] == 0
    assert after["rss_kb"] - before["rss_kb"] < 8 * 1024, (before, after)


def test_run_queries_accepts_any_iterable(executor):
    """Tasks queued from a one-shot iterator all run, and each
    pending task resolves to the outcome of its own task."""
    pendings = [executor.submit(task)
                for task in iter([_sql_task(6), _sql_task(12)])]
    assert [pending.result(timeout=120).key
            for pending in pendings] == ["q6", "q12"]


# ----------------------------------------------------------------------
# MIL programs
# ----------------------------------------------------------------------
def _two_chain_program():
    program = MILProgram()
    selected = program.emit("select", [Var("Item_quantity"), 10, 40])
    joined = program.emit("join", [selected,
                                   Var("Item_extendedprice")])
    program.emit("aggr_all", [joined], fn="sum", target="total")
    program.emit("group", [Var("Item_order")], target="groups")
    return program


def test_run_programs_match_serial(executor, db_dir):
    program = _two_chain_program()
    kernel = MonetKernel.open(db_dir)
    env, checksum = run_program_serial(kernel, program,
                                       ["total", "groups"])
    outcome = executor.submit(
        ("mil", "p0", program, ["total", "groups"])).result(timeout=60)
    assert outcome.checksum == checksum
    assert outcome.value().keys() == env.keys()


# ----------------------------------------------------------------------
# generation pinning across the fleet
# ----------------------------------------------------------------------
def test_workers_reject_mismatched_generation(db_dir):
    with pytest.raises(StaleCatalogError):
        with MultiprocExecutor(db_dir, procs=1, expected_generation=99,
                               task_modules=SQL_TASKS) as pool:
            _run_sql(pool, (6,))


def test_open_tpcd_pin_binds_preopened_kernels(db_dir):
    """The generation pin must hold even when a cached kernel is
    wrapped instead of freshly opened."""
    kernel = MonetKernel.open(db_dir)
    with pytest.raises(StaleCatalogError):
        open_tpcd(db_dir, expected_generation=kernel.generation + 1,
                  kernel=kernel)
    db, _report = open_tpcd(db_dir,
                            expected_generation=kernel.generation,
                            kernel=kernel)
    assert db.kernel is kernel


# ----------------------------------------------------------------------
# warm pool: async submit, crash handling, timeouts, task registry
# ----------------------------------------------------------------------
def test_submit_returns_pending_task(executor, serial_db):
    pending = executor.submit(_sql_task(6, "qasync"))
    outcome = pending.result(timeout=60)
    assert pending.done()
    serial = result_checksum(ship_value(QUERIES[6].run(serial_db)))
    assert outcome.checksum == serial
    assert pending.pid in executor.worker_pids()


def test_unknown_task_kind_raises_without_killing_pool(executor):
    with pytest.raises(MILError):
        executor.submit(("nonsense", "x")).result(timeout=60)
    # the worker survived the failing task
    assert _run_sql(executor, (6,))[6].checksum


def test_unencodable_result_is_typed_and_worker_survives(executor):
    """The worker encodes every result once; a value the codec cannot
    carry fails there with the codec's typed error, and the worker
    goes on serving."""
    pids = executor.worker_pids()
    crashes = executor.crashes
    for _ in range(executor.procs):
        with pytest.raises(ProtocolError, match="cannot encode"):
            executor.submit(("unencodable", "u")).result(timeout=60)
    assert _run_sql(executor, (6,))[6].checksum
    assert executor.worker_pids() == pids
    assert executor.crashes == crashes


def test_idle_worker_death_respawns_transparently(db_dir):
    with MultiprocExecutor(db_dir, procs=1,
                           task_modules=SQL_TASKS) as pool:
        _run_sql(pool, (6,))                     # worker warm
        [pid] = pool.worker_pids()
        os.kill(pid, signal.SIGKILL)
        pool._workers[0].process.join(timeout=10)  # observe the death
        # the task never started on the dead worker, so it is retried
        # on the replacement instead of surfacing an error
        outcome = _run_sql(pool, (6,))[6]
        assert outcome.pid != pid
        assert pool.respawns == 1
        assert pool.crashes == 0


def test_midtask_crash_surfaces_typed_error_and_respawns(db_dir):
    # every worker parks its second task for a minute before running
    # it, so the kill below lands mid-task by construction instead of
    # racing a query that may already have answered
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="delay", delay_s=60.0, skip=1)
    with MultiprocExecutor(db_dir, procs=1, fault_plan=plan,
                           task_modules=SQL_TASKS) as pool:
        _run_sql(pool, (6,))                     # catalog mapped
        [pid] = pool.worker_pids()
        pending = pool.submit(_sql_task(13, "qcrash"))
        assert pending.dispatched.wait(30)
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashedError):
            pending.result(timeout=60)
        assert pool.crashes == 1
        # the pool keeps serving through the respawned worker
        outcome = _run_sql(pool, (6,))[6]
        assert outcome.pid != pid


def test_timeout_kills_overdue_worker_and_recovers(db_dir, serial_db):
    # every worker parks its second task, so the task is overdue by
    # construction — a 0.1 ms budget alone loses the race whenever the
    # pump thread is descheduled for longer than the query takes
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="delay", delay_s=60.0, skip=1)
    with MultiprocExecutor(db_dir, procs=1, fault_plan=plan,
                           task_modules=SQL_TASKS) as pool:
        _run_sql(pool, (6,))
        [pid] = pool.worker_pids()
        with pytest.raises(QueryTimeoutError):
            pool.submit(_sql_task(13, "qslow"),
                        timeout=0.2).result(timeout=60)
        assert pool.timeouts == 1
        assert pool.worker_pids() != [pid]
        outcome = _run_sql(pool, (13,))[13]
        serial = result_checksum(ship_value(QUERIES[13].run(serial_db)))
        assert outcome.checksum == serial


def test_registered_moa_task_kind_with_plan_cache(db_dir, serial_db):
    text = QUERIES[1].texts()[0]
    expected = result_checksum(
        ship_value(serial_db.query(text).rows))
    with MultiprocExecutor(
            db_dir, procs=1,
            task_modules=("repro.server.tasks",)) as pool:
        first = pool.submit(("moa", "m1", text)).result(timeout=120)
        second = pool.submit(("moa", "m2", text)).result(timeout=120)
    assert first.checksum == expected == second.checksum
    assert first.extra["plan_cached"] is False
    assert second.extra["plan_cached"] is True
    assert second.extra["plan_cache"]["hits"] == 1
    assert second.extra["plan_cache"]["misses"] == 1


# ----------------------------------------------------------------------
# checksum canon
# ----------------------------------------------------------------------
def test_result_checksum_distinguishes_types():
    import numpy as np
    from repro.moa.values import Ref, Row
    values = [None, True, 1, 1.0, "1", b"1",
              np.asarray([1, 2]), np.asarray([1.0, 2.0]),
              [1, 2], (1, (2,)), {"a": 1}, {"a": 2},
              Row([("a", 1)]), Row([("b", 1)]),
              Ref("Order", 1), Ref("Order", 2)]
    digests = [result_checksum(value) for value in values]
    assert len(set(digests)) == len(digests)
    # and is stable across calls (the multi-process contract)
    assert digests == [result_checksum(value) for value in values]


def test_result_checksum_rejects_unknown_types():
    with pytest.raises(TypeError):
        result_checksum(object())


def test_result_checksum_treats_numpy_bool_as_bool():
    """Regression: ``np.bool_`` matched neither the bool nor the
    integer branch and raised TypeError, although the wire codec
    ships it as a plain bool."""
    import numpy as np
    assert result_checksum(np.bool_(True)) == result_checksum(True)
    assert result_checksum(np.bool_(False)) == result_checksum(False)
    assert result_checksum([np.bool_(True), 1]) \
        != result_checksum([np.bool_(False), 1])


def test_result_checksum_has_one_nan_in_arrays_too():
    """Regression: two NaN payloads hashed identically as scalars
    (``float.hex`` says 'nan' for both) but differently inside an
    array, whose raw bytes went into the digest."""
    import struct
    import numpy as np
    odd = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000ABC))[0]
    assert result_checksum(odd) == result_checksum(float("nan"))
    quiet = np.array([1.0, float("nan")])
    noisy = np.array([1.0, odd])
    assert quiet.tobytes() != noisy.tobytes()
    assert result_checksum(noisy) == result_checksum(quiet)
    assert result_checksum(noisy.astype(np.float32)) \
        == result_checksum(quiet.astype(np.float32))
    # still a digest of the values otherwise
    assert result_checksum(np.array([1.0, 2.0])) \
        != result_checksum(quiet)


#: digests of arrays fed to :func:`result_checksum`, recorded while the
#: array branch still hashed a ``tobytes()`` copy of each array; the
#: zero-copy feed must reproduce them byte for byte
ARRAY_DIGESTS = {
    "bool": "639dd5d26bf99bceaeaf28b35fb2a602bd37d015",
    "int32": "763bc86aed6fd0037467541c16de626efcb78530",
    "int64": "5ed96cb9fed7b8099b9020224684f7c16462d29a",
    "int64 strided": "1761fa539a0260ca9fb29b66ba8a50c1d037dc2a",
    "int32 big-endian": "9252fb935a9043662bd342d7c88e19c5c9c7eeb3",
    "float64": "bb755abb0adff49bccf387f34d2deb25f72b569a",
    "float64 nan": "b6462ed7cd2175d6c34c190207d15d08064404b5",
    "float32 nan": "3717c1830f17d2bebf030d9e3096e515d3a82ee0",
    "float64 0-d": "bda39a08192139ce1b5a36b496295e0ac40f3e0d",
    "float64 empty": "769867ff591a11333e5e592f3ee9fa2c33932d4d",
}


def test_array_digests_equal_the_copying_encoding():
    """The array branch feeds sha1 the array's own contiguous buffer;
    the digests are those of the ``tobytes()`` copy it replaced, for
    every dtype a result carries (bools, ints of either byte order,
    floats with NaN payloads, strided, 0-d and empty arrays)."""
    import hashlib
    import struct
    import numpy as np
    odd_nan = np.frombuffer(struct.pack("<Q", 0x7FF8000000000123),
                            dtype="<f8")[0]
    values = {
        "bool": np.array([True, False, True]),
        "int32": np.arange(-3, 4, dtype=np.int32),
        "int64": np.array([0, -1, 2 ** 40], dtype=np.int64),
        "int64 strided": np.arange(12, dtype=np.int64).reshape(3, 4)[:, ::2],
        "int32 big-endian": np.arange(5, dtype=">i4"),
        "float64": np.array([0.5, -0.0, 1e300]),
        "float64 nan": np.array([1.0, np.nan, odd_nan, -np.nan]),
        "float32 nan": np.array([np.nan, 2.5], dtype=np.float32),
        "float64 0-d": np.array(3.25),
        "float64 empty": np.empty(0),
    }
    assert {name: result_checksum(value)
            for name, value in values.items()} == ARRAY_DIGESTS
    # the recorded encoding: tag, dtype, shape, then a copy of the bytes
    value = values["int64 strided"]
    copied = hashlib.sha1(b"A" + value.dtype.str.encode()
                          + str(value.shape).encode() + b":"
                          + np.ascontiguousarray(value).tobytes())
    assert copied.hexdigest() == ARRAY_DIGESTS["int64 strided"]


# ----------------------------------------------------------------------
# wide bodies: raw on the pipe
# ----------------------------------------------------------------------
@pytest.mark.parametrize("offset", [-1, 0, 4096],
                         ids=["below", "at", "above"])
def test_bodies_around_the_cut_off_equal_the_encoder(executor, offset):
    size = WIDE_BODY_BYTES + offset
    canonical = sized_value(size)
    outcome = executor.submit(("sized", "s", size)).result(timeout=60)
    assert len(outcome.body) == size
    assert bytes(outcome.body) == encode_binary_message(canonical)
    assert outcome.checksum == result_checksum(canonical)
    # from the cut-off up the body skipped pickle and landed in one
    # read-only buffer; below it, it arrived inside the outcome
    wide = size >= WIDE_BODY_BYTES
    assert isinstance(outcome.body, memoryview if wide else bytes)
    if wide:
        assert outcome.body.readonly
    array = outcome.value()["value"]
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 1


def test_checksum_error_on_a_wide_body_is_typed_and_worker_survives(
        db_dir):
    with MultiprocExecutor(db_dir, procs=1,
                           task_modules=SQL_TASKS) as pool:
        size = WIDE_BODY_BYTES + 8
        assert pool.submit(("sized", "s0", size)).result(timeout=60)
        [pid] = pool.worker_pids()
        with pytest.raises(TypeError):
            pool.submit(("unhashable", "u")).result(timeout=60)
        # the checksum runs before anything ships, so no body went
        # out and the pipe stayed in step: the same worker serves the
        # next wide body
        outcome = pool.submit(("sized", "s1", size)).result(timeout=60)
        assert outcome.checksum == result_checksum(sized_value(size))
        assert pool.worker_pids() == [pid]
        assert pool.crashes == 0
