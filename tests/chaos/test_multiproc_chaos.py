"""Worker-fault sweep: kill/fail/stall workers at every task point.

The dispatcher's contract under injected worker faults: a fault may
cost the in-flight task a **typed** error (``WorkerCrashedError``,
``InjectedFaultError``, ``QueryTimeoutError``) and the worker its
process (the pool respawns it), but every result that does come back
is checksum-identical to serial execution, and the pool keeps
serving afterwards.

Fault plans ship to workers pickled with their hit counters reset,
so a ``times=1`` spec fires once *per worker process* — a respawned
worker re-arms.  The tests use ``skip`` to carve out deterministic
schedules (e.g. crash the second task of each worker, so a resubmit
landing on a fresh worker survives).
"""

import multiprocessing
import os
import time

import pytest

from repro import faults
from repro.errors import (InjectedFaultError, QueryTimeoutError,
                          WorkerCrashedError)
from repro.monet.multiproc import (MultiprocExecutor, _Lost, _Overdue,
                                   _WorkerHandle, result_checksum)

from chaos_utils import (HAVE_FORK, SQL_TASKS, sql_task, wide_task,
                         wide_value)

pytestmark = pytest.mark.skipif(
    not HAVE_FORK, reason="worker pools fork; spawn is too slow")

MULTIPROC_POINTS = ("multiproc.task.start", "multiproc.task.mid",
                    "multiproc.task.body_sent",
                    "multiproc.task.post_result")


def _pool(db_dir, plan):
    return MultiprocExecutor(db_dir, procs=1, fault_plan=plan,
                             task_modules=SQL_TASKS)


def _run(pool, number, key=None, timeout=None):
    return pool.submit(sql_task(number, key),
                       timeout=timeout).result(timeout=120)


def test_sweep_covers_every_declared_multiproc_point():
    assert tuple(faults.registered_points("multiproc.")) == \
        tuple(sorted(MULTIPROC_POINTS))


@pytest.mark.parametrize("point",
                         ["multiproc.task.start",
                          "multiproc.task.mid"])
def test_worker_crash_at_point_is_typed_and_recoverable(
        db_dir, serial_checksums, point):
    plan = faults.FaultPlan().arm(point, action="crash", skip=1)
    with _pool(db_dir, plan) as pool:
        first = _run(pool, 6)                      # hit 1: skipped
        assert first.checksum == serial_checksums[6]
        with pytest.raises(WorkerCrashedError):    # hit 2: crash
            _run(pool, 12, "q2")
        assert pool.crashes == 1
        # the respawned worker re-arms with skip=1, so the resubmit
        # (its hit 1) goes through — and matches the serial oracle
        retry = _run(pool, 12)
        assert retry.checksum == serial_checksums[12]
        assert pool.respawns >= 1


def test_worker_crash_after_reply_never_loses_the_result(
        db_dir, serial_checksums):
    # post_result fires after conn.send: the reply to *this* task is
    # already on the pipe when the worker dies, so the first submit
    # always answers.  A follow-up task can race into the dying
    # worker's buffer before the parent notices the death — at-most-
    # once semantics make that a typed WorkerCrashedError, never a
    # wrong answer or a hang — and a resubmit recovers.
    plan = faults.FaultPlan().arm("multiproc.task.post_result",
                                  action="crash", times=None)
    with _pool(db_dir, plan) as pool:
        first = _run(pool, 1)
        assert first.checksum == serial_checksums[1]
        pids = {first.pid}
        for number in (6, 12):
            for attempt in range(10):
                try:
                    outcome = _run(pool, number,
                                   "q%d.%d" % (number, attempt))
                except WorkerCrashedError:
                    continue           # raced a dying worker: retry
                break
            assert outcome.checksum == serial_checksums[number]
            pids.add(outcome.pid)
        # every answered task came from a fresh worker (its
        # predecessor died right after replying)
        assert len(pids) == 3
        assert pool.respawns >= 2


def test_worker_raise_at_point_is_typed_and_worker_survives(
        db_dir, serial_checksums):
    plan = faults.FaultPlan().arm("multiproc.task.start",
                                  action="raise", skip=1)
    with _pool(db_dir, plan) as pool:
        _run(pool, 6)                              # hit 1: skipped
        [pid] = pool.worker_pids()
        with pytest.raises(InjectedFaultError):    # hit 2: raises
            _run(pool, 12, "qf")
        # a raised fault is an ordinary failing task: same worker,
        # no crash, no respawn
        assert pool.worker_pids() == [pid]
        assert pool.crashes == 0
        retry = _run(pool, 12)
        assert retry.checksum == serial_checksums[12]


def test_delayed_reply_past_timeout_is_a_typed_timeout(
        db_dir, serial_checksums):
    plan = faults.FaultPlan().arm("multiproc.task.mid",
                                  action="delay", delay_s=1.5)
    with _pool(db_dir, plan) as pool:
        with pytest.raises(QueryTimeoutError):
            _run(pool, 6, "qslow", timeout=0.05)
        assert pool.timeouts == 1
        # the overdue worker was killed; its replacement re-arms the
        # 1.5s delay but an unbounded resubmit just waits it out
        outcome = _run(pool, 6)
        assert outcome.checksum == serial_checksums[6]


# ----------------------------------------------------------------------
# wide bodies: faults between the raw body and the outcome
# ----------------------------------------------------------------------
def test_worker_crash_between_body_and_outcome_is_typed_and_recoverable(
        db_dir):
    expected = result_checksum(wide_value())
    plan = faults.FaultPlan().arm("multiproc.task.body_sent",
                                  action="crash", skip=1)
    with _pool(db_dir, plan) as pool:
        first = pool.submit(wide_task("w1")).result(timeout=120)
        assert first.checksum == expected          # hit 1: skipped
        with pytest.raises(WorkerCrashedError):    # hit 2: crash
            pool.submit(wide_task("w2")).result(timeout=120)
        assert pool.crashes == 1
        retry = pool.submit(wide_task("w3")).result(timeout=120)
        assert retry.checksum == expected
        assert retry.pid != first.pid
        assert pool.respawns >= 1


def test_raise_between_body_and_outcome_drops_the_body(db_dir):
    expected = result_checksum(wide_value())
    plan = faults.FaultPlan().arm("multiproc.task.body_sent",
                                  action="raise")
    with _pool(db_dir, plan) as pool:
        with pytest.raises(InjectedFaultError):
            pool.submit(wide_task("w1")).result(timeout=120)
        [pid] = pool.worker_pids()
        outcome = pool.submit(wide_task("w2")).result(timeout=120)
        assert outcome.checksum == expected
        assert bytes(outcome.body) == bytes(
            pool.submit(wide_task("w3")).result(timeout=120).body)
        assert pool.worker_pids() == [pid]
        assert pool.crashes == 0


def test_delay_between_body_and_outcome_is_the_task_timeout(db_dir):
    expected = result_checksum(wide_value())
    plan = faults.FaultPlan().arm("multiproc.task.body_sent",
                                  action="delay", delay_s=3.0)
    with _pool(db_dir, plan) as pool:
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            pool.submit(wide_task("w1"), timeout=0.5).result(timeout=120)
        # the parent gave up at the deadline, not after the stall
        assert time.monotonic() - started < 2.5
        assert pool.timeouts == 1
        outcome = pool.submit(wide_task("w2")).result(timeout=120)
        assert outcome.checksum == expected


class _FakeProcess:
    pid = 0

    def __init__(self):
        self.alive = True

    def is_alive(self):
        return self.alive


def test_body_read_stalled_mid_body_ends_at_deadline_or_death():
    """A worker that stops writing halfway through its body: the
    parent's read ends at the task deadline, and at the worker's death
    even when the pipe never reports EOF (another process may hold a
    copy of the worker's end)."""
    parent_end, worker_end = multiprocessing.Pipe(duplex=True)
    worker = _WorkerHandle(_FakeProcess(), parent_end)
    try:
        os.write(worker_end.fileno(), b"x" * 1000)   # a quarter
        started = time.monotonic()
        with pytest.raises(_Overdue):
            MultiprocExecutor._read_body(worker, 4000, started + 0.2)
        assert 0.2 <= time.monotonic() - started < 2.0
        worker.process.alive = False
        with pytest.raises(_Lost):
            MultiprocExecutor._read_body(worker, 4000, None)
    finally:
        parent_end.close()
        worker_end.close()
