"""The query service: warm pools, admission control, caches, stats.

A :class:`QueryService` owns everything between the wire protocol and
the multi-process dispatcher:

* **per-generation warm worker pools** — each
  :class:`~repro.monet.multiproc.MultiprocExecutor` is created pinned
  to one catalog generation and kept resident; a session acquires the
  pool matching the generation on disk *when the session starts*, so
  a writer bumping the catalog mid-session never changes what an open
  session sees (new sessions get a new pool at the new generation,
  old pools retire once their last pinned session ends); a save that
  lands while a new session's pool starts, before the session's
  first answer, re-pins that session once to the newer generation;
* **admission control** — at most ``max_inflight`` requests execute
  at once, at most ``max_queue`` wait; beyond that (or when the queue
  wait exceeds the request's timeout budget) the request is refused
  with a typed :class:`~repro.errors.ServerOverloadedError`;
* **plan verification** — every plan kind (``moa``, ``sql``, ``mil``)
  is **statically verified**, and budget-checked against a configured
  ``plan_budget``, in the worker that would run it, before any MIL
  statement executes (see :mod:`repro.server.tasks`); the parent
  derives no catalog stats and only counts the typed rejections;
* **per-query timeout** — forwarded to the dispatcher, which kills
  and respawns the worker running an overdue query
  (:class:`~repro.errors.QueryTimeoutError`);
* **degraded mode** — a request whose worker crashed mid-query is
  resubmitted once to the respawned worker; a second crash answers a
  typed :class:`~repro.errors.ServerOverloadedError`;
* **caches** — the workers' plan caches (see
  :mod:`repro.server.tasks`) report their counters through every
  outcome, and an optional parent-side **result cache** short-circuits
  repeated identical requests against the same generation;
* **opaque payloads** — a result arrives from the worker already
  encoded (:attr:`~repro.monet.multiproc.TaskOutcome.body`); the
  service caches and returns those bytes as they are, so the parent
  never decodes or re-encodes a payload;
* **stats** — :meth:`QueryService.stats` aggregates request counters,
  latency percentiles over a sliding window, cache hit rates, the
  merged :class:`~repro.monet.buffer.BufferStats` of the requests
  that asked for them, the workers' real minor page faults summed
  over every executed request (``counters["worker_minor_faults"]``),
  and per-pool health (sessions, pids, respawns/crashes/timeouts);
* **pay-per-use fault simulation** — workers simulate no page faults
  unless a request carries ``"buffer_stats": true``; that request
  runs under a fresh, cold buffer manager, bypasses the result cache
  (a cached answer executes nothing to account), and only its reply
  carries ``faults``.

The service is transport-agnostic: :mod:`repro.server.server` drives
it from sockets, the e2e benchmark's ladder drives it in-process.
"""

import json
import math
import threading
import time
from collections import deque

from .. import faults
from ..bench.harness import percentiles
from ..errors import (CatalogChangedError, PlanVerificationError,
                      ProtocolError, ServerOverloadedError,
                      WorkerCrashedError)
from ..monet.buffer import BufferStats
from ..monet.multiproc import DEFAULT_PROCS, MultiprocExecutor
from ..monet.storage import catalog_generation
from .cache import WeightedLRU
from .protocol import decode_program
from .tasks import DEFAULT_PLAN_CACHE_SIZE

#: Sliding-window size for latency percentiles.
LATENCY_WINDOW = 4096

#: Chaos injection point between a new session's generation read and
#: the fork of that generation's pool (see :mod:`repro.faults`): a
#: ``delay`` there opens the window a concurrent save must land in.
faults.declare("service.session.fork")


def _valid_timeout(timeout):
    """``None`` (no limit) or a finite number of seconds > 0 — a bool
    is not a number of seconds, and zero, negative or NaN would kill
    the worker or silently mean no limit."""
    if timeout is None:
        return True
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        return False
    return timeout > 0 and (isinstance(timeout, int)
                            or math.isfinite(timeout))


class _PoolEntry:
    __slots__ = ("executor", "sessions")

    def __init__(self, executor):
        self.executor = executor
        self.sessions = 0


class QueryService:
    """Executes wire requests against per-generation warm pools.

    Parameters
    ----------
    db_dir:
        The shared mmap catalog directory every worker reopens.
    procs:
        Worker processes per pool (per pinned generation).
    plan_cache_size:
        Per-worker LRU plan-cache capacity (``0`` disables).
    result_cache_bytes:
        Parent-side **byte-weighted** result-cache budget (``0`` —
        the default — disables it; entries are keyed by canonical
        request **and** generation, so a bump can never serve stale
        rows, and a retired generation's entries are dropped wholesale
        when its last pinned session ends).  A result weighs the byte
        length of its encoded body.
    max_inflight / max_queue:
        Admission control: concurrent executing requests / bounded
        wait queue beyond them.
    default_timeout:
        Per-query timeout in seconds applied when a request carries
        none (``None`` = unbounded).
    fault_plan:
        A :class:`~repro.faults.FaultPlan` shipped to every worker
        pool (chaos testing only; ``None`` = off).
    plan_budget:
        A :class:`~repro.analysis.verify.PlanBudget` shipped to every
        worker (``None`` = unlimited).  Each worker checks every plan
        kind against it after compilation, before execution: an
        over-budget plan answers a typed
        :class:`~repro.errors.PlanBudgetExceededError` (a malformed
        one a :class:`~repro.errors.PlanVerificationError`, budget or
        not) without ever executing a statement.
    """

    def __init__(self, db_dir, procs=DEFAULT_PROCS,
                 plan_cache_size=DEFAULT_PLAN_CACHE_SIZE,
                 result_cache_bytes=0,
                 max_inflight=8, max_queue=32,
                 default_timeout=None,
                 fault_plan=None, plan_budget=None):
        self.db_dir = db_dir
        self.procs = max(1, int(procs))
        self.plan_cache_size = int(plan_cache_size)
        self.max_inflight = max(1, int(max_inflight))
        self.max_queue = max(0, int(max_queue))
        self.default_timeout = default_timeout
        self._fault_plan = fault_plan
        self.plan_budget = plan_budget
        self.result_cache = WeightedLRU(result_cache_bytes)

        self._pool_lock = threading.Lock()
        #: serialises executor construction only — never held while
        #: answering stats/release, and pool spin-up (forking procs
        #: workers) happens under it *without* _pool_lock, so existing
        #: sessions stay fully responsive while a new generation warms
        self._create_lock = threading.Lock()
        self._pools = {}                    # generation -> _PoolEntry
        self._closed = False

        self._adm = threading.Condition()
        self._inflight = 0
        self._queued = 0

        self._stats_lock = threading.Lock()
        self._counters = {"requests": 0, "results": 0, "errors": 0,
                          "timeouts": 0, "overloads": 0,
                          "result_cache_hits": 0, "crash_retries": 0,
                          "quota_rejections": 0, "auth_failures": 0,
                          "drain_rejections": 0, "plan_rejections": 0,
                          "result_bytes": 0, "worker_minor_faults": 0,
                          "session_repins": 0}
        self._latencies = deque(maxlen=LATENCY_WINDOW)
        self._buffer = BufferStats()
        #: (generation, pid) -> latest cumulative plan-cache snapshot
        self._plan_stats = {}
        #: rollup of snapshots whose worker died or whose pool retired
        #: (keeps totals cumulative while _plan_stats stays bounded to
        #: live workers)
        self._plan_retired = {"hits": 0, "misses": 0, "evictions": 0,
                              "invalidations": 0}
        self._seq = 0
        self._started = time.time()

    # ------------------------------------------------------------------
    # pools + sessions
    # ------------------------------------------------------------------
    def _make_executor(self, generation):
        return MultiprocExecutor(
            self.db_dir, procs=self.procs,
            expected_generation=generation,
            task_modules=("repro.server.tasks",),
            worker_options={"plan_cache_size": self.plan_cache_size,
                            "plan_budget": self.plan_budget},
            fault_plan=self._fault_plan)

    def session(self):
        """Open a :class:`Session` pinned to the generation on disk."""
        generation = catalog_generation(self.db_dir)
        with self._pool_lock:
            if self._closed:
                raise ProtocolError("service is shut down")
            entry = self._pools.get(generation)
            if entry is not None:
                entry.sessions += 1
                return Session(self, generation, entry)
        with self._create_lock:
            # re-check under the creation lock: a concurrent connect
            # may have built this generation's pool already
            with self._pool_lock:
                if self._closed:
                    raise ProtocolError("service is shut down")
                entry = self._pools.get(generation)
                if entry is not None:
                    entry.sessions += 1
                    return Session(self, generation, entry)
            # a save landing from here on prunes the files this pool
            # would map; the session's first request re-pins it (see
            # _submit_pinned)
            faults.fire("service.session.fork")
            executor = self._make_executor(generation)      # slow: forks
            with self._pool_lock:
                if self._closed:
                    closed = True
                else:
                    closed = False
                    entry = _PoolEntry(executor)
                    entry.sessions = 1
                    self._pools[generation] = entry
        if closed:
            executor.close()
            raise ProtocolError("service is shut down")
        return Session(self, generation, entry)

    def _release(self, generation, entry):
        doomed = None
        with self._pool_lock:
            entry.sessions -= 1
            if entry.sessions <= 0 and not self._closed:
                try:
                    current = catalog_generation(self.db_dir)
                except Exception:
                    current = None              # unreadable: retire
                if current != generation:
                    doomed = self._pools.pop(generation, None)
        if doomed is not None:
            doomed.executor.close()
            # no session pins this generation any more and new sessions
            # open at the current one: its cached results can never be
            # requested again — return their bytes to the budget now
            self.result_cache.invalidate(
                lambda key: key[0] == generation)

    def pool_generations(self):
        with self._pool_lock:
            return sorted(self._pools)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _admit(self, timeout):
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._adm:
            if self._inflight >= self.max_inflight:
                if self._queued >= self.max_queue:
                    self._count("overloads")
                    raise ServerOverloadedError(
                        "at %d in-flight and %d queued requests"
                        % (self._inflight, self._queued))
                self._queued += 1
                try:
                    while self._inflight >= self.max_inflight:
                        remaining = None if deadline is None \
                            else deadline - time.monotonic()
                        if remaining is not None and remaining <= 0:
                            self._count("overloads")
                            raise ServerOverloadedError(
                                "queued past the %.3fs timeout budget"
                                % timeout)
                        self._adm.wait(remaining)
                finally:
                    self._queued -= 1
            self._inflight += 1

    def _leave(self):
        with self._adm:
            self._inflight -= 1
            self._adm.notify()

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    def _task_for(self, request):
        """(task tuple, cache-key string) for an executable request."""
        rtype = request.get("type")
        with self._stats_lock:
            self._seq += 1
            key = "s%d" % self._seq
        if rtype == "moa":
            text = request.get("query")
            if not isinstance(text, str) or not text.strip():
                raise ProtocolError("moa request needs a 'query' text")
            return ("moa", key, text), json.dumps(
                ["moa", text], sort_keys=True)
        if rtype == "sql":
            text = request.get("query")
            if not isinstance(text, str) or not text.strip():
                raise ProtocolError("sql request needs a 'query' text")
            return ("sql", key, text), json.dumps(
                ["sql", text], sort_keys=True)
        if rtype == "mil":
            program = decode_program(request.get("program"))
            fetch = request.get("fetch")
            if not isinstance(fetch, list) \
                    or not all(isinstance(name, str) for name in fetch):
                raise ProtocolError(
                    "mil request needs a 'fetch' list of names")
            return ("mil", key, program, list(fetch)), json.dumps(
                ["mil", request["program"], fetch], sort_keys=True)
        raise ProtocolError("unknown request type %r" % (rtype,))

    def execute(self, session, request):
        """One executable request -> one result response dict.

        The response's ``body`` is the encoded payload exactly as the
        worker produced it; every other field is the JSON header."""
        started = time.monotonic()
        self._count("requests")
        timeout = request.get("timeout", self.default_timeout)
        if not _valid_timeout(timeout):
            raise ProtocolError("'timeout' must be null or a finite "
                                "number of seconds > 0, got %r"
                                % (timeout,))
        buffer_stats = request.get("buffer_stats", False)
        if not isinstance(buffer_stats, bool):
            raise ProtocolError("'buffer_stats' must be a boolean")
        task, cache_key = self._task_for(request)
        full_key = (session.generation, cache_key)
        cached = None if buffer_stats \
            else self.result_cache.get(full_key)
        if cached is not None:
            self._count("result_cache_hits")
            header, body = cached
            response = dict(header, result_cached=True)
        else:
            self._admit(timeout)
            try:
                outcome = self._submit_pinned(session, task, timeout,
                                              buffer_stats)
            except PlanVerificationError:
                # the worker's verifier refused the plan before any
                # statement ran (the budget subclass included)
                self._count("plan_rejections")
                raise
            finally:
                self._leave()
            full_key = (session.generation, cache_key)
            extra = outcome.extra or {}
            with self._stats_lock:
                self._counters["worker_minor_faults"] += \
                    outcome.minor_faults
                if outcome.stats is not None:
                    self._buffer.merge(outcome.stats)
                if "plan_cache" in extra:
                    self._plan_stats[(outcome.generation,
                                      outcome.pid)] = extra["plan_cache"]
            body = outcome.body
            header = {
                "type": "result",
                "checksum": outcome.checksum,
                "elapsed_ms": round(outcome.elapsed_ms, 4),
                "generation": outcome.generation,
                "pid": outcome.pid,
                "plan_cached": extra.get("plan_cached"),
                "result_cached": False,
                "payload_bytes": len(body),
            }
            if outcome.stats is not None:
                # cold-start simulated faults of this very execution;
                # never cached, so no hit can replay a stale count
                header["faults"] = int(outcome.stats.faults)
            else:
                self.result_cache.put(full_key, (header, body),
                                      weight=len(body))
            response = dict(header)
        session.answered = True
        response["body"] = body
        response["service_ms"] = round(
            (time.monotonic() - started) * 1000.0, 4)
        # a hit is a served result too: requests stays the sum of
        # results + refusals + errors whether or not the cache ran
        self._count("results")
        self._count("result_bytes", len(body))
        self._record_latency(started)
        return response

    def _submit_pinned(self, session, task, timeout, buffer_stats):
        """:meth:`_submit_with_retry`, moving a session that has had no
        answer yet to the generation on disk once.

        A pool's workers map the catalog at their first task.  A save
        landing after :meth:`session` read the generation — while the
        pool forks, or before its workers' first task — prunes the
        files the workers would map, and they fail with
        ``CatalogChangedError``.  Nothing has been answered at the old
        generation then, so the session re-pins to the new one — as
        if it had connected after the save — and the request runs once
        more.  A session that already has an answer keeps its snapshot
        and gets the typed error.
        """
        try:
            return self._submit_with_retry(session, task, timeout,
                                           buffer_stats)
        except CatalogChangedError:
            if session.answered:
                raise
        self._count("session_repins")
        fresh = self.session()
        previous = (session.generation, session.entry)
        session.generation, session.entry = fresh.generation, fresh.entry
        fresh._released = True              # the session owns it now
        self._release(*previous)
        return self._submit_with_retry(session, task, timeout,
                                       buffer_stats)

    def _submit_with_retry(self, session, task, timeout, buffer_stats):
        """Submit, transparently resubmitting once over a worker crash.

        Every request here is an idempotent read against a pinned
        generation, so resubmitting a crashed one (the executor has
        already respawned the worker) is safe.  A second crash
        degrades the request to a typed
        :class:`~repro.errors.ServerOverloadedError` — the pool is
        respawning faster than it can serve.
        """
        def attempt():
            return session.entry.executor.submit(
                task, timeout=timeout, buffer_stats=buffer_stats).result()

        try:
            return attempt()
        except WorkerCrashedError:
            self._count("crash_retries")
        try:
            return attempt()
        except WorkerCrashedError as exc:
            self._count("overloads")
            raise ServerOverloadedError(
                "worker pool is respawning after repeated crashes "
                "(1 resubmit): %s" % exc) from exc

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _count(self, name, delta=1):
        with self._stats_lock:
            self._counters[name] = \
                self._counters.get(name, 0) + delta

    def count(self, name, delta=1):
        """Bump a named counter (the server's policy layer uses this
        for quota/auth/drain rejections)."""
        self._count(name, delta)

    def count_error(self, exc):
        """Classify a failed request for the counters."""
        from ..errors import QueryTimeoutError
        if isinstance(exc, QueryTimeoutError):
            self._count("timeouts")
        elif not isinstance(exc, ServerOverloadedError):
            self._count("errors")       # overloads counted at refusal

    def _record_latency(self, started):
        elapsed_ms = (time.monotonic() - started) * 1000.0
        with self._stats_lock:
            self._latencies.append(elapsed_ms)

    def stats(self):
        """The aggregate state the ``stats`` request exposes."""
        pools = {}
        live_workers = set()
        with self._pool_lock:
            for generation, entry in self._pools.items():
                executor = entry.executor
                pids = executor.worker_pids()
                live_workers.update((generation, pid) for pid in pids)
                pools[str(generation)] = {
                    "procs": executor.procs,
                    "sessions": entry.sessions,
                    "pids": pids,
                    "respawns": executor.respawns,
                    "crashes": executor.crashes,
                    "timeouts": executor.timeouts,
                }
        with self._stats_lock:
            counters = dict(self._counters)
            latencies = list(self._latencies)
            buffer_stats = self._buffer.as_dict()
            # prune snapshots of killed workers / retired pools into
            # the rollup: totals stay cumulative, the dict stays
            # bounded by the live fleet
            for key in [key for key in self._plan_stats
                        if key not in live_workers]:
                snapshot = self._plan_stats.pop(key)
                for name in self._plan_retired:
                    self._plan_retired[name] += snapshot.get(name, 0)
            plan = dict(self._plan_retired)
            plan["workers"] = len(self._plan_stats)
            for snapshot in self._plan_stats.values():
                for name in self._plan_retired:
                    plan[name] += snapshot.get(name, 0)
        lookups = plan["hits"] + plan["misses"]
        plan["hit_rate"] = round(plan["hits"] / lookups, 4) \
            if lookups else 0.0
        with self._adm:
            inflight, queued = self._inflight, self._queued
        latency = percentiles(latencies)
        latency["count"] = len(latencies)
        return {
            "counters": counters,
            "inflight": inflight,
            "queued": queued,
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "latency_ms": latency,
            "plan_cache": plan,
            "result_cache": self.result_cache.snapshot(),
            "buffer": buffer_stats,
            "pools": pools,
            "uptime_s": round(time.time() - self._started, 3),
        }

    # ------------------------------------------------------------------
    def close(self):
        """Shut down every pool (graceful: queued tasks finish)."""
        with self._pool_lock:
            self._closed = True
            entries = list(self._pools.values())
            self._pools.clear()
        for entry in entries:
            entry.executor.close()

    def __enter__(self):
        return self

    def __exit__(self, _exc_type, _exc, _tb):
        self.close()


class Session:
    """One client's pinned view of the catalog.

    Created by :meth:`QueryService.session` at connection time; holds
    the generation observed then and a reference to that generation's
    pool.  Writers bumping the catalog afterwards are invisible to
    this session — exactly the shared-catalog reader protocol of
    :mod:`repro.monet.storage`, lifted to the serving layer.
    """

    __slots__ = ("service", "generation", "entry", "answered",
                 "_released")

    def __init__(self, service, generation, entry):
        self.service = service
        self.generation = generation
        self.entry = entry
        #: True once a request of this session got a result
        self.answered = False
        self._released = False

    def execute(self, request):
        return self.service.execute(self, request)

    def close(self):
        if not self._released:
            self._released = True
            self.service._release(self.generation, self.entry)

    def __enter__(self):
        return self

    def __exit__(self, _exc_type, _exc, _tb):
        self.close()
