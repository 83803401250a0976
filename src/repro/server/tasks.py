"""Worker-side task kinds of the query service.

This module is imported *inside every worker process* of the service's
warm pools (via ``MultiprocExecutor(task_modules=
("repro.server.tasks",))``), registering the ``moa`` and ``sql``
task kinds with the dispatcher's registry.  With the dispatcher's
built-in ``mil`` kind they are the only ways a query enters a worker
pool: text takes the paper's one path, Moa -> flattened MIL -> BATs.
Keeping it out of :mod:`repro.monet.multiproc` preserves the
layering: the monet layer never imports the moa/server layers at
module scope.

``moa`` tasks — ``("moa", key, query_text)`` — execute a textual MOA
query against the worker's pinned-generation TPC-D catalog through a
per-worker **LRU plan cache** (a
:class:`~repro.server.cache.WeightedLRU` whose entries weigh 1
each): query text -> compiled
:class:`~repro.moa.rewriter.RewriteResult` (flattened MIL program +
result rep).  A hit skips parse/typecheck/rewrite entirely and
re-executes the cached MIL plan
(:meth:`~repro.moa.session.MOADatabase.run_compiled`).  The key needs
no generation: a worker serves one pinned generation for life, and a
catalog bump brings a new pool with cold caches.

A miss verifies the compiled plan before it runs, like every kind
(see :mod:`repro.monet.multiproc`): against the catalog stats
:meth:`~repro.monet.multiproc.WorkerContext.catalog` derives once
from the worker's kernel, and against the service's ``plan_budget``
worker option, a :class:`~repro.analysis.verify.PlanBudget`.  A
rejected plan never enters the cache, so every resubmission is
re-checked (and re-rejected) the same way.

Each outcome ships ``extra = {"plan_cached": bool, "plan_cache":
{hits, misses, evictions, size, capacity, ...}}`` — the cumulative
counters of *this worker's* cache — which the parent-side service
aggregates into the ``stats`` response.  A set-of-tuples result leaves
here as the batch the materializer built: no ``Row`` exists in the
worker.
"""

from ..moa.rewriter import rewrite
from ..monet.multiproc import register_task_kind, ship_value
from .cache import WeightedLRU

#: Default per-worker plan-cache capacity (overridable through the
#: executor's ``worker_options={"plan_cache_size": N}``).
DEFAULT_PLAN_CACHE_SIZE = 64


def _plan_cache(ctx):
    cache = ctx.state.get("plan_cache")
    if cache is None:
        size = ctx.options.get("plan_cache_size",
                               DEFAULT_PLAN_CACHE_SIZE)
        cache = ctx.state["plan_cache"] = WeightedLRU(size)
    return cache


def _moa_warmup(ctx, task):
    ctx.db()
    ctx.catalog()


def _run_sql(ctx, task):
    """``sql`` tasks — ``("sql", key, sql_text)`` — run SQL text
    through the front-end (parse -> bind -> lower -> the same
    resolve/rewrite/verify/execute pipeline as ``moa``).  The worker's
    plan cache holds the :class:`~repro.sql.runtime.PreparedSql`
    (hole-free phases pre-compiled and budget-checked) under
    ``("sql", text)``, so the key space is disjoint from the ``moa``
    entries while sharing the same LRU capacity and counters."""
    _kind, _key, text = task
    db = ctx.db()
    cache = _plan_cache(ctx)
    key = ("sql", text)
    prepared = cache.get(key)
    hit = prepared is not None
    if not hit:
        from ..sql.runtime import prepare_sql
        # an over-budget or malformed query raises here, before the
        # put: a rejected SQL plan never enters the cache either
        prepared = prepare_sql(db, text,
                               budget=ctx.options.get("plan_budget"),
                               catalog=ctx.catalog())
        cache.put(key, prepared)
    value = prepared.run()
    extra = {"plan_cached": hit, "plan_cache": cache.snapshot()}
    return ship_value(value), extra


def _run_moa(ctx, task):
    _kind, _key, text = task
    db = ctx.db()
    cache = _plan_cache(ctx)
    key = ("moa", text)
    compiled = cache.get(key)
    hit = compiled is not None
    if not hit:
        # the rewriter's one verification also enforces the budget
        compiled = rewrite(db.prepare(text), db.flat,
                           catalog=ctx.catalog(),
                           budget=ctx.options.get("plan_budget"))
        cache.put(key, compiled)
    value = db.run_compiled(compiled)
    extra = {"plan_cached": hit, "plan_cache": cache.snapshot()}
    return ship_value(value), extra


register_task_kind("moa", _run_moa, warmup=_moa_warmup)
register_task_kind("sql", _run_sql, warmup=_moa_warmup)
