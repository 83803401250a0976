"""Worker-side task kinds of the query service.

This module is imported *inside every worker process* of the service's
warm pools (via ``MultiprocExecutor(task_modules=
("repro.server.tasks",))``), registering the ``moa`` and ``sql``
task kinds with the dispatcher's registry.  Keeping it out of
:mod:`repro.monet.multiproc` preserves the layering: the monet layer
never imports the moa/server layers at module scope.

``moa`` tasks — ``("moa", key, query_text)`` — execute a textual MOA
query against the worker's pinned-generation TPC-D catalog through a
per-worker **LRU plan cache**: query text + catalog generation ->
compiled :class:`~repro.moa.rewriter.RewriteResult` (flattened MIL
program + result rep).  A hit skips parse/typecheck/rewrite entirely
and re-executes the cached MIL plan
(:meth:`~repro.moa.session.MOADatabase.run_compiled`).  The key
carries the generation the worker is pinned to, so a pool serving a
newer snapshot can never resurrect a stale plan — invalidation on
generation bump falls out of the keying (new generation = new pool =
cold cache, and any shared cache keyed this way misses).

Each outcome ships ``extra = {"plan_cached": bool, "plan_cache":
{hits, misses, evictions, size, capacity}, "result_bytes": int}`` —
the cumulative counters of *this worker's* cache plus the canonical
byte weight of the result (what the wire/result-cache layers charge
for it; for a :class:`~repro.moa.values.RowBatch` the sum of its
column buffers, never a walk over rows) — which the parent-side
service aggregates into the ``stats`` response.  A set-of-tuples
result leaves here as the batch the materializer built: no ``Row``
exists in the worker.
"""

from ..analysis.verify import PlanBudget, catalog_stats_from_kernel
from ..moa.rewriter import rewrite
from ..monet.multiproc import register_task_kind, ship_value
from .cache import LRUCache
from .protocol import payload_nbytes

#: Default per-worker plan-cache capacity (overridable through the
#: executor's ``worker_options={"plan_cache_size": N}``).
DEFAULT_PLAN_CACHE_SIZE = 64


def _plan_cache(ctx):
    cache = ctx.state.get("plan_cache")
    if cache is None:
        size = ctx.options.get("plan_cache_size",
                               DEFAULT_PLAN_CACHE_SIZE)
        cache = ctx.state["plan_cache"] = LRUCache(size)
    return cache


def _plan_budget(ctx):
    """The service's admission budget, shipped as a plain dict."""
    options = ctx.options.get("plan_budget")
    if not options:
        return None
    return PlanBudget(max_rows=options.get("max_rows"),
                      max_bytes=options.get("max_bytes"),
                      max_pages=options.get("max_pages"))


def _catalog(ctx):
    """Catalog stats of the worker's database, derived once: a worker
    serves one pinned generation for its whole life."""
    catalog = ctx.state.get("catalog")
    if catalog is None:
        catalog = ctx.state["catalog"] = \
            catalog_stats_from_kernel(ctx.db().kernel)
    return catalog


def _moa_warmup(ctx, task):
    ctx.db()


def _run_sql(ctx, task):
    """``sql`` tasks — ``("sql", key, sql_text)`` — run SQL text
    through the front-end (parse -> bind -> lower -> the same
    resolve/rewrite/verify/execute pipeline as ``moa``).  The worker's
    plan cache holds the :class:`~repro.sql.runtime.PreparedSql`
    (hole-free phases pre-compiled and budget-checked) under
    ``("sql", text, generation)``, so the key space is disjoint from
    the ``moa`` entries while sharing the same LRU capacity and
    counters."""
    _kind, _key, text = task
    db = ctx.db()
    cache = _plan_cache(ctx)
    key = ("sql", text, ctx.generation)
    prepared = cache.get(key)
    hit = prepared is not None
    if not hit:
        from ..sql.runtime import prepare_sql
        # an over-budget or malformed query raises here, before the
        # put: a rejected SQL plan never enters the cache either
        prepared = prepare_sql(db, text, budget=_plan_budget(ctx),
                               catalog=_catalog(ctx))
        cache.put(key, prepared)
    value = prepared.run()
    extra = {"plan_cached": hit, "plan_cache": cache.snapshot(),
             "result_bytes": payload_nbytes(value)}
    return ship_value(value), extra


def _run_moa(ctx, task):
    _kind, _key, text = task
    db = ctx.db()
    cache = _plan_cache(ctx)
    key = (text, ctx.generation)
    compiled = cache.get(key)
    hit = compiled is not None
    if not hit:
        # the rewriter's one verification also enforces the service's
        # static admission budget, before a single statement runs.  A
        # rejected plan never enters the cache, so every resubmission
        # is re-checked (and re-rejected) the same way.
        compiled = rewrite(db.prepare(text), db.flat,
                           catalog=_catalog(ctx), budget=_plan_budget(ctx))
        cache.put(key, compiled)
    value = db.run_compiled(compiled)
    extra = {"plan_cached": hit, "plan_cache": cache.snapshot(),
             "result_bytes": payload_nbytes(value)}
    return ship_value(value), extra


register_task_kind("moa", _run_moa, warmup=_moa_warmup)
register_task_kind("sql", _run_sql, warmup=_moa_warmup)
