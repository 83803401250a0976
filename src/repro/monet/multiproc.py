"""Multi-process query execution over a shared mmap catalog.

The paper's flat BAT layout pays off when independent consumers share
it zero-copy; PR 2 made a saved database a directory of raw heap files
behind a manifest, and this module turns that directory into a live,
concurrently-readable store.  A :class:`MultiprocExecutor` owns a pool
of **worker processes**; each worker

* ``open_tpcd``-s the *same* ``db_dir`` itself, once — the heap files
  arrive as ``np.memmap`` views, so the page cache is shared between
  every worker and nothing is ever copied through a pipe at load time
  (no dbgen, no bulk load); ``mil`` tasks run on the kernel under that
  database,
* pins the catalog **generation** the parent observed
  (``expected_generation``), so a save racing the fan-out surfaces as
  a typed :class:`~repro.errors.CatalogChangedError` instead of
  workers silently serving different snapshots,
* runs with simulated page-fault accounting **off** (the disabled
  :class:`~repro.monet.buffer.BufferManager`): accounting is a
  property of one *task*.  A task submitted with ``buffer_stats=True``
  executes under a fresh, cold manager and ships its
  :class:`~repro.monet.buffer.BufferStats` back, so the reported
  faults never depend on what the worker ran before and nobody else
  pays for the simulation.

A task is one raw tuple ``(kind, key, ...)`` handed to
:meth:`MultiprocExecutor.submit`.  The built-in ``mil`` kind —
``("mil", key, program, fetch)`` — interprets a whole MIL program
against the worker's catalog; query text arrives through the kinds
the server registers (``sql``/``moa``, see :mod:`repro.server.tasks`).
Every kind verifies its plan in the worker, before a statement runs:
against the catalog stats the worker derives once from the kernel it
maps (:meth:`WorkerContext.catalog`), and against the ``plan_budget``
worker option when one is set.  A rejected plan fails its task with a
typed :class:`~repro.errors.PlanVerificationError` (or its budget
subclass).

Result shipping
---------------

Every task result is reduced to a canonical form (:func:`ship_value`),
fingerprinted with **sha1** (:func:`result_checksum`) and encoded
once as a binary columnar message
(:func:`repro.server.protocol.encode_binary_message`) *inside the
worker*.  Nothing on the parent side decodes the encoded body unless
a caller asks for the value (:meth:`TaskOutcome.value`) — the server
forwards it to its clients as it is.  A set-of-tuples result is one
columnar ``RowBatch`` in the worker and decodes back into one; its
digest is computed over its columns and equals the digest of the same
rows held as a Python list.  The checksum is the contract the
benchmarks and CI assert: a multi-process run must be
checksum-identical to the serial execution of the same queries.

Every reply crosses the worker's socketpair as the two frames a client
reads (:func:`repro.server.protocol.send_reply`, one gather write): a
JSON header frame, then one binary body frame.  The header carries
``status`` and, for ``ok``, the outcome's fields; the body is the
encoded message, or for ``err`` the pickled exception, so an error
keeps its exact type (one that does not pickle degrades to
:class:`~repro.errors.MILError` text).  No result is pickled.  The
parent reads each frame into one buffer sized from its length word
(:func:`repro.server.protocol.recv_reply`; a small reply costs one
read) and hands the body on as a read-only ``memoryview``.  A body
above
:data:`repro.server.protocol.MAX_FRAME_BYTES` is refused in the worker
before a byte goes out and fails its task with the typed
:class:`~repro.errors.ProtocolError`.

The checksum is computed first, on the worker's one thread.  Hashing
on a second worker thread while the body ships was built and
measured: with the parent reading at the same time that is three busy
threads on a 2-core host, preempting one another: 9-11 involuntary
context switches in the parent process per 3.6 MB reply, against
under 0.5 without the thread.

The parent's read of a reply is bounded like the wait for any reply:
the per-task deadline and the worker's death both end it, mid-frame
included.  A reply that fails part-way in the worker (a torn write)
leaves the pipe out of step, so the worker exits and the task
surfaces as :class:`~repro.errors.WorkerCrashedError`.

Warm pool
---------

The executor manages its worker processes directly (one duplex pipe +
one parent-side pump thread per worker) instead of delegating to
``multiprocessing.Pool``.  That buys the serving layer
(:mod:`repro.server`) three things a ``Pool`` cannot provide:

* **warm residency** — workers stay alive between calls with their
  catalog mapped, so a query never pays a reopen;
* **one bounded queue** — :meth:`MultiprocExecutor.submit` returns a
  :class:`PendingTask` at once; ``procs`` tasks run, ``max_queue``
  wait, one more is refused, as is one queued past its timeout
  (:class:`~repro.errors.ServerOverloadedError`), and a worker whose
  task overruns it is *killed and respawned* (``QueryTimeoutError``);
* **crash isolation** — a worker that dies mid-task surfaces as a
  typed :class:`~repro.errors.WorkerCrashedError` on that task alone
  and is respawned; a worker that dies while idle is replaced
  transparently (the task that found it dead never started, so it is
  retried on the replacement).  Either way the pool keeps serving.

Task kinds beyond the built-in ``mil`` are pluggable:
:func:`register_task_kind` adds a handler, and ``task_modules`` names
modules the workers import at start-up so registrations exist in every
process under both ``fork`` and ``spawn`` (the server registers its
plan-cached ``sql`` and ``moa`` kinds this way, see
:mod:`repro.server.tasks`).
"""

import hashlib
import multiprocessing
import os
import pickle
import select
import socket
import threading
import time
from collections import deque

import numpy as np

try:
    import resource
except ImportError:                         # not a POSIX platform
    resource = None

from .. import faults
from ..errors import (MILError, ProtocolError, QueryTimeoutError,
                      ServerOverloadedError, WorkerCrashedError)
from .buffer import BufferManager, BufferStats, use as use_manager
from .heap import utf8_column
from .mil import MILInterpreter

__all__ = [
    "CANONICAL_KINDS", "MultiprocExecutor", "PendingTask",
    "TaskOutcome", "WorkerContext", "default_start_method", "is_batch",
    "is_ref", "is_row", "register_task_kind", "result_checksum",
    "run_program_serial", "ship_value",
]

DEFAULT_PROCS = 2

#: Seconds between liveness/timeout checks while a task is in flight.
_POLL_INTERVAL = 0.05

#: Chaos injection points of the worker loop (fired *inside* worker
#: processes; ship a plan via ``MultiprocExecutor(fault_plan=...)``).
#: ``crash`` at ``start``/``mid`` surfaces as WorkerCrashedError on the
#: task; after ``post_result`` the parent already has the outcome and
#: the idle death is retried transparently; ``delay`` at ``mid``
#: drives the per-task timeout kill.  ``raise`` at ``start``/``mid``
#: ships a typed InjectedFaultError back like any task failure.  The
#: reply itself goes out through the wire's ``protocol.send.*`` points.
faults.declare(
    "multiproc.task.start", "multiproc.task.mid",
    "multiproc.task.post_result",
)


def default_start_method():
    """``fork`` where available (cheap: workers inherit the imported
    interpreter), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# canonical result form + checksums
# ----------------------------------------------------------------------
def ship_value(value):
    """The canonical form of one MIL/query result.

    BATs become ``{"kind": "bat", "head": array, "tail": array}`` of
    their logical values (materialised — the worker's memmaps never
    cross the process boundary); everything else (scalars, ``None``,
    a set of tuples as the ``RowBatch`` the materializer built — its
    columns encode as the buffers they are) ships as ``{"kind":
    "value", ...}``.
    """
    if hasattr(value, "head") and hasattr(value, "tail"):
        return {"kind": "bat",
                "head": np.asarray(value.head.logical()),
                "tail": np.asarray(value.tail.logical())}
    return {"kind": "value", "value": value}


#: The kinds of value a shipped result is made of.  Every walker over
#: shipped values — the digest below, the wire codec, the client —
#: decides what it does with each of them;
#: selfcheck invariant 7 (``repro.analysis.selfcheck``) reads this
#: tuple and lints the walkers against it, so a kind added here cannot
#: land handled by some walkers and silently mangled by the rest.
CANONICAL_KINDS = ("none", "bool", "int", "float", "str", "bytes",
                   "ndarray", "list", "tuple", "dict", "row", "ref",
                   "batch")


def is_row(value):
    """``repro.moa.values.Row`` (duck-typed: monet imports no moa)."""
    return hasattr(value, "names") and hasattr(value, "values")


def is_ref(value):
    """``repro.moa.values.Ref``."""
    return hasattr(value, "class_name") and hasattr(value, "oid")


def is_batch(value):
    """``repro.moa.values.RowBatch``."""
    return hasattr(value, "columns") and hasattr(value, "ref_classes")


def result_checksum(value):
    """sha1 hex digest of a result under a canonical encoding.

    Stable across processes for everything query execution produces:
    ``None``, bools, ints, exact floats (``float.hex``), strings,
    numpy arrays (dtype + raw bytes, every NaN as the one quiet NaN;
    object arrays element-wise), lists/tuples/dicts, and the MOA value
    types (``Row`` via its field names + values, ``Ref`` via class
    name + oid).

    A **set of flat tuples** is digested over its columns, however it
    is held: a ``RowBatch`` and the equal list of ``Row`` s (one or
    more rows, all with the same field names) feed the same bytes —
    the field and row counts, then per field its name and a typed
    column: bools as single bytes, ints as little-endian int64, floats
    as float64 with one canonical NaN, strings as their UTF-8 lengths
    (int64) then the concatenated UTF-8, references to one class as
    the class name then int64 oids, anything else element by element.
    The digest therefore depends on neither the representation nor
    the storage width of a column, which is what lets every path (Moa
    drivers, SQL, worker, wire, cache hit) be compared by checksum.  A
    set with no rows digests as the empty list.

    A bare numpy array — a shipped BAT's head or tail, what a ``mil``
    fetch returns — digests its dtype and raw bytes, so a BAT digest
    *does* carry the width its column is stored in: an int16 column
    and the equal int64 one digest apart.  Catalog integer columns are
    stored in their narrowest width (:func:`repro.monet.column
    .narrowest`), the same in every process that maps one catalog, so
    served and in-process digests of it still agree.
    """
    digest = hashlib.sha1()
    _feed(digest, value)
    return digest.hexdigest()


def _feed(digest, value):
    update = digest.update
    if value is None:
        update(b"N;")
    elif isinstance(value, (bool, np.bool_)):
        update(b"B%d;" % value)
    elif isinstance(value, (int, np.integer)):
        update(b"I" + str(int(value)).encode() + b";")
    elif isinstance(value, (float, np.floating)):
        update(b"F" + float(value).hex().encode() + b";")
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        update(b"S%d:" % len(encoded))
        update(encoded)
    elif isinstance(value, bytes):
        update(b"Y%d:" % len(value))
        update(value)
    elif isinstance(value, np.ndarray):
        if value.dtype == object:
            update(b"O%d[" % len(value))
            for item in value.tolist():
                _feed(digest, item)
            update(b"]")
        else:
            update(b"A" + value.dtype.str.encode()
                   + str(value.shape).encode() + b":")
            if value.dtype.kind == "f":
                value = _one_nan(value)
            update(np.ascontiguousarray(value).reshape(-1).view(np.uint8))
    elif is_batch(value):
        _feed_table(digest, value.names, len(value),
                    zip(value.ref_classes, value.columns))
    elif isinstance(value, (list, tuple)):
        names = value[0].names if value and is_row(value[0]) else None
        if names and all(is_row(item) and item.names == names
                         for item in value):
            _feed_table(digest, names, len(value),
                        ((None, column) for column in
                         zip(*[item.values for item in value])))
            return
        update(b"L%d[" % len(value))
        for item in value:
            _feed(digest, item)
        update(b"]")
    elif isinstance(value, dict):
        update(b"D%d{" % len(value))
        for key in sorted(value):
            _feed(digest, key)
            _feed(digest, value[key])
        update(b"}")
    elif is_row(value):
        update(b"R[")
        _feed(digest, list(value.names))
        _feed(digest, list(value.values))
        update(b"]")
    elif is_ref(value):
        update(b"G" + value.class_name.encode("utf-8")
               + b":" + str(int(value.oid)).encode() + b";")
    else:
        raise TypeError("cannot checksum result value of type %s"
                        % type(value).__name__)


def _one_nan(floats):
    """``floats`` with every NaN payload replaced by the quiet NaN."""
    nans = np.isnan(floats)
    if not nans.any():
        return floats
    return np.where(nans, floats.dtype.type(np.nan), floats)


def _feed_table(digest, names, rows, columns):
    """A set of ``rows`` flat tuples, column by column (the encoding
    :func:`result_checksum` documents).  ``columns`` yields one
    ``(ref_class, values)`` per field; ``values`` is an array or a
    sequence of Python values, oids when ``ref_class`` is given."""
    if not rows:
        digest.update(b"L0[]")
        return
    digest.update(b"T%d,%d[" % (len(names), rows))
    for name, (ref_class, values) in zip(names, columns):
        _feed(digest, name)
        _feed_column(digest, ref_class, values)
    digest.update(b"]")


def _all(kinds, *bases):
    return all(issubclass(kind, bases) for kind in kinds)


def _fixed_width(items):
    """Python values as the bool/int64/float64 array they amount to,
    or ``None`` when they are not all of one such kind."""
    kinds = set(map(type, items))
    try:
        if _all(kinds, bool, np.bool_):
            return np.array(items, dtype=np.bool_)
        if bool not in kinds and _all(kinds, int, np.integer):
            return np.array(items, dtype=np.int64)
        if _all(kinds, float, np.floating):
            return np.array(items, dtype=np.float64)
    except OverflowError:               # an int beyond int64
        pass
    return None


def _feed_column(digest, ref_class, values):
    update = digest.update
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "bif":
        # Python values (an object column, or one field across a row
        # list; also the odd dtypes, via tolist): typed by what the
        # column holds, so it digests like the equal fixed-width array
        items = values.tolist() if isinstance(values, np.ndarray) \
            else values
        values = _fixed_width(items)
        if values is None:
            if _all(set(map(type, items)), str):
                lengths, data = utf8_column(items)
                update(b"s")
                update(lengths.astype("<i8", copy=False))
                update(data)
            elif all(map(is_ref, items)) and len(
                    {item.class_name for item in items}) == 1:
                _feed_column(digest, items[0].class_name, np.fromiter(
                    (item.oid for item in items), dtype=np.int64,
                    count=len(items)))
            else:
                update(b"o")
                for item in items:
                    _feed(digest, item)
            return
    if ref_class is not None:
        update(b"r")
        _feed(digest, ref_class)
    kind = values.dtype.kind
    if kind == "b":
        update(b"b")
        update(np.ascontiguousarray(values, dtype=np.uint8))
    elif kind == "i":
        update(b"i")
        update(np.ascontiguousarray(values, dtype="<i8"))
    else:
        update(b"f")
        update(np.ascontiguousarray(_one_nan(values), dtype="<f8"))


# ----------------------------------------------------------------------
# task outcome
# ----------------------------------------------------------------------
class TaskOutcome:
    """One executed task, shipped back from a worker.

    ``body`` is the canonical value (:func:`ship_value` form) the
    worker fingerprinted as ``checksum``, encoded once as a binary
    columnar message: opaque until :meth:`value` decodes it.  It is
    always a read-only ``memoryview`` of the one buffer the parent
    read the reply's body frame into.  ``key``, ``generation`` and
    ``pid`` are the parent's own; the other fields arrive in the
    reply's JSON header frame.
    """

    __slots__ = ("key", "checksum", "body", "elapsed_ms", "stats",
                 "generation", "pid", "extra", "minor_faults")

    def __init__(self, key, checksum, body, elapsed_ms, stats,
                 generation, pid, extra=None, minor_faults=0):
        self.key = key
        self.checksum = checksum
        self.body = body
        self.elapsed_ms = elapsed_ms
        #: the task's cold-start BufferStats when it was submitted
        #: with ``buffer_stats=True``, else ``None``
        self.stats = stats
        self.generation = generation
        self.pid = pid
        #: handler-specific metadata (e.g. the server's ``sql`` and
        #: ``moa`` kinds ship whether the plan cache hit)
        self.extra = extra
        #: the worker's real minor page faults over the whole task,
        #: encode and checksum included (0 without ``resource``)
        self.minor_faults = minor_faults

    def value(self):
        """The shipped result, decoded from :attr:`body`."""
        from ..server.protocol import decode_binary_message, decode_value
        return decode_value(decode_binary_message(self.body))

    def __repr__(self):
        return ("TaskOutcome(%r, %.2fms, sha1=%s, gen=%s, pid=%d)"
                % (self.key, self.elapsed_ms, self.checksum[:10],
                   self.generation, self.pid))


# ----------------------------------------------------------------------
# task-kind registry
# ----------------------------------------------------------------------
_TASK_KINDS = {}


def register_task_kind(kind, run, warmup=None):
    """Register a task handler executable by pool workers.

    ``run(ctx, task)`` receives a :class:`WorkerContext` and the raw
    task tuple and returns ``(canonical_value, extra)`` where
    ``canonical_value`` is the :func:`ship_value`-style payload to
    checksum and encode, and ``extra`` is an optional JSON-able
    metadata dict for :attr:`TaskOutcome.extra`.  ``warmup(ctx, task)`` runs
    *before* the task timer — resolve catalogs there so the first task
    on a worker pays the (milliseconds-scale) mmap open, not the query.

    Handlers must live in importable modules: pass the module name via
    ``MultiprocExecutor(task_modules=...)`` so every worker process
    imports (and thereby registers) it under fork *and* spawn.
    """
    _TASK_KINDS[kind] = (run, warmup)


# ----------------------------------------------------------------------
# worker side (module-level: must be picklable by reference)
# ----------------------------------------------------------------------
_STATE = {}


class WorkerContext:
    """What a task handler may touch inside a worker process."""

    __slots__ = ()

    @property
    def options(self):
        """The executor's ``worker_options`` dict (read-only use)."""
        return _STATE["options"]

    @property
    def state(self):
        """A per-worker scratch dict for handler-owned caches."""
        return _STATE.setdefault("handler_state", {})

    def catalog(self):
        """Catalog stats of the worker's kernel for the plan verifier,
        derived once: a worker serves one pinned generation for life."""
        if _STATE.get("catalog") is None:
            from ..analysis.verify import catalog_stats_from_kernel
            _STATE["catalog"] = catalog_stats_from_kernel(self.kernel())
        return _STATE["catalog"]

    def kernel(self):
        """The worker's :class:`MonetKernel`: the one under :meth:`db`."""
        return self.db().kernel

    def db(self):
        """The worker's TPC-D :class:`MOADatabase`, opened once and
        kept (any saved catalog opens: its schema is read lazily)."""
        if _STATE["db"] is None:
            from ..tpcd.loader import open_tpcd
            _STATE["db"], _report = open_tpcd(
                _STATE["db_dir"], expected_generation=_STATE["generation"])
        return _STATE["db"]


def _worker_init(db_dir, expected_generation, task_modules=(),
                 worker_options=None, fault_plan=None):
    import importlib

    # the executor's fault plan rides the init args (picklable), so
    # injection works under spawn too; None = chaos layer off
    faults.set_plan(fault_plan)
    _STATE.update(db_dir=db_dir, generation=expected_generation,
                  db=None, catalog=None,
                  options=dict(worker_options or {}))
    for module in task_modules:
        # registrations must exist in every process: under spawn the
        # child starts from a fresh interpreter, so importing here is
        # what makes register_task_kind calls take effect fleet-wide
        importlib.import_module(module)


def _task_mil_warmup(ctx, task):
    ctx.catalog()


def _task_mil(ctx, task):
    from ..analysis.verify import check_program
    _kind, _key, program, fetch = task
    check_program(program, catalog=ctx.catalog(),
                  budget=ctx.options.get("plan_budget"), roots=set(fetch))
    interpreter = MILInterpreter(ctx.kernel())
    interpreter.run(program)
    return {name: ship_value(interpreter.value(name))
            for name in fetch}, None


register_task_kind("mil", _task_mil, warmup=_task_mil_warmup)


def _run_accounted(run, ctx, task):
    """Run one task under a fresh, cold :class:`BufferManager`.

    The only place a worker simulates page faults: nothing survives
    the task, so a long-lived worker holds no resident set and the
    counts equal an in-process cold run of the same plan.
    """
    manager = BufferManager()
    with use_manager(manager):
        canonical, extra = run(ctx, task)
    return canonical, extra, manager.snapshot()


def _run_task(task, buffer_stats=False):
    """Execute one task; its ``ok`` reply as ``(header, body)``."""
    # the codec lives with the wire protocol; imported here, inside
    # the worker, so the monet layer never imports the server layer at
    # module scope
    from ..server.protocol import encode_binary_message

    kind = task[0]
    entry = _TASK_KINDS.get(kind)
    if entry is None:
        raise MILError("unknown multiproc task kind %r" % (kind,))
    run, warmup = entry
    faults_before = _minor_faults()
    ctx = WorkerContext()
    if warmup is not None:
        # resolve the catalog before the timer: the first task on each
        # worker pays the (milliseconds-scale) mmap open, not the query
        warmup(ctx, task)
    stats = None
    started = time.perf_counter()
    if buffer_stats:
        canonical, extra, stats = _run_accounted(run, ctx, task)
    else:
        canonical, extra = run(ctx, task)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    # encoding first: a value the codec cannot carry fails here with
    # the codec's typed ProtocolError, shipped back like any failure
    body = encode_binary_message(canonical)
    header = {
        "status": "ok", "checksum": result_checksum(canonical),
        "elapsed_ms": elapsed_ms, "extra": extra,
        "stats": None if stats is None else stats.as_dict(),
        "minor_faults": _minor_faults() - faults_before,
    }
    return header, body


def _error_reply(task, exc):
    """A failed task's ``err`` reply as ``(header, body)``: the body is
    the pickled exception, so its exact type survives; one that does
    not pickle degrades to :class:`~repro.errors.MILError` text."""
    try:
        body = pickle.dumps(exc)
    except (pickle.PicklingError, TypeError, AttributeError):
        body = pickle.dumps(MILError(
            "worker result for task %r could not be shipped: %r"
            % (task[1], exc)))
    return {"status": "err"}, body


def _minor_faults():
    """This process's minor page faults so far (0 without
    :mod:`resource`)."""
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _worker_main(parent_conn, conn, init_args):
    """The worker process loop: recv ``(task, buffer_stats)``,
    execute, send the reply frames.

    Exceptions are shipped back per task — the worker survives a
    failing task.  ``None`` is the shutdown sentinel.  The
    parent's copy of its own pipe end is closed first so worker death
    is observable as EOF/EPIPE on the parent side.
    """
    if parent_conn is not None:
        parent_conn.close()
    _worker_init(*init_args)
    from ..server.protocol import send_reply
    sock = socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break                      # parent died or terminated us
        if job is None:
            break
        task, buffer_stats = job
        try:
            faults.fire("multiproc.task.start")
            reply = _run_task(task, buffer_stats)
            # between execution and the reply: a crash here loses a
            # finished result (the parent must treat it as crashed),
            # a delay here overruns the per-task timeout
            faults.fire("multiproc.task.mid")
        except BaseException as exc:       # noqa: BLE001 — shipped
            reply = _error_reply(task, exc)
        try:
            try:
                send_reply(sock, *reply)
            except (ProtocolError, TypeError, ValueError) as exc:
                # refused whole before a byte went out: a body above
                # the frame cap, or a header JSON cannot carry
                send_reply(sock, *_error_reply(task, exc))
            faults.fire("multiproc.task.post_result")
        except Exception:                  # noqa: BLE001 — see below
            # the parent is gone, or a reply failed part-way and the
            # pipe is out of step: either way this worker is done
            break
    sock.close()
    conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class PendingTask:
    """A task accepted by :meth:`MultiprocExecutor.submit`.

    ``dispatched`` is set once the task has been written to a worker
    pipe (used to distinguish never-started from possibly-half-run
    when a worker dies).  :meth:`result` blocks for the outcome and
    re-raises the worker's exception, a
    :class:`~repro.errors.WorkerCrashedError`, a
    :class:`~repro.errors.QueryTimeoutError`, or a queue timeout's
    :class:`~repro.errors.ServerOverloadedError`.
    """

    __slots__ = ("task", "timeout", "buffer_stats", "dispatched",
                 "_done", "_outcome", "_error", "pid", "_executor",
                 "_expires")

    def __init__(self, task, executor, timeout=None, buffer_stats=False):
        self.task = task
        self.timeout = timeout
        self.buffer_stats = buffer_stats
        self.dispatched = threading.Event()
        self._done = threading.Event()
        self._outcome = None
        self._error = None
        #: pid of the worker that ran (or lost) the task, once known
        self.pid = None
        self._executor = executor
        #: when a task no worker has taken yet leaves the queue
        self._expires = None if timeout is None \
            else time.monotonic() + timeout

    def done(self):
        return self._done.is_set()

    def _settle(self, result):
        """Resolve with a :class:`TaskOutcome` or the exception the
        task fails with."""
        if isinstance(result, BaseException):
            self._error = result
        else:
            self._outcome = result
        self._done.set()

    def result(self, timeout=None):
        """Block for the :class:`TaskOutcome` (raises on failure).

        A task no worker has taken when its own timeout runs out is
        taken out of the queue here, by the waiting caller, so the
        caller is released on time even if no worker frees up.
        """
        started = time.monotonic()
        if self._expires is not None \
                and (timeout is None or started + timeout > self._expires) \
                and not self._done.wait(self._expires - started) \
                and self._executor._unqueue(self):
            self._settle(ServerOverloadedError(
                "task %r queued past the %.3fs timeout budget"
                % (self.task[1], self.timeout)))
        if not self._done.wait(None if timeout is None
                               else started + timeout - time.monotonic()):
            raise QueryTimeoutError(
                "no outcome for task %r within %.3fs"
                % (self.task[1], timeout))
        if self._error is not None:
            raise self._error
        return self._outcome

    def __repr__(self):
        state = "done" if self.done() else (
            "running" if self.dispatched.is_set() else "queued")
        return "PendingTask(%r, %s)" % (self.task[1], state)


class _Lost(Exception):
    """The worker died before its reply was complete."""


class _Overdue(Exception):
    """The task's deadline passed before its reply was complete."""


class _WorkerHandle:
    """One worker process + the parent's end of its pipe."""

    __slots__ = ("process", "conn", "sock", "_poll")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: the same socket as ``conn``, for reading reply frames
        self.sock = socket.fromfd(conn.fileno(), socket.AF_UNIX,
                                  socket.SOCK_STREAM)
        poller = select.poll()
        poller.register(self.sock, select.POLLIN)
        self._poll = poller.poll

    def readable(self, timeout):
        """Whether a byte (or EOF) is there to read within ``timeout``
        seconds: one ``poll`` call, no selector built per wait."""
        return bool(self._poll(timeout * 1000.0))

    @property
    def pid(self):
        return self.process.pid

    def kill(self):
        """Hard-stop the process (timeout reclaim / terminate)."""
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join()
        self.close()

    def close(self):
        self.sock.close()
        self.conn.close()

    def shutdown(self):
        """Graceful stop: sentinel, then join."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.close()


class MultiprocExecutor:
    """A warm pool of worker processes sharing one saved catalog.

    Parameters
    ----------
    db_dir:
        The saved database directory every worker reopens via mmap.
    procs:
        Worker process count: the tasks that run at once.
    max_queue:
        Tasks that may wait for a worker (``None`` — the default — is
        unbounded); :meth:`submit` refuses one more.
    expected_generation:
        Catalog generation the workers must observe; defaults to the
        generation on disk when the executor is created, so a save
        racing the fan-out fails loudly instead of splitting the fleet
        across snapshots.
    task_modules:
        Module names every worker imports at start-up, so their
        :func:`register_task_kind` calls exist in each process.
    worker_options:
        Picklable dict exposed to task handlers as
        :attr:`WorkerContext.options`: ``plan_budget`` (a
        :class:`~repro.analysis.verify.PlanBudget` every plan kind is
        checked against), plan-cache sizing.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` installed in every
        worker process (chaos testing); ``None`` — the default — keeps
        the injection layer off.
    """

    def __init__(self, db_dir, procs=DEFAULT_PROCS, max_queue=None,
                 expected_generation=None, task_modules=(),
                 worker_options=None, fault_plan=None):
        from .storage import catalog_generation
        self.db_dir = os.fspath(db_dir)
        self.procs = max(1, int(procs))
        self.max_queue = None if max_queue is None \
            else max(0, int(max_queue))
        if expected_generation is None:
            expected_generation = catalog_generation(self.db_dir)
        self.generation = expected_generation
        self._context = multiprocessing.get_context(
            default_start_method())
        self._init_args = (self.db_dir, self.generation,
                           tuple(task_modules),
                           dict(worker_options or {}), fault_plan)
        #: tasks crashed + workers respawned since start (observability)
        self.crashes = 0
        self.timeouts = 0
        self.respawns = 0
        self._cv = threading.Condition()
        self._queue = deque()
        #: tasks a pump has taken off the queue and not yet resolved
        self._running = 0
        self._closing = False
        self._terminated = False
        self._workers = []
        self._pumps = []
        for slot in range(self.procs):
            self._workers.append(self._spawn())
            pump = threading.Thread(target=self._pump, args=(slot,),
                                    name="mp-pump-%d" % slot,
                                    daemon=True)
            self._pumps.append(pump)
            pump.start()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self):
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(parent_conn, child_conn, self._init_args),
            daemon=True)
        process.start()
        # the worker closes its inherited copy of parent_conn; closing
        # child_conn here leaves exactly one owner per pipe end, so a
        # dead worker is observable as EOF/EPIPE immediately
        child_conn.close()
        return _WorkerHandle(process, parent_conn)

    def _respawn(self, slot):
        if self._terminated:
            return
        self._workers[slot] = self._spawn()
        self.respawns += 1

    def worker_pids(self):
        """Current pids of the live workers."""
        return [worker.pid for worker in self._workers]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def submit(self, task, timeout=None, buffer_stats=False):
        """Queue one raw task tuple; returns a :class:`PendingTask`.

        A task beyond ``max_queue`` waiting ones is refused at once
        with :class:`~repro.errors.ServerOverloadedError`, and so is
        one still queued when its ``timeout`` (seconds) runs out (see
        :meth:`PendingTask.result`).  The timeout starts again when
        the task is handed to a worker; an overdue worker is killed
        and respawned and the task fails with
        :class:`~repro.errors.QueryTimeoutError`.
        ``buffer_stats=True`` makes the worker simulate the task's
        page faults from a cold start and ship them as
        :attr:`TaskOutcome.stats` (``None`` otherwise).
        """
        pending = PendingTask(task, self, timeout=timeout,
                              buffer_stats=buffer_stats)
        with self._cv:
            if self._closing:
                raise MILError("executor is shut down")
            if self.max_queue is not None and len(self._queue) \
                    + self._running >= self.procs + self.max_queue:
                raise ServerOverloadedError(
                    "at %d running and %d queued tasks"
                    % (self._running, len(self._queue)))
            self._queue.append(pending)
            self._cv.notify()
        return pending

    def _unqueue(self, pending):
        """Whether ``pending`` was still queued; it is not any more."""
        with self._cv:
            try:
                self._queue.remove(pending)
            except ValueError:
                return False
        return True

    def task_counts(self):
        """``(running, queued)`` task counts."""
        with self._cv:
            return self._running, len(self._queue)

    def _next_task(self):
        with self._cv:
            while not self._queue and not self._closing:
                self._cv.wait()
            if self._queue:
                self._running += 1
                return self._queue.popleft()
            return None                              # closing + drained

    def _pump(self, slot):
        while True:
            pending = self._next_task()
            if pending is None:
                break
            try:
                result = self._dispatch(slot, pending)
            except BaseException as exc:   # noqa: BLE001 — last line
                # of defense: a pump that dies strands its slot and
                # leaves the task's waiter blocked forever, so any
                # unexpected dispatch failure resolves the task and
                # recycles the worker instead
                result = WorkerCrashedError(
                    "dispatcher failure for task %r: %r"
                    % (pending.task[1], exc))
                self._workers[slot].kill()
                self._respawn(slot)
            # free the slot before the caller wakes: a task submitted
            # right after this one's answer finds the worker idle
            with self._cv:
                self._running -= 1
            pending._settle(result)
        if not self._terminated:
            self._workers[slot].shutdown()

    def _dispatch(self, slot, pending, retried=False):
        """Run ``pending`` on the worker in ``slot``: its
        :class:`TaskOutcome`, or the exception it fails with."""
        worker = self._workers[slot]
        try:
            if not worker.process.is_alive():
                # noticed the death before handing the task over:
                # identical to the send-failure path below
                raise BrokenPipeError("worker died while idle")
            worker.conn.send((pending.task, pending.buffer_stats))
        except (BrokenPipeError, OSError, ValueError):
            # the worker died while idle: the task never started, so
            # replace the worker and retry transparently (once — a
            # second failure means spawning itself is broken)
            worker.kill()
            self._respawn(slot)
            if self._terminated:
                return WorkerCrashedError(
                    "executor terminated before task %r ran"
                    % (pending.task[1],))
            if retried:
                return WorkerCrashedError(
                    "could not hand task %r to a worker (respawn "
                    "failed to produce a usable process)"
                    % (pending.task[1],))
            return self._dispatch(slot, pending, retried=True)
        pending.pid = worker.pid
        pending.dispatched.set()
        deadline = None if pending.timeout is None \
            else time.monotonic() + pending.timeout
        try:
            header, body = self._await_reply(worker, deadline)
            return self._read_reply(pending, header, body)
        except _Overdue:
            # reclaim the slot: kill the overdue worker outright
            # (it may be wedged in a kernel call) and respawn
            self.timeouts += 1
            worker.kill()
            self._respawn(slot)
            return QueryTimeoutError(
                "task %r exceeded its %.3fs timeout (worker pid "
                "%s killed and respawned)"
                % (pending.task[1], pending.timeout, pending.pid))
        except _Lost:
            worker.kill()
            self._respawn(slot)
            self.crashes += 1
            return WorkerCrashedError(
                "worker pid %s died while running task %r (respawned; "
                "resubmit the task)" % (pending.pid, pending.task[1]))

    @classmethod
    def _await_reply(cls, worker, deadline):
        """The worker's reply frames ``(header, body)`` for the task it
        runs.

        Raises :class:`_Lost` when the worker dies first (or its
        reply cannot be read back), :class:`_Overdue` when the
        deadline passes first — mid-frame included.
        """
        from ..server.protocol import recv_reply
        try:
            return recv_reply(
                worker.sock, lambda: cls._wait_readable(worker, deadline))
        except (ProtocolError, OSError) as exc:
            raise _Lost() from exc         # EOF or garbage mid-reply

    def _read_reply(self, pending, header, body):
        """The task's :class:`TaskOutcome`, or the exception it raised."""
        try:
            if header["status"] != "ok":
                return pickle.loads(body)
            stats = header["stats"]
            return TaskOutcome(
                pending.task[1], header["checksum"], body,
                header["elapsed_ms"],
                None if stats is None else BufferStats(**stats),
                self.generation, pending.pid, extra=header["extra"],
                minor_faults=header["minor_faults"])
        except Exception as exc:       # noqa: BLE001 — see below
            # a malformed header, or an exception pickle cannot
            # re-create (e.g. a custom __init__ rejecting pickle's
            # re-call): the message is lost either way, so treat the
            # worker as crashed rather than leave the task unfulfilled
            # and this pump dead
            raise _Lost() from exc

    @staticmethod
    def _wait_readable(worker, deadline):
        """Return once the worker's pipe has bytes to read (or its
        EOF); raise :class:`_Lost`/:class:`_Overdue` when the worker
        exits or the deadline passes first.  Data that raced the
        worker's exit is still readable, so it is never lost."""
        while True:
            wait = _POLL_INTERVAL if deadline is None else max(
                0.0, min(_POLL_INTERVAL, deadline - time.monotonic()))
            if worker.readable(wait):
                return
            if not worker.process.is_alive():
                if worker.readable(0):
                    return
                raise _Lost()
            if deadline is not None and time.monotonic() > deadline:
                raise _Overdue()

    # ------------------------------------------------------------------
    def close(self):
        """Finish queued work, then stop the workers gracefully."""
        with self._cv:
            self._closing = True
            self._cv.notify_all()
        for pump in self._pumps:
            pump.join()

    def terminate(self):
        """Hard stop: kill workers now, fail anything still queued."""
        with self._cv:
            self._closing = True
            self._terminated = True
            doomed = list(self._queue)
            self._queue.clear()
            self._cv.notify_all()
        for pending in doomed:
            pending._settle(WorkerCrashedError(
                "executor terminated before task %r ran"
                % (pending.task[1],)))
        for worker in self._workers:
            worker.kill()
        for pump in self._pumps:
            pump.join()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb):
        if exc_type is None:
            self.close()
        else:
            self.terminate()


def run_program_serial(kernel, program, fetch):
    """Serial reference execution of a MIL program.

    Returns ``(env, checksum)`` in the same canonical form the workers
    ship, so callers can diff a serial run against a submitted ``mil``
    task's outcome byte for byte.
    """
    interpreter = MILInterpreter(kernel)
    interpreter.run(program)
    env = {name: ship_value(interpreter.value(name)) for name in fetch}
    return env, result_checksum(env)
