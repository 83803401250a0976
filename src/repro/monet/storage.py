"""Pluggable heap storage: persist a BAT catalog, reopen it via mmap.

The real Monet maps BAT heaps straight into virtual memory (paper
section 2: "it has no page-based buffer manager ... lets the MMU do
the job in hardware"), so a loaded database is just a directory of
heap files plus a catalog.  This module reproduces that design for the
kernel in :mod:`repro.monet.kernel`:

* :class:`HeapStorage` — the backend interface.  Two implementations
  exist: :class:`MemoryBackend` (files held as byte arrays in a
  process-local dict, the degenerate "current behaviour" transport
  used by tests) and :class:`MmapBackend` (a directory; each save
  streams every heap into one raw little-endian file, which an open
  maps once and hands out as ``np.memmap`` views).
* a JSON **catalog manifest** (``catalog.json``) describing every BAT:
  name, head/tail atom types and layouts, the declared properties
  (key/ordered), alignment groups (so ``synced`` relationships survive
  a reopen), plus the datavector accelerator heaps.
* :func:`save_kernel` / :func:`open_kernel` — bulk persistence for a
  whole :class:`~repro.monet.kernel.MonetKernel` catalog.  Reopened
  fixed-width columns are served as zero-copy ``np.memmap`` views and
  var heaps decode lazily, so opening a database touches no heap
  pages.
* residency helpers (:func:`heap_resident_pages`,
  :func:`residency_report`, plus :func:`mapped_file_rss` and
  :func:`resident_page_count`) that compare the *simulated* page-fault
  accounting of :mod:`repro.monet.buffer` against the pages the OS
  actually faulted into the process for each heap's view, read from
  the page table (``/proc/self/pagemap``) — turning the paper's
  central observable into a testable claim.
* the **shared-catalog protocol** that makes one saved directory safe
  for many concurrent processes (:class:`CatalogLock`,
  :func:`catalog_generation`).  The manifest carries a monotonically
  increasing *generation counter*; every save acquires an exclusive
  advisory file lock (``catalog.lock``, ``flock``), bumps the counter
  and rewrites the manifest atomically (write-temp + rename), and
  every open reads the manifest and maps its heap file under a shared
  lock.  Because heap files are only ever replaced via ``rename`` and
  never truncated in place, a reader that already mapped a generation
  keeps reading it untouched (the old inode stays alive under the
  mapping) — a writer can never tear pages out from under an open
  reader.  A reader that loses the race between reading a
  manifest and mapping its files (the writer pruned them first) sees a
  :class:`~repro.errors.HeapError`, detects the generation moved, and
  retries on the new manifest; see :func:`open_kernel`.

File layout (all arrays little-endian, raw)::

    <dir>/catalog.json     the manifest (written last)
    <dir>/g<N>.heaps       every heap of generation N, each at a
                           HEAP_ALIGN (4096) byte offset: FixedColumn
                           data arrays, VarColumn heap-index arrays
                           (int32), VarHeap offsets (int64) and NUL-
                           terminated UTF-8 bodies, datavector value
                           vectors and stand-alone extents

Every column spec names its ``file`` and byte ``offset``; a var heap
spec names ``offsets``/``offsets_offset`` and ``body``/``body_offset``.
The save streams the heaps into one staged file, fsyncs it once and
renames it, so a save costs one fsync however many heaps it holds, and
an open costs one mapping.  Catalogs of version 1 hold one file per
heap (``<bat>.head.col``, ``<bat>.tail.idx``, ``vh<K>.off``/``.body``,
``_dv.<class>.extent``) and specs without offsets; the same reader
opens them, reading each file from byte 0.  Sharing one file, heaps
also share the kernel's fault-around window (up to 16 pages mapped
around a faulting page), so a touch near a heap's edge can show a
neighbour's first pages resident.

A manifest from an older build may still list a ``hash``/``hash_tail``
accelerator slot on a BAT.  Reopening ignores it, and the next save
prunes its files like any other unreferenced heap.
"""

import contextlib
import io
import json
import mmap as _mmap
import os
import time

try:
    import fcntl
except ImportError:                          # non-POSIX: advisory
    fcntl = None                             # locking degrades to no-op

import numpy as np

from .. import faults
from ..errors import (CatalogChangedError, CatalogError,
                      CatalogLockTimeout, HeapError, StaleCatalogError)
from . import atoms as _atoms
from .accelerators.datavector import DataVector, DataVectorRegistry
from .bat import BAT
from .column import FixedColumn, VarColumn, VoidColumn
from .heap import MappedVarHeap, VarHeap, utf8_column
from .properties import Props, fresh_alignment

FORMAT = "repro-bat-catalog"
#: 2: every heap of a save in one ``g<N>.heaps`` file, specs carry
#: byte offsets (version-1 catalogs, one file per heap, still open)
VERSION = 2
MANIFEST = "catalog.json"
LOCKFILE = "catalog.lock"
PAGESIZE = _mmap.PAGESIZE

#: Byte alignment of every heap inside a save's heap file
HEAP_ALIGN = 4096

#: How long lock acquisition waits before CatalogLockTimeout.
DEFAULT_LOCK_TIMEOUT = 10.0

#: How often open_kernel re-reads the manifest after losing the race
#: against a concurrent save (files pruned between manifest read and
#: heap mapping) before giving up with CatalogChangedError.
OPEN_RETRIES = 3

_PROP_FLAGS = ("hkey", "hordered", "tkey", "tordered")

#: Chaos injection points of the save path (see :mod:`repro.faults`).
#: ``torn`` points use the ``tear`` action (the site writes a short
#: payload, then raises or crashes); the rest honour ``raise``/
#: ``crash``/``delay``.  All are no-ops without an installed plan.
faults.declare(
    "storage.save.begin", "storage.save.heaps_written",
    "storage.save.manifest_written",
    "storage.write_array.torn", "storage.write_array.staged",
    "storage.write_array.synced", "storage.write_array.renamed",
    "storage.manifest.torn", "storage.manifest.staged",
    "storage.manifest.synced", "storage.manifest.renamed",
)


# ----------------------------------------------------------------------
# shared-catalog locking
# ----------------------------------------------------------------------
class _NullLock:
    """Degenerate lock: in-process backends need no file locking."""

    #: in-process storage has no cross-process writers to race, so a
    #: null lock counts as held (no lockless-race recheck needed)
    held = True

    @contextlib.contextmanager
    def shared(self, timeout=None):
        yield self

    @contextlib.contextmanager
    def exclusive(self, timeout=None):
        yield self


class CatalogLock:
    """Advisory ``flock`` on ``<dir>/catalog.lock``.

    Writers (:func:`save_kernel`) hold the *exclusive* lock across the
    whole save — heap-file writes, manifest rename and pruning — so two
    writers never interleave and a reader never observes a manifest
    whose files are being pruned mid-open.  Readers
    (:func:`open_kernel`) hold the *shared* lock only while reading the
    manifest and mapping its heap files; once mapped, the inodes stay
    alive regardless of later renames/unlinks, so readers drop the lock
    immediately and queries run lock-free.

    ``flock`` has no native timeout, so acquisition polls non-blocking
    until ``timeout`` elapses and then raises
    :class:`~repro.errors.CatalogLockTimeout`.  Re-entrant per
    instance (a depth counter — backends hand out one cached instance
    per directory), so a caller already holding the writer lock can
    delegate to a save that takes it again.  On platforms without
    ``fcntl`` the lock degrades to a no-op, and *readers* also degrade
    to lock-free when the lock file cannot be created (missing
    directory, read-only media) — opening a catalog never mutates the
    filesystem; the retry-on-rewrite path in :func:`open_kernel`
    covers the lockless race.
    """

    _POLL_S = 0.01

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fd = None
        self._depth = 0
        self._exclusive = False

    @contextlib.contextmanager
    def _acquire(self, exclusive, timeout):
        if fcntl is None:
            yield self
            return
        if self._depth:
            if exclusive and not self._exclusive:
                raise CatalogError(
                    "cannot upgrade a shared catalog lock to exclusive")
            self._depth += 1
            try:
                yield self
            finally:
                self._depth -= 1
            return
        if timeout is None:
            timeout = DEFAULT_LOCK_TIMEOUT
        try:
            if exclusive:
                # writers are about to create files anyway
                os.makedirs(os.path.dirname(self.path) or ".",
                            exist_ok=True)
            fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            if exclusive:
                raise
            # readers degrade to lock-free rather than mutating the
            # filesystem: the directory may not exist (a typo'd open
            # must not litter it into existence) or the catalog may
            # live on read-only media, where no writer can race us
            # anyway and the manifest is still one atomic file
            yield self
            return
        deadline = time.monotonic() + timeout
        flag = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        while True:
            try:
                fcntl.flock(fd, flag | fcntl.LOCK_NB)
                break
            except (BlockingIOError, InterruptedError):
                # held by someone else (or interrupted): poll on
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise CatalogLockTimeout(
                        "%s catalog lock on %s still held after %.2fs"
                        % ("exclusive" if exclusive else "shared",
                           self.path, timeout)) from None
                time.sleep(self._POLL_S)
            except OSError:
                # a real locking failure (e.g. ENOLCK on a share
                # without lock support) must surface immediately,
                # not masquerade as a timeout
                os.close(fd)
                raise
        self._fd = fd
        self._depth = 1
        self._exclusive = exclusive
        try:
            yield self
        finally:
            self._depth -= 1
            if not self._depth:
                fcntl.flock(fd, fcntl.LOCK_UN)
                os.close(fd)
                self._fd = None
                self._exclusive = False

    def shared(self, timeout=None):
        """Context manager holding the reader (shared) lock."""
        return self._acquire(False, timeout)

    def exclusive(self, timeout=None):
        """Context manager holding the writer (exclusive) lock."""
        return self._acquire(True, timeout)

    @property
    def held(self):
        return self._depth > 0


def _le(dtype):
    """The little-endian variant of a numpy dtype (stored format).

    ``dtype.str`` resolves native byte order ('=') to the concrete
    '<'/'>' character, so this converts on big-endian hosts too.
    """
    dtype = np.dtype(dtype)
    if dtype.str.startswith(">"):
        return dtype.newbyteorder("<")
    return dtype


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class HeapFile:
    """One save's heaps streamed back to back into one file.

    Every heap starts at a :data:`HEAP_ALIGN`-aligned offset, so no two
    heaps share a page and a reader's view of one heap is page-aligned.
    """

    def __init__(self, name, handle):
        self.name = name
        self._handle = handle
        self.size = 0

    def append(self, array):
        """Write ``array`` little-endian at the next aligned offset;
        returns that offset."""
        array = np.ascontiguousarray(array, dtype=_le(array.dtype))
        offset = -(-self.size // HEAP_ALIGN) * HEAP_ALIGN
        self._handle.write(bytes(offset - self.size))
        self._handle.write(array.view(np.uint8))
        self.size = offset + array.nbytes
        return offset


class HeapStorage:
    """Backend interface: named heap files plus one JSON manifest."""

    def heap_file(self, name):
        """Context manager yielding a :class:`HeapFile` named ``name``;
        the file is complete and durable once the block exits."""
        raise NotImplementedError

    def map_file(self, name):
        """The named file's bytes as a ``uint8`` array; raises
        HeapError when it is missing."""
        raise NotImplementedError

    def write_manifest(self, manifest):
        raise NotImplementedError

    def read_manifest(self):
        """The manifest dict; raises CatalogError when absent/corrupt."""
        raise NotImplementedError

    def exists(self):
        """True when a manifest has been written to this backend."""
        raise NotImplementedError

    def prune(self, keep):
        """Drop stored arrays not named in ``keep`` (best effort)."""

    def sweep_stale(self, manifest):
        """Recovery sweep: drop staging litter and orphaned heap files
        left behind by a save that crashed before its manifest rename
        (no-op for in-process backends — they cannot crash mid-save
        and survive)."""

    def sync_directory(self):
        """fsync the directory holding the catalog (no-op when the
        backend has no directory)."""

    def lock(self):
        """The backend's :class:`CatalogLock` (no-op when storage is
        process-local and needs no cross-process serialisation)."""
        return _NullLock()


class MemoryBackend(HeapStorage):
    """In-process storage: the current (memory-only) behaviour.

    Round-trips a catalog without touching disk; reads hand back the
    stored arrays directly, which is exactly what in-memory heaps do.
    """

    def __init__(self):
        self._files = {}
        self._manifest = None

    @contextlib.contextmanager
    def heap_file(self, name):
        buffer = io.BytesIO()
        yield HeapFile(name, buffer)
        self._files[name] = np.frombuffer(buffer.getvalue(), dtype=np.uint8)

    def map_file(self, name):
        try:
            return self._files[name]
        except KeyError:
            raise HeapError("heap file %r missing from storage" % name) \
                from None

    def write_manifest(self, manifest):
        self._manifest = json.loads(json.dumps(manifest))

    def read_manifest(self):
        if self._manifest is None:
            raise CatalogError("no catalog manifest in storage")
        return json.loads(json.dumps(self._manifest))

    def exists(self):
        return self._manifest is not None

    def prune(self, keep):
        for name in [n for n in self._files if n not in keep]:
            del self._files[name]


class MmapBackend(HeapStorage):
    """Directory-of-files storage reopened through ``np.memmap``."""

    def __init__(self, path):
        self.path = os.fspath(path)
        self._lock = None

    def _file(self, name):
        return os.path.join(self.path, name)

    def lock(self):
        # one cached instance per backend so nested acquisition inside
        # this process is re-entrant instead of self-deadlocking
        if self._lock is None:
            self._lock = CatalogLock(self._file(LOCKFILE))
        return self._lock

    @contextlib.contextmanager
    def heap_file(self, name):
        os.makedirs(self.path, exist_ok=True)
        # write-to-temp + fsync + rename: the heaps may be np.memmap
        # views of this directory's files (saving a kernel back to the
        # directory it was opened from) — truncating in place would
        # SIGBUS the copy; skipping the fsync would let the post-crash
        # filesystem keep the rename but drop the bytes
        staging = self._file(name + ".tmp")
        with open(staging, "wb") as handle:
            heaps = HeapFile(name, handle)
            yield heaps
            spec = faults.fire("storage.write_array.torn")
            if spec is not None:
                handle.flush()
                handle.truncate(int(heaps.size * spec.fraction))
                spec.conclude()
            handle.flush()
            faults.fire("storage.write_array.staged")
            os.fsync(handle.fileno())
        faults.fire("storage.write_array.synced")
        os.replace(staging, self._file(name))
        faults.fire("storage.write_array.renamed")

    def map_file(self, name):
        path = self._file(name)
        try:
            size = os.path.getsize(path)
        except OSError:
            raise HeapError("heap file %r missing from %s"
                            % (name, self.path)) from None
        if size == 0:                     # mmap cannot map an empty file
            return np.empty(0, dtype=np.uint8)
        return np.memmap(path, dtype=np.uint8, mode="r")

    def write_manifest(self, manifest):
        os.makedirs(self.path, exist_ok=True)
        staging = self._file(MANIFEST + ".tmp")
        payload = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        spec = faults.fire("storage.manifest.torn")
        if spec is not None:
            with open(staging, "w") as handle:
                handle.write(payload[:int(len(payload)
                                          * spec.fraction)])
            spec.conclude()
        with open(staging, "w") as handle:
            handle.write(payload)
            handle.flush()
            faults.fire("storage.manifest.staged")
            os.fsync(handle.fileno())
        faults.fire("storage.manifest.synced")
        os.replace(staging, self._file(MANIFEST))
        faults.fire("storage.manifest.renamed")
        # one directory fsync after the manifest rename makes the whole
        # save durable: the generation's heap file was fsynced before
        # its rename, and both renames live in this one directory
        self.sync_directory()

    def read_manifest(self):
        path = self._file(MANIFEST)
        if not os.path.exists(path):
            raise CatalogError("no catalog manifest at %s" % path)
        try:
            with open(path) as handle:
                manifest = json.load(handle)
        except ValueError as exc:
            raise CatalogError("corrupt catalog manifest at %s: %s"
                               % (path, exc)) from None
        if not isinstance(manifest, dict):
            raise CatalogError("corrupt catalog manifest at %s: not an "
                               "object" % path)
        return manifest

    def exists(self):
        return os.path.exists(self._file(MANIFEST))

    #: suffixes this backend ever writes — pruning is limited to them
    #: so foreign files in the directory are never touched
    _OWNED_SUFFIXES = (".heaps", ".col", ".idx", ".off", ".body",
                       ".order", ".keys", ".extent", ".tmp")

    def prune(self, keep):
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in names:
            if name in keep or name == MANIFEST:
                continue
            if not name.endswith(self._OWNED_SUFFIXES):
                continue
            try:
                os.unlink(self._file(name))
            except OSError:
                pass

    def sweep_stale(self, manifest):
        # everything the durable manifest references is kept; staging
        # ``.tmp`` litter and heap files of a crashed save's dead
        # generation are orphans with owned suffixes, so prune's
        # keep-set logic is exactly the recovery sweep
        try:
            self.prune(_manifest_files(manifest))
        except Exception:                        # best effort on open
            pass

    def sync_directory(self):
        if not hasattr(os, "O_DIRECTORY"):      # pragma: no cover
            return
        try:
            fd = os.open(self.path, os.O_RDONLY | os.O_DIRECTORY)
        except OSError:                          # pragma: no cover
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def as_backend(target):
    """Coerce a path (or pass a backend through) to a HeapStorage."""
    if isinstance(target, HeapStorage):
        return target
    return MmapBackend(target)


# ----------------------------------------------------------------------
# generation counter
# ----------------------------------------------------------------------
def catalog_generation(target):
    """The saved catalog's generation counter (0 for pre-protocol
    manifests that never recorded one); raises CatalogError when no
    manifest exists."""
    manifest = as_backend(target).read_manifest()
    return _generation_of(manifest)


def _generation_of(manifest):
    generation = manifest.get("generation", 0)
    if not isinstance(generation, int) or generation < 0:
        raise CatalogError("manifest generation %r is not a "
                           "non-negative integer" % (generation,))
    return generation


def _previous_generation(backend):
    """Last durable generation, treating absent/corrupt manifests as 0
    (a crashed save leaves no openable manifest; the counter must keep
    moving forward regardless)."""
    try:
        return _generation_of(backend.read_manifest())
    except CatalogError:
        return 0


def generation_prefix(generation):
    """File-name prefix scoping heap files to one generation.

    Every save writes its heaps under a fresh name (``g<N>.heaps``), so
    the previous generation's file is never renamed over or truncated:
    a save killed at *any* point before its manifest rename leaves the
    old generation byte-for-byte intact, and the new generation's
    half-written file is an unreferenced orphan for the recovery
    sweep.  Pre-existing catalogs with unprefixed names keep opening
    unchanged — readers take file names from the manifest."""
    return "g%d." % generation


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_kernel(kernel, target, meta=None, lock_timeout=None):
    """Persist a kernel catalog; returns the manifest dict.

    Every catalog BAT is written with its properties, alignment group
    and datavector value vector, all heaps into one file; shared var
    heaps are written once and re-shared on open.  The manifest is
    written last, so a crashed save never leaves an
    openable-but-inconsistent database behind.

    The whole save runs under the backend's **exclusive** catalog lock
    and bumps the manifest's generation counter, so concurrent savers
    serialise and concurrent readers always observe a complete
    generation.
    """
    backend = as_backend(target)
    with backend.lock().exclusive(lock_timeout):
        return _save_kernel_locked(kernel, backend, meta)


def _save_kernel_locked(kernel, backend, meta):
    generation = _previous_generation(backend) + 1
    prefix = generation_prefix(generation)
    # recovery sweep before writing anything: a previously crashed
    # save may have left ``.tmp`` staging litter or orphaned heap
    # files of a dead generation behind
    try:
        backend.prune(_manifest_files(backend.read_manifest()))
    except (CatalogError, KeyError):
        backend.prune(set())
    faults.fire("storage.save.begin")
    groups = _AlignmentGroups()
    var_heaps = {}
    bats = {}
    registries = dict(kernel.registries)
    datavectors = {}
    with backend.heap_file(prefix + "heaps") as heaps:
        for name in kernel.names():
            bat = kernel.get(name)
            entry = {
                "head": _save_column(heaps, var_heaps, bat.head),
                "tail": _save_column(heaps, var_heaps, bat.tail),
                "props": [flag for flag in _PROP_FLAGS
                          if getattr(bat.props, flag)],
                "alignment": groups.index_of(bat.alignment),
            }
            accel = _save_accelerators(heaps, var_heaps, bat, registries)
            if accel:
                entry["accel"] = accel
            bats[name] = entry
        for class_name, registry in sorted(registries.items()):
            # when the registry's extent column is a catalog BAT's head
            # (the create_datavectors construction), record the share
            # so the reopen re-attaches the same heap — otherwise the
            # fault accounting would charge extent pages to two
            # distinct heaps
            shared = _extent_bat_of(kernel, registry)
            if shared is not None:
                datavectors[class_name] = {"extent_bat": shared}
                continue
            offset = heaps.append(np.asarray(registry.extent,
                                             dtype=np.int64))
            datavectors[class_name] = {"extent": {
                "file": heaps.name, "offset": offset, "dtype": "<i8",
                "length": len(registry.extent)}}
    faults.fire("storage.save.heaps_written")
    manifest = {
        "format": FORMAT,
        "version": VERSION,
        "generation": generation,
        "meta": dict(meta or {}),
        "alignment_groups": groups.tags,
        "var_heaps": dict(var_heaps.values()),
        "bats": bats,
        "datavectors": datavectors,
    }
    backend.write_manifest(manifest)
    faults.fire("storage.save.manifest_written")
    # with the new manifest durable, drop files it no longer
    # references (every file name carries its generation, so a re-save
    # would otherwise strand the previous save's files forever).  Readers
    # that mapped the previous generation keep their inodes alive;
    # only the directory entries go.
    backend.prune(_manifest_files(manifest))
    return manifest


def _manifest_files(manifest):
    """Every storage name a manifest references (pruning keep-set)."""
    keep = set()

    def column_files(spec):
        if spec.get("file"):
            keep.add(spec["file"])

    for entry in manifest["bats"].values():
        column_files(entry["head"])
        column_files(entry["tail"])
        accel = entry.get("accel", {})
        if "datavector" in accel:
            column_files(accel["datavector"]["vector"])
    for spec in manifest["var_heaps"].values():
        keep.add(spec["offsets"])
        keep.add(spec["body"])
    for entry in manifest.get("datavectors", {}).values():
        if "extent" in entry:
            keep.add(entry["extent"]["file"])
    return keep


def _extent_bat_of(kernel, registry):
    """Catalog BAT whose head column backs the registry's extent."""
    extent_heaps = {heap.heap_id for heap in
                    registry.extent_column.heaps}
    if not extent_heaps:
        return None
    for name in kernel.names():
        head = kernel.get(name).head
        if any(heap.heap_id in extent_heaps for heap in head.heaps):
            return name
    return None


class _AlignmentGroups:
    """Token -> dense group index, remembering each group's tag."""

    def __init__(self):
        self._index = {}
        self.tags = []

    def index_of(self, token):
        if token is None:
            return None
        index = self._index.get(token)
        if index is None:
            index = self._index[token] = len(self.tags)
            tag = token[0] if (isinstance(token, tuple) and token
                               and isinstance(token[0], str)) else "anon"
            self.tags.append(tag)
        return index


def _save_column(heaps, var_heaps, column):
    if isinstance(column, VoidColumn):
        return {"kind": "void", "seqbase": column.seqbase,
                "length": column.length}
    if isinstance(column, VarColumn):
        heap_key = _save_var_heap(heaps, var_heaps, column.heap)
        return {"kind": "var", "atom": column.atom.name,
                "file": heaps.name,
                "offset": heaps.append(column.indices), "dtype": "<i4",
                "length": len(column), "heap": heap_key,
                "label": column._index_heap.label}
    if isinstance(column, FixedColumn):
        return {"kind": "fixed", "atom": column.atom.name,
                "file": heaps.name, "offset": heaps.append(column.data),
                "dtype": _le(column.data.dtype).str,
                "length": len(column), "label": column._heap.label}
    raise CatalogError("cannot persist column type %s"
                       % type(column).__name__)


def _save_var_heap(heaps, var_heaps, heap):
    """Write ``heap`` once per save; ``var_heaps`` maps heap id ->
    (key, manifest spec).  Keys count heaps in save (catalog) order,
    so equal catalogs save byte-identical files whatever order the
    process allocated their heaps in."""
    saved = var_heaps.get(heap.heap_id)
    if saved is not None:
        return saved[0]
    key = "vh%d" % len(var_heaps)
    if isinstance(heap, MappedVarHeap) and not heap.decoded:
        offsets = np.asarray(heap._offsets, dtype=np.int64)
        body = np.asarray(heap._body, dtype=np.uint8)
    else:
        lengths, data = utf8_column(heap.values, terminator="\0")
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths + 1, out=offsets[1:])
        body = np.frombuffer(data, dtype=np.uint8)
    var_heaps[heap.heap_id] = (key, {
        "offsets": heaps.name, "offsets_offset": heaps.append(offsets),
        "body": heaps.name, "body_offset": heaps.append(body),
        "count": int(len(offsets) - 1),
        "body_bytes": int(offsets[-1]) if len(offsets) else 0,
        "label": heap.label})
    return key


def _save_accelerators(heaps, var_heaps, bat, registries):
    accel = {}
    vector = bat.accel.get("datavector")
    if vector is not None:
        registries.setdefault(vector.registry.class_name,
                              vector.registry)
        accel["datavector"] = {
            "class": vector.registry.class_name,
            "vector": _save_column(heaps, var_heaps, vector.vector),
        }
    return accel


# ----------------------------------------------------------------------
# open
# ----------------------------------------------------------------------
def open_with_protocol(backend, map_manifest, expected_generation=None,
                       lock_timeout=None, retries=OPEN_RETRIES):
    """Read the manifest and map its files under the open protocol.

    The one implementation of the reader side of the shared-catalog
    protocol, used by :func:`open_kernel`: the manifest is read
    and ``map_manifest(manifest)`` invoked under the backend's shared
    lock; ``expected_generation`` pins the open (typed
    ``StaleCatalogError``/``CatalogChangedError`` on mismatch); a
    :class:`~repro.errors.HeapError` from ``map_manifest`` with a
    moved generation retries on the new manifest, as does a
    *lock-free* open (no ``fcntl``, unwritable lock file) whose
    generation moved mid-mapping without tripping a ``HeapError``
    (same file names, same sizes — only a save still in flight on
    such a platform remains undetectable).  Returns
    ``(result, generation)``.
    """
    attempt = 0
    while True:
        lock = backend.lock()
        with lock.shared(lock_timeout):
            manifest = backend.read_manifest()
            generation = _generation_of(manifest)
            if expected_generation is not None \
                    and generation != expected_generation:
                if generation < expected_generation:
                    raise StaleCatalogError(
                        "stale manifest: generation %d on disk, caller "
                        "expects %d" % (generation, expected_generation))
                raise CatalogChangedError(
                    "catalog was rewritten: generation %d on disk, "
                    "caller pinned %d" % (generation,
                                          expected_generation))
            try:
                result = map_manifest(manifest)
            except HeapError as exc:
                # a writer replaced the catalog between our manifest
                # read and the heap mapping (lockless reader or no
                # fcntl): if the generation moved, retry on the new
                # manifest; otherwise the database is really damaged
                if expected_generation is None and attempt < retries \
                        and _previous_generation(backend) != generation:
                    attempt += 1
                    continue
                if _previous_generation(backend) != generation:
                    raise CatalogChangedError(
                        "catalog was rewritten while opening "
                        "generation %d" % generation) from exc
                raise
            if not lock.held \
                    and _previous_generation(backend) != generation:
                if expected_generation is None and attempt < retries:
                    attempt += 1
                    continue
                raise CatalogChangedError(
                    "catalog was rewritten while opening generation "
                    "%d (lock-free reader)" % generation)
            if lock.held:
                # recovery sweep: under the shared lock no writer can
                # be staging files, so every ``.tmp`` and every
                # unreferenced heap file is litter from a crashed
                # save.  Lock-free readers must not sweep — they could
                # race a live writer's staging files.
                backend.sweep_stale(manifest)
            return result, generation


def open_kernel(target, buffer_manager=None, kernel=None,
                expected_generation=None, lock_timeout=None,
                retries=OPEN_RETRIES):
    """Reopen a saved catalog; returns a populated MonetKernel.

    Columns come back as ``np.memmap`` views of one mapping per heap
    file (mmap backend) and var heaps decode lazily, so no heap data
    is read eagerly; properties
    are restored from the manifest rather than recomputed, and BATs of
    one alignment group come back mutually synced.

    Shared-catalog protocol: the manifest is read and its heap files
    mapped under the backend's *shared* lock, so a concurrent save
    (exclusive lock) can never prune files out from under the mapping
    pass.  ``expected_generation`` pins the open to one generation —
    an older manifest raises :class:`~repro.errors.StaleCatalogError`,
    a newer one :class:`~repro.errors.CatalogChangedError` (the worker
    fan-out uses this so every process provably serves the same
    snapshot).  Without a pin, losing the race between reading the
    manifest and mapping its files (possible when the reader skipped
    the lock, or on backends without ``fcntl``) retries on the newer
    manifest up to ``retries`` times.  The returned kernel records
    ``kernel.generation`` and ``kernel.origin``.
    """
    from .kernel import MonetKernel

    backend = as_backend(target)
    kernel_factory = (type(kernel) if kernel is not None
                      else MonetKernel)
    calls = {"count": 0}

    def map_manifest(manifest):
        _check_manifest(manifest)
        calls["count"] += 1
        target_kernel = kernel if calls["count"] == 1 \
            and kernel is not None else kernel_factory(buffer_manager)
        return _open_manifest(backend, manifest, target_kernel,
                              buffer_manager)

    opened, generation = open_with_protocol(
        backend, map_manifest, expected_generation=expected_generation,
        lock_timeout=lock_timeout, retries=retries)
    opened.generation = generation
    opened.origin = backend
    return opened


def _open_manifest(backend, manifest, kernel, buffer_manager):
    from .kernel import MonetKernel, mark_persistent

    if kernel is None:
        kernel = MonetKernel(buffer_manager)
    tokens = [fresh_alignment(tag) for tag in manifest["alignment_groups"]]
    for tag, token in zip(manifest["alignment_groups"], tokens):
        if tag.startswith("load:"):
            kernel._group_alignment.setdefault(tag[len("load:"):], token)
    opener = _Opener(backend, manifest["var_heaps"])
    entries = manifest["bats"]
    for name in sorted(entries):
        entry = entries[name]
        bat = BAT(opener.column(entry["head"]),
                  opener.column(entry["tail"]),
                  props=_open_props(entry.get("props", ())),
                  alignment=_token_of(tokens, entry.get("alignment")))
        mark_persistent(bat)
        kernel.register(name, bat)
    registries = {}
    for class_name, spec in sorted(manifest.get("datavectors",
                                                {}).items()):
        extent_bat = spec.get("extent_bat")
        extent_spec = spec.get("extent")
        if extent_bat is not None and extent_bat in kernel:
            # re-share the extent BAT's head heap (see save side)
            column = kernel.get(extent_bat).head
        elif extent_spec is not None:
            extent = opener.array(extent_spec)
            column = FixedColumn(_atoms.OID, extent, label=class_name)
            _note_mapped(column._heap, extent)
            column._heap.persistent = True
        else:
            raise CatalogError("datavector entry for %r has no extent"
                               % class_name)
        registry = DataVectorRegistry(class_name, column, check=False)
        registries[class_name] = registry
    kernel.registries.update(registries)
    for name in sorted(entries):
        _open_accelerators(opener, registries, entries[name],
                           kernel.get(name))
    return kernel


def _check_manifest(manifest):
    if manifest.get("format") != FORMAT:
        raise CatalogError("not a %s manifest (format=%r)"
                           % (FORMAT, manifest.get("format")))
    if not isinstance(manifest.get("version"), int) \
            or manifest["version"] > VERSION:
        raise CatalogError("manifest version %r is not supported "
                           "(this build reads <= %d)"
                           % (manifest.get("version"), VERSION))
    for key in ("alignment_groups", "var_heaps", "bats"):
        if key not in manifest:
            raise CatalogError("manifest misses required key %r" % key)


def _token_of(tokens, index):
    if index is None:
        return None
    if not isinstance(index, int) or not 0 <= index < len(tokens):
        raise CatalogError("alignment group %r out of range" % (index,))
    return tokens[index]


def _open_props(flags):
    unknown = [flag for flag in flags if flag not in _PROP_FLAGS]
    if unknown:
        raise CatalogError("unknown property flags %r in manifest"
                           % (unknown,))
    return Props(**{flag: True for flag in flags})


def _note_mapped(heap, *arrays):
    mapped = tuple(array for array in arrays
                   if isinstance(array, np.memmap))
    if mapped:
        heap.mapped = mapped


class _Opener:
    """Column/heap reader: maps each distinct file once and hands out
    views of it, and de-duplicates shared var heaps."""

    def __init__(self, backend, var_specs):
        self.backend = backend
        self.var_specs = var_specs
        self._heaps = {}
        self._files = {}

    def view(self, name, dtype, length, offset=0):
        """``dtype[length]`` at byte ``offset`` of file ``name`` — an
        ``np.memmap`` view of the file's one mapping (mmap backend).
        A spec written before heaps shared a file has no offset: its
        file is the heap, read at 0."""
        blob = self._files.get(name)
        if blob is None:
            blob = self._files[name] = self.backend.map_file(name)
        dtype = np.dtype(dtype)
        if not isinstance(offset, int) or offset < 0 \
                or not isinstance(length, int) or length < 0:
            raise CatalogError("bad heap extent (offset %r, length %r) "
                               "in manifest" % (offset, length))
        end = offset + dtype.itemsize * length
        if end > len(blob):
            raise HeapError(
                "heap file %r truncated: %d bytes on disk, manifest "
                "reads up to %d" % (name, len(blob), end))
        if length == 0:
            return np.empty(0, dtype=dtype)
        return blob[offset:end].view(dtype)

    def array(self, spec):
        try:
            return self.view(spec["file"], spec["dtype"], spec["length"],
                             spec.get("offset", 0))
        except KeyError as exc:
            raise CatalogError("column spec misses key %s" % exc) from None

    def column(self, spec):
        kind = spec.get("kind")
        if kind == "void":
            return VoidColumn(spec["seqbase"], spec["length"])
        if kind == "fixed":
            data = self.array(spec)
            column = FixedColumn(_atoms.atom(spec["atom"]), data,
                                 label=spec.get("label", ""))
            _note_mapped(column._heap, column.data)
            return column
        if kind == "var":
            indices = self.array(spec)
            heap = self.var_heap(spec["heap"])
            column = VarColumn(_atoms.atom(spec["atom"]), indices, heap,
                               label=spec.get("label", ""))
            _note_mapped(column._index_heap, column.indices)
            return column
        raise CatalogError("unknown column kind %r in manifest" % (kind,))

    def var_heap(self, key):
        heap = self._heaps.get(key)
        if heap is not None:
            return heap
        spec = self.var_specs.get(key)
        if spec is None:
            raise CatalogError("var heap %r missing from manifest" % key)
        offsets = self.view(spec["offsets"], "<i8", spec["count"] + 1,
                            spec.get("offsets_offset", 0))
        body = self.view(spec["body"], "|u1", spec["body_bytes"],
                         spec.get("body_offset", 0))
        heap = MappedVarHeap(offsets, body, label=spec.get("label", ""))
        self._heaps[key] = heap
        return heap


def _open_accelerators(opener, registries, entry, bat):
    accel = entry.get("accel")
    if not accel:
        return
    vector_spec = accel.get("datavector")
    if vector_spec is not None:
        registry = registries.get(vector_spec["class"])
        if registry is None:
            raise CatalogError(
                "BAT %r references unknown datavector class %r"
                % (bat.name, vector_spec["class"]))
        vector = opener.column(vector_spec["vector"])
        for heap in vector.heaps:
            heap.persistent = True
        bat.accel["datavector"] = DataVector(registry, vector)


# ----------------------------------------------------------------------
# real-pager residency (Linux)
# ----------------------------------------------------------------------
def _smaps_rss_by_path():
    """path -> Rss bytes of this process's file mappings.

    One ``/proc/self/smaps`` parse covering every mapping (Linux);
    returns ``None`` when the accounting is unavailable.  This counts
    the pages our mappings actually faulted in — unlike ``mincore``,
    which reports page-cache residency and so counts pages cached by
    the writer too.
    """
    try:
        with open("/proc/self/smaps") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return None
    totals = {}
    current = None
    for line in lines:
        fields = line.split(None, 5)
        first = fields[0] if fields else ""
        if "-" in first and all(c in "0123456789abcdef-" for c in first):
            # mapping header: "start-end perms offset dev inode [path]"
            current = fields[5] if len(fields) == 6 else None
        elif current is not None and line.startswith("Rss:"):
            totals[current] = totals.get(current, 0) \
                + int(line.split()[1]) * 1024
    return totals


def mapped_file_rss(path, rss_table=None):
    """Bytes of ``path`` faulted into *this* process's mappings.

    Counts per file, so it cannot split a save's one heap file by
    heap; :func:`heap_resident_pages` reads the page table instead.
    Pass a precomputed :func:`_smaps_rss_by_path` table when querying
    many files — each fresh parse walks every VMA of the process.
    """
    if path is None:
        return None
    if rss_table is None:
        rss_table = _smaps_rss_by_path()
    if rss_table is None:
        return None
    return rss_table.get(os.path.abspath(path), 0)


def resident_page_count(array, page_size=PAGESIZE):
    """Pages of a mapped array resident in memory, via ``mincore``.

    Reports page-cache residency of the mapped range; returns ``None``
    when ``mincore`` is unavailable (non-POSIX platforms).
    """
    import ctypes
    array = np.asanyarray(array)
    if array.nbytes == 0:
        return 0
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        mincore = libc.mincore
    except (OSError, AttributeError):
        return None
    address = array.__array_interface__["data"][0]
    start = address - (address % page_size)
    length = array.nbytes + (address - start)
    n_pages = -(-length // page_size)
    vec = (ctypes.c_ubyte * n_pages)()
    result = mincore(ctypes.c_void_p(start), ctypes.c_size_t(length), vec)
    if result != 0:
        return None
    return int(sum(byte & 1 for byte in vec))


def iter_catalog_heaps(kernel):
    """Every distinct heap behind the catalog, accelerators included."""
    seen = set()
    for name in kernel.names():
        bat = kernel.get(name)
        for column in (bat.head, bat.tail):
            for heap in column.heaps:
                if heap.heap_id not in seen:
                    seen.add(heap.heap_id)
                    yield heap
        vector = bat.accel.get("datavector")
        if vector is not None:
            for heap in vector.vector.heaps:
                if heap.heap_id not in seen:
                    seen.add(heap.heap_id)
                    yield heap


def _present_pages(array, pagemap):
    """Pages of ``array``'s address range present in this process's
    page table — what smaps' ``Rss`` counts, but for any range, so
    one heap of a shared file counts alone.  ``pagemap`` is an open
    ``/proc/self/pagemap`` (one 64-bit entry per virtual page, bit 63
    "present"); returns ``None`` when it cannot be read."""
    if array.nbytes == 0:
        return 0
    address = array.__array_interface__["data"][0]
    first = address // PAGESIZE
    count = (address + array.nbytes - 1) // PAGESIZE - first + 1
    try:
        pagemap.seek(first * 8)
        raw = pagemap.read(count * 8)
    except OSError:
        return None
    if len(raw) != count * 8:
        return None
    entries = np.frombuffer(raw, dtype="<u8")
    return int(np.count_nonzero(entries >> np.uint64(63)))


@contextlib.contextmanager
def _open_pagemap():
    """``/proc/self/pagemap`` opened for reading, or ``None`` where the
    platform has none."""
    try:
        handle = open("/proc/self/pagemap", "rb", buffering=0)
    except OSError:
        yield None
        return
    with handle:
        yield handle


def heap_resident_pages(heap, page_size=PAGESIZE, pagemap=None):
    """Real faulted-in pages of one mmap-backed heap (in units of
    ``page_size``), or ``None``."""
    arrays = getattr(heap, "mapped", None)
    if not arrays:
        return None
    if pagemap is None:
        with _open_pagemap() as handle:
            if handle is None:
                return None
            return heap_resident_pages(heap, page_size, handle)
    total = 0
    for array in arrays:
        pages = _present_pages(array, pagemap)
        if pages is None:
            return None
        total += pages
    return total * PAGESIZE // page_size


def residency_snapshot(kernel, page_size=PAGESIZE):
    """heap_id -> real resident pages, for every mmap-backed heap."""
    snapshot = {}
    with _open_pagemap() as pagemap:
        if pagemap is None:
            return snapshot
        for heap in iter_catalog_heaps(kernel):
            pages = heap_resident_pages(heap, page_size, pagemap)
            if pages is not None:
                snapshot[heap.heap_id] = pages
    return snapshot


def residency_report(kernel, manager, before=None, page_size=PAGESIZE):
    """Simulated vs real page touches, per mmap-backed heap.

    ``manager`` must be a :class:`~repro.monet.buffer.BufferManager`
    created with ``track_pages=True`` that accounted the run;
    ``before`` is an optional :func:`residency_snapshot` taken before
    the run, subtracted from the real counts.  Returns a list of
    per-heap dicts plus a totals dict — the validation mode for the
    Figure 9/10 fault traces.
    """
    before = before or {}
    touched = manager.touched_page_counts()
    rows = []
    total_sim = total_real = 0
    reals = residency_snapshot(kernel, page_size)
    for heap in iter_catalog_heaps(kernel):
        real = reals.get(heap.heap_id)
        if real is None:
            continue
        real_delta = max(0, real - before.get(heap.heap_id, 0))
        simulated = touched.get(heap.heap_id, 0)
        if real_delta == 0 and simulated == 0:
            continue
        total_sim += simulated
        total_real += real_delta
        rows.append({
            "heap_id": heap.heap_id,
            "label": heap.label,
            "nbytes": int(heap.nbytes),
            "simulated_pages": int(simulated),
            "resident_pages": int(real_delta),
        })
    totals = {
        "simulated_pages": int(total_sim),
        "resident_pages": int(total_real),
        "page_size": int(page_size),
    }
    return rows, totals
