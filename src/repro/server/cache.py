"""Server-side caches: an LRU (plan cache) and a byte-weighted
result cache with TTL, generation invalidation, and buffer dedup.

Two cache shapes run inside the query service.  The **plan cache**
(:class:`LRUCache`, one per worker process) maps query text + catalog
generation to a compiled MIL plan — entry-counted, because compiled
plans are small and uniform.  The parent-side **result cache**
(:class:`ResultCache`) holds finished canonical result values, which
are anything but uniform: a scalar aggregate and a million-row column
differ by six orders of magnitude, so the cache is **byte-weighted**
against a configurable budget, expires entries past a TTL, drops a
retired generation's entries wholesale, and — because replicated
results often replicate their column buffers bit-for-bit —
deduplicates identical ndarray buffers by content hash, so replicas
share bytes instead of multiplying resident weight.

Both expose their counters through the server's ``stats`` request,
which is how cache effectiveness (and the byte budget) is observed
from the outside.
"""

import hashlib
import threading
import time
from collections import OrderedDict

import numpy as np

from ..monet.multiproc import is_batch, is_row


class CacheStats:
    """Cumulative counters of one cache instance.

    ``evictions`` counts every entry dropped for any reason (capacity,
    TTL expiry, or invalidation); ``invalidations`` and
    ``expirations`` break out the drops by cause, so a generation
    bump's sweep is visible in the server stats rather than folded
    silently into capacity pressure.
    """

    __slots__ = ("hits", "misses", "evictions", "invalidations",
                 "expirations")

    def __init__(self, hits=0, misses=0, evictions=0,
                 invalidations=0, expirations=0):
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.invalidations = invalidations
        self.expirations = expirations

    @property
    def lookups(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        lookups = self.lookups
        return (self.hits / lookups) if lookups else 0.0

    def as_dict(self):
        return {"hits": int(self.hits), "misses": int(self.misses),
                "evictions": int(self.evictions),
                "invalidations": int(self.invalidations),
                "expirations": int(self.expirations),
                "hit_rate": round(self.hit_rate, 4)}

    def __repr__(self):
        return ("CacheStats(hits=%d, misses=%d, evictions=%d, "
                "invalidations=%d, expirations=%d)"
                % (self.hits, self.misses, self.evictions,
                   self.invalidations, self.expirations))


class LRUCache:
    """Bounded mapping with least-recently-*used* eviction.

    ``capacity <= 0`` disables the cache entirely: every lookup
    misses, nothing is stored — callers need no special-casing for
    the "cache turned off" configuration.
    """

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._items = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key, default=None):
        """The cached value (refreshing recency), or ``default``."""
        with self._lock:
            try:
                value = self._items[key]
            except KeyError:
                self.stats.misses += 1
                return default
            self._items.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key, value):
        """Insert/replace; evicts the LRU entry beyond capacity."""
        if self.capacity <= 0:
            return
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self.capacity:
                self._items.popitem(last=False)
                self.stats.evictions += 1

    def invalidate(self, predicate=None):
        """Drop entries (all, or those whose *key* matches).

        The generation-bump path: ``invalidate(lambda key:
        key[-1] < new_generation)`` drops plans/results of superseded
        snapshots while newer entries survive.  Dropped entries count
        as evictions *and* invalidations, so a sweep is visible in the
        stats instead of silently shrinking ``size``.
        """
        with self._lock:
            if predicate is None:
                dropped = len(self._items)
                self._items.clear()
            else:
                doomed = [key for key in self._items if predicate(key)]
                for key in doomed:
                    del self._items[key]
                dropped = len(doomed)
            self.stats.evictions += dropped
            self.stats.invalidations += dropped
            return dropped

    def __len__(self):
        with self._lock:
            return len(self._items)

    def __contains__(self, key):
        with self._lock:
            return key in self._items

    def snapshot(self):
        """``{"size": ..., "capacity": ..., hits/misses/...}``.

        The stats read happens under ``_lock`` too: counters bump
        under the lock, so reading them outside it could tear a
        snapshot across a concurrent put's hit/eviction updates.
        """
        with self._lock:
            entry = {"size": len(self._items),
                     "capacity": self.capacity}
            entry.update(self.stats.as_dict())
        return entry


# ----------------------------------------------------------------------
# the byte-weighted result cache
# ----------------------------------------------------------------------
#: Charged per structural node (dict/list/Row/scalar) of an interned
#: value — the non-buffer overhead a cached entry keeps resident.
NODE_OVERHEAD = 64


def _freeze_array(array):
    """A contiguous read-only array sharing no memory with a writable
    ``array``.

    Already-frozen contiguous arrays (a zero-copy wire decode, or a
    previously interned buffer) are shared as-is; anything writable is
    copied, so no caller holds a handle that could mutate cached
    bytes after the fact."""
    data = np.ascontiguousarray(array)
    if data.flags.writeable:
        data = data.copy()
        data.setflags(write=False)
    return data


def _buffer_key(data):
    """Content-hash identity of an array's bytes + dtype + shape."""
    digest = hashlib.sha1()
    digest.update(data.dtype.str.encode("ascii"))
    digest.update(str(data.shape).encode("ascii"))
    if data.nbytes:
        digest.update(memoryview(data).cast("B"))
    return digest.digest()


def materialize(value):
    """A structurally fresh copy of an interned value.

    Containers (dicts, lists, tuples, Rows, RowBatches) are rebuilt so
    no caller can mutate the cached entry through a served response;
    read-only ndarrays, strings, bytes, and Refs are shared — they are
    immutable (or frozen by interning), and sharing them is the entire
    point of the buffer dedup.  For a batch that is O(fields): a new
    container over the same frozen columns.
    """
    if isinstance(value, dict):
        return {key: materialize(item) for key, item in value.items()}
    if isinstance(value, list):
        return [materialize(item) for item in value]
    if isinstance(value, tuple):
        return tuple(materialize(item) for item in value)
    if isinstance(value, np.ndarray):
        return value
    if is_batch(value):
        return type(value)(value.names, value.columns,
                           value.ref_classes)
    if is_row(value):
        return type(value)([(name, materialize(item))
                            for name, item in zip(value.names,
                                                  value.values)])
    return value


class _Tally:
    """Byte accounting accumulated across one interning walk."""

    __slots__ = ("buffer_bytes", "overhead")

    def __init__(self):
        self.buffer_bytes = 0       # bytes newly added to the pool
        self.overhead = 0           # structural (non-buffer) estimate


class _Entry:
    __slots__ = ("key", "checksum", "value", "meta", "overhead",
                 "buffer_keys", "stamp")

    def __init__(self, key, checksum, value, meta, overhead,
                 buffer_keys, stamp):
        self.key = key
        self.checksum = checksum
        self.value = value          # interned: frozen arrays, pooled
        self.meta = meta            # extra response fields (JSON-y)
        self.overhead = overhead    # non-buffer resident bytes charged
        self.buffer_keys = buffer_keys
        self.stamp = stamp

    def response(self):
        """A fresh response dict for one hit (or the initial miss).

        The containers are rebuilt per call (:func:`materialize`), so
        mutating a served response can never corrupt the cached entry
        or any other response built from it.
        """
        response = {"type": "result", "checksum": self.checksum,
                    "payload": materialize(self.value)}
        response.update(self.meta)
        return response


class ResultCache:
    """Byte-weighted LRU over canonical result values.

    Parameters
    ----------
    budget_bytes:
        Total resident bytes the cache may hold — unique (deduped)
        array-buffer bytes plus :data:`NODE_OVERHEAD`-estimated
        structure.  ``<= 0`` disables the cache (every ``get``
        misses, ``put`` stores nothing).  A single value larger than
        the whole budget is not admitted at all; the budget is a hard
        ceiling, never exceeded even transiently between put and
        eviction.
    ttl_s:
        Seconds an entry stays servable after insertion (``None`` =
        no expiry).  Expiry is lazy-on-get plus a sweep on every put,
        so expired entries do not squat on the byte budget.
    clock:
        Injectable monotonic clock (tests).

    Entries are interned on ``put``: containers are rebuilt, arrays
    frozen read-only and deduplicated through a content-hash buffer
    pool shared by all entries — two cached results carrying
    bit-identical columns charge those bytes once.  ``get`` returns
    the :class:`_Entry`; callers build responses via
    :meth:`_Entry.response`, which deep-copies the structure, so a
    cached entry is immutable from the outside.
    """

    def __init__(self, budget_bytes, ttl_s=None, clock=time.monotonic):
        self.budget_bytes = int(budget_bytes)
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self._clock = clock
        self._items = OrderedDict()         # key -> _Entry, LRU order
        self._pool = {}                     # buffer key -> [array, rc]
        self._bytes = 0
        self._peak_bytes = 0
        self._dedup_hits = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # -- interning ------------------------------------------------------
    def _intern(self, value, buffer_keys, tally):
        """Rebuild ``value`` with pooled read-only arrays.

        ``tally`` accumulates ``buffer_bytes`` (bytes this entry adds
        to the pool — buffers already resident are free) and
        ``overhead`` (the structural-node estimate the entry itself
        keeps resident).
        """
        if isinstance(value, np.ndarray) and value.dtype != object:
            data = _freeze_array(value)
            key = _buffer_key(data)
            slot = self._pool.get(key)
            if slot is None:
                self._pool[key] = [data, 1]
                tally.buffer_bytes += data.nbytes
            else:
                slot[1] += 1
                data = slot[0]
                self._dedup_hits += 1
            buffer_keys.append(key)
            return data
        tally.overhead += NODE_OVERHEAD
        if isinstance(value, np.ndarray):       # object dtype
            array = np.empty(len(value), dtype=object)
            for index, item in enumerate(value.tolist()):
                array[index] = self._intern(item, buffer_keys, tally)
            array.setflags(write=False)
            return array
        if isinstance(value, dict):
            return {key: self._intern(item, buffer_keys, tally)
                    for key, item in value.items()}
        if isinstance(value, list):
            return [self._intern(item, buffer_keys, tally)
                    for item in value]
        if isinstance(value, tuple):
            return tuple(self._intern(item, buffer_keys, tally)
                         for item in value)
        if is_batch(value):
            return type(value)(
                value.names,
                [self._intern(column, buffer_keys, tally)
                 for column in value.columns],
                value.ref_classes)
        if is_row(value):
            return type(value)([
                (name, self._intern(item, buffer_keys, tally))
                for name, item in zip(value.names, value.values)])
        if isinstance(value, (bytes, str)):
            tally.overhead += len(value)
        return value

    def _release(self, entry):
        """Return an evicted entry's bytes to the budget."""
        freed = entry.overhead
        for key in entry.buffer_keys:
            slot = self._pool[key]
            slot[1] -= 1
            if slot[1] == 0:
                freed += slot[0].nbytes
                del self._pool[key]
        self._bytes -= freed

    def _drop(self, key):
        self._release(self._items.pop(key))

    def _expired(self, entry, now):
        return self.ttl_s is not None \
            and (now - entry.stamp) > self.ttl_s

    def _sweep_expired(self, now):
        for key in [key for key, entry in self._items.items()
                    if self._expired(entry, now)]:
            self._drop(key)
            self.stats.evictions += 1
            self.stats.expirations += 1

    # -- the mapping ----------------------------------------------------
    def get(self, key):
        """The live :class:`_Entry` for ``key`` (recency refreshed),
        or ``None`` on a miss / an expired entry."""
        with self._lock:
            entry = self._items.get(key)
            if entry is not None and self._expired(entry,
                                                   self._clock()):
                self._drop(key)
                self.stats.evictions += 1
                self.stats.expirations += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self._items.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key, checksum, value, meta):
        """Intern and admit one result; returns its entry (or ``None``
        when the cache is off or the value exceeds the whole budget).
        """
        if self.budget_bytes <= 0:
            return None
        with self._lock:
            now = self._clock()
            self._sweep_expired(now)
            if key in self._items:
                self._drop(key)         # replace: release the old form
            buffer_keys = []
            tally = _Tally()
            interned = self._intern(value, buffer_keys, tally)
            entry = _Entry(key, checksum, interned, dict(meta),
                           tally.overhead, buffer_keys, now)
            self._items[key] = entry    # appended = most recent
            self._bytes += tally.buffer_bytes + tally.overhead
            while self._bytes > self.budget_bytes:
                lru_key = next(iter(self._items))
                if lru_key == key:
                    # the new value alone busts the whole budget:
                    # everything else is already gone — do not admit
                    self._drop(key)
                    return None
                self._drop(lru_key)
                self.stats.evictions += 1
            self._peak_bytes = max(self._peak_bytes, self._bytes)
            return entry

    def invalidate(self, predicate=None):
        """Drop entries (all, or those whose *key* matches); counted
        as evictions and invalidations, like :meth:`LRUCache
        .invalidate`."""
        with self._lock:
            doomed = list(self._items) if predicate is None \
                else [key for key in self._items if predicate(key)]
            for key in doomed:
                self._drop(key)
            self.stats.evictions += len(doomed)
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def __len__(self):
        with self._lock:
            return len(self._items)

    @property
    def bytes(self):
        with self._lock:
            return self._bytes

    def snapshot(self):
        """Size, byte accounting, dedup effect, and hit/miss counters
        — read atomically under the lock."""
        with self._lock:
            entry = {
                "size": len(self._items),
                "bytes": int(self._bytes),
                "peak_bytes": int(self._peak_bytes),
                "budget_bytes": int(self.budget_bytes),
                "ttl_s": self.ttl_s,
                "unique_buffers": len(self._pool),
                "dedup_hits": int(self._dedup_hits),
            }
            entry.update(self.stats.as_dict())
        return entry
