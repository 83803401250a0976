"""Server-side caching: one weighted LRU with invalidation.

Two caches run inside the query service, both instances of
:class:`WeightedLRU`.  The **plan cache** (one per worker process)
maps query text + catalog generation to a compiled MIL plan; every
plan weighs 1, so its capacity is an entry count.  The parent-side
**result cache** maps a canonical request + generation to a finished
reply: its header and the body bytes the worker encoded.  A scalar
aggregate and a million-row column differ by six orders of magnitude,
so a result weighs its body's byte length and the capacity is a byte
budget.  The cached bytes are immutable and served as they are: no
copy per hit, nothing a client can mutate.

Both expose their counters through the server's ``stats`` request,
which is how cache effectiveness (and the byte budget) is observed
from the outside.
"""

import threading
from collections import OrderedDict


class CacheStats:
    """Cumulative counters of one cache instance.

    ``evictions`` counts every entry dropped for any reason (capacity
    or invalidation); ``invalidations`` breaks out the invalidation
    drops, so a generation bump's sweep is visible in the server stats
    rather than folded silently into capacity pressure.
    """

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self, hits=0, misses=0, evictions=0, invalidations=0):
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.invalidations = invalidations

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
                "hit_rate": round(self.hit_rate, 4)}

    def __repr__(self):
        return ("CacheStats(hits=%d, misses=%d, evictions=%d, "
                "invalidations=%d)"
                % (self.hits, self.misses, self.evictions,
                   self.invalidations))


class WeightedLRU:
    """Bounded mapping with least-recently-*used* eviction by weight.

    Parameters
    ----------
    capacity:
        Total weight the cache may hold.  ``<= 0`` disables the cache
        entirely: every lookup misses, nothing is stored — callers need
        no special-casing for the "cache turned off" configuration.  A
        single entry heavier than the whole capacity is not admitted;
        the capacity is a hard ceiling, never exceeded even
        transiently between put and eviction.

    There is no expiry: every key carries its catalog generation and
    its value never changes, so age cannot make an entry wrong, and the
    capacity alone bounds memory.
    """

    def __init__(self, capacity):
        self.capacity = int(capacity)
        self._items = OrderedDict()   # key -> (value, weight)
        self._weight = 0
        self._peak_weight = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def _drop(self, key):
        self._weight -= self._items.pop(key)[1]

    def get(self, key, default=None):
        """The cached value (refreshing recency), or ``default`` on a
        miss."""
        with self._lock:
            item = self._items.get(key)
            if item is None:
                self.stats.misses += 1
                return default
            self._items.move_to_end(key)
            self.stats.hits += 1
            return item[0]

    def put(self, key, value, weight=1):
        """Insert/replace; evicts LRU entries beyond capacity.  Returns
        whether the entry was admitted."""
        if self.capacity <= 0:
            return False
        with self._lock:
            if key in self._items:
                self._drop(key)
            if weight > self.capacity:
                return False
            self._items[key] = (value, weight)
            self._weight += weight
            while self._weight > self.capacity:
                self._drop(next(iter(self._items)))
                self.stats.evictions += 1
            self._peak_weight = max(self._peak_weight, self._weight)
            return True

    def invalidate(self, predicate=None):
        """Drop entries (all, or those whose *key* matches).

        The generation-bump path: ``invalidate(lambda key: key[0] ==
        retired_generation)`` drops plans/results of a superseded
        snapshot while newer entries survive.  Dropped entries count
        as evictions *and* invalidations, so a sweep is visible in the
        stats instead of silently shrinking ``size``.
        """
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

    def snapshot(self):
        """Size, weight accounting and hit/miss counters.

        The read happens under ``_lock``: counters bump under the
        lock, so reading them outside it could tear a snapshot across
        a concurrent put's hit/eviction updates.
        """
        with self._lock:
            entry = {"size": len(self._items),
                     "capacity": self.capacity,
                     "weight": int(self._weight),
                     "peak_weight": int(self._peak_weight)}
            entry.update(self.stats.as_dict())
        return entry
