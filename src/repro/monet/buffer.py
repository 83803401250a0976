"""Simulated virtual-memory buffer management and page-fault accounting.

The real Monet maps BATs into virtual memory and lets the OS pager do
buffer management (paper section 2: "it has no page-based buffer
manager ... lets the MMU do the job in hardware").  The performance
analysis of the paper (sections 5.2.2 and 6) is entirely in terms of
**page faults**: how many B-byte pages each execution strategy touches.

This module reproduces that observable.  A :class:`BufferManager`
tracks which pages of which heap are resident, under an optional
memory budget; operators report their accesses through three patterns:

* :meth:`BufferManager.access_range` — sequential scan of a byte range,
* :meth:`BufferManager.access_positions` — scattered (unclustered)
  access to individual entries, the pattern behind the
  ``1-(1-s)^C`` term of the section 5.2.2 cost model,
* :meth:`BufferManager.access_probes` — binary-search probes.

Faults are attributed to the operator named by the surrounding
:meth:`BufferManager.operator` context, which is how the per-statement
fault counts of Figure 10 are produced.

The cost of accounting is proportional to the **pages** an access
covers, not to its positions.  With unbounded memory (every caller
except the Figure 9 budget runs) nothing is ever evicted under
pressure, so LRU order is unobservable and residency is one growable
boolean bitmap per heap (:class:`_BitmapResidency`): a touch is a
``count_nonzero`` and an assignment over a slice or a page index.
Under a ``memory_pages`` budget the exact LRU order and the spill set
decide which touch faults, so that mode keeps the per-page
``OrderedDict`` (:class:`_LruResidency`).  Both are fed sorted distinct
page numbers, and both produce identical ``faults``/``hits``/
``evictions`` to the per-page reference kept under
``tests/monet/buffer_reference.py``.

A process-global *current* manager (default: disabled, zero overhead)
is installed with :func:`use` or :func:`set_manager`.
"""

import contextlib
from collections import OrderedDict

import numpy as np


class BufferStats:
    """Counters captured by :meth:`BufferManager.snapshot`.

    A worker of the multi-process dispatcher
    (:mod:`repro.monet.multiproc`) ships one per task that asked for
    ``buffer_stats``; :meth:`merge` folds them into one fleet-wide
    total on the parent side.
    """

    __slots__ = ("faults", "hits", "evictions")

    def __init__(self, faults=0, hits=0, evictions=0):
        self.faults = faults
        self.hits = hits
        self.evictions = evictions

    def merge(self, other):
        """Accumulate another snapshot into this one; returns self."""
        self.faults += other.faults
        self.hits += other.hits
        self.evictions += other.evictions
        return self

    def as_dict(self):
        return {"faults": int(self.faults), "hits": int(self.hits),
                "evictions": int(self.evictions)}

    def __repr__(self):
        return ("BufferStats(faults=%d, hits=%d, evictions=%d)"
                % (self.faults, self.hits, self.evictions))


def _bitmap(bitmaps, heap_id, size):
    """``bitmaps[heap_id]``, zero-extended to at least ``size`` pages."""
    bitmap = bitmaps.get(heap_id)
    if bitmap is None:
        bitmap = bitmaps[heap_id] = np.zeros(size, dtype=bool)
    elif len(bitmap) < size:
        grown = np.zeros(max(size, 2 * len(bitmap)), dtype=bool)
        grown[:len(bitmap)] = bitmap
        bitmap = bitmaps[heap_id] = grown
    return bitmap


def _page_index(pages):
    """``(index, stop)`` for the sorted distinct page numbers
    ``pages``: a slice for a ``range`` (the sequential patterns), the
    array itself otherwise; ``stop`` is one past the highest page."""
    if isinstance(pages, range):
        return slice(pages.start, pages.stop, pages.step), pages[-1] + 1
    return pages, int(pages[-1]) + 1


class _BitmapResidency:
    """Residency under unbounded memory: one boolean bitmap per heap.

    Without a budget a page leaves the resident set only through
    :meth:`evict_heap`/``evict_all``, so recency never matters and a
    touch reduces to counting and setting bits.
    """

    def __init__(self):
        self._resident = {}
        #: transient pages :meth:`evict_heap` pushed to disk
        self._spilled = {}
        self.count = 0

    def touch(self, heap_id, persistent, pages):
        """``(hits, misses, evictions)`` of touching ``pages``."""
        index, stop = _page_index(pages)
        resident = _bitmap(self._resident, heap_id, stop)
        was_resident = resident[index]
        hits = int(np.count_nonzero(was_resident))
        cold = len(pages) - hits
        if not cold:
            return hits, 0, 0
        if persistent:
            misses = cold
        elif heap_id in self._spilled:
            spilled = _bitmap(self._spilled, heap_id, stop)[index]
            misses = int(np.count_nonzero(spilled & ~was_resident))
        else:
            misses = 0
        resident[index] = True
        self.count += cold
        return hits, misses, 0

    def evict_heap(self, heap_id, persistent):
        """Drop one heap's bitmap; returns the pages evicted."""
        resident = self._resident.pop(heap_id, None)
        if resident is None:
            return 0
        evicted = int(np.count_nonzero(resident))
        self.count -= evicted
        if not persistent:
            spilled = _bitmap(self._spilled, heap_id, len(resident))
            spilled[:len(resident)] |= resident
        return evicted


class _LruResidency:
    """Residency under a ``budget`` of pages: exact LRU order.

    Which page a touch evicts, and whether a later touch of a spilled
    transient page faults, depend on the order of every earlier touch,
    so each page moves through the ``OrderedDict`` one by one.
    """

    def __init__(self, budget):
        self.budget = budget
        #: (heap_id, page) -> persistent, least recently used first
        self._resident = OrderedDict()
        #: transient pages that were evicted; touching them again is
        #: a real fault (spill re-read)
        self._spilled = set()

    @property
    def count(self):
        return len(self._resident)

    def touch(self, heap_id, persistent, pages):
        """``(hits, misses, evictions)`` of touching ``pages``."""
        resident = self._resident
        spilled = self._spilled
        hits = misses = evictions = 0
        if not isinstance(pages, range):
            pages = pages.tolist()
        for page in pages:
            key = (heap_id, page)
            if key in resident:
                resident.move_to_end(key)
                hits += 1
                continue
            if persistent or key in spilled:
                misses += 1
            resident[key] = persistent
            if len(resident) > self.budget:
                victim, victim_persistent = resident.popitem(last=False)
                if not victim_persistent:
                    spilled.add(victim)
                evictions += 1
        return hits, misses, evictions

    def evict_heap(self, heap_id, _persistent):
        """Drop one heap's pages; returns the pages evicted."""
        doomed = [key for key in self._resident if key[0] == heap_id]
        for key in doomed:
            if not self._resident.pop(key):
                self._spilled.add(key)
        return len(doomed)


class BufferManager:
    """Resident-set simulation over heap pages.

    Parameters
    ----------
    page_size:
        Bytes per page; the paper uses B = 4096.
    memory_pages:
        Resident-set budget in pages (LRU replacement), or ``None``
        for unbounded memory (then only cold misses fault).
    enabled:
        When False every accounting call is a no-op, so the simulation
        can be switched off for pure-speed runs.
    track_pages:
        When True, the distinct pages touched are recorded *per heap*
        (``heap_pages``), so the simulation can be compared against the
        real resident-set deltas of mmap-backed heaps (see
        :func:`repro.monet.storage.residency_report`).
    """

    def __init__(self, page_size=4096, memory_pages=None, enabled=True,
                 track_pages=False):
        self.page_size = int(page_size)
        self.memory_pages = memory_pages
        self.enabled = enabled
        self.track_pages = track_pages
        #: heap_id -> bitmap of touched page numbers (track_pages mode)
        self.heap_pages = {}
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self._op_stack = []
        self.op_faults = {}
        self.evict_all()

    # ------------------------------------------------------------------
    # operator attribution
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def operator(self, label):
        """Attribute faults inside the block to ``label``."""
        self._op_stack.append(label)
        before = self.faults
        try:
            yield
        finally:
            self._op_stack.pop()
            delta = self.faults - before
            if delta:
                self.op_faults[label] = self.op_faults.get(label, 0) + delta

    # ------------------------------------------------------------------
    # residency core
    # ------------------------------------------------------------------
    def _touch_pages(self, heap, pages):
        """Touch sorted distinct page numbers of one heap (a ``range``
        or an integer array; not empty).

        Cold pages of *persistent* heaps fault; cold pages of
        transient heaps (intermediate results) are free the first time
        — they are writes — and only fault again once evicted (see
        :class:`~repro.monet.heap.Heap`).
        """
        if self.track_pages:
            index, stop = _page_index(pages)
            _bitmap(self.heap_pages, heap.heap_id, stop)[index] = True
        hits, misses, evictions = self._residency.touch(
            heap.heap_id, getattr(heap, "persistent", True), pages)
        self.hits += hits
        self.faults += misses
        self.evictions += evictions

    def _distinct_pages(self, positions, width):
        """Sorted distinct page numbers under entries ``positions``.

        O(positions) without a sort: positions already in page order
        (selections, slices) keep each page's first occurrence; any
        other order is scattered into a flag array whose set indices
        come back sorted.
        """
        positions = np.asarray(positions)
        entries, ragged = divmod(self.page_size, width)
        if ragged:
            pages = positions.astype(np.int64) * width // self.page_size
        else:
            pages = positions // entries
        ahead, behind = pages[1:], pages[:-1]
        if (ahead >= behind).all():
            return np.concatenate((pages[:1], ahead[ahead != behind]))
        flags = np.zeros(int(pages.max()) + 1, dtype=bool)
        flags[pages] = True
        return np.flatnonzero(flags)

    # ------------------------------------------------------------------
    # access patterns
    # ------------------------------------------------------------------
    def access_range(self, heap, start_byte=0, nbytes=None):
        """Sequential access to ``heap[start_byte : start_byte+nbytes]``."""
        if not self.enabled:
            return
        if nbytes is None:
            nbytes = heap.nbytes - start_byte
        if nbytes <= 0:
            return
        first = start_byte // self.page_size
        last = (start_byte + nbytes - 1) // self.page_size
        self._touch_pages(heap, range(first, last + 1))

    def access_heap(self, heap):
        """Sequential access to a whole heap."""
        self.access_range(heap, 0, heap.nbytes)

    def access_positions(self, heap, positions, width):
        """Scattered access to entries ``positions`` of ``width`` bytes.

        Page numbers are deduplicated *per call* (consecutive hits to
        one page cost one touch), which makes the expected fault count
        of a random gather match the ``pages * (1-(1-s)^C)`` term of
        the analytic model.
        """
        if not self.enabled or width == 0 or len(positions) == 0:
            return
        self._touch_pages(heap, self._distinct_pages(positions, width))

    def access_probes(self, heap, n_probes, n_entries, width):
        """``n_probes`` binary searches over ``n_entries`` sorted entries.

        Each probe touches about ``log2(n_pages)`` pages, but the top
        levels of the implicit search tree stay resident, so repeated
        probing is charged the page count of the touched *frontier*:
        we charge ``min(n_pages, n_probes * ceil(log2(n_pages)))``
        page touches spread deterministically over the heap.
        """
        if not self.enabled or width == 0 or n_probes <= 0 or n_entries <= 0:
            return
        n_pages = max(1, -(-(n_entries * width) // self.page_size))
        depth = max(1, int(np.ceil(np.log2(n_pages + 1))))
        touched = min(n_pages, n_probes * depth)
        step = max(1, n_pages // touched)
        self._touch_pages(heap, range(0, n_pages, step))

    def access_column(self, column, positions=None):
        """Account one column access: full scan or positional gather."""
        if not self.enabled:
            return
        for heap in column.heaps:
            if positions is None:
                self.access_heap(heap)
            else:
                width = getattr(heap, "width", None)
                if width:
                    self.access_positions(heap, positions, width)
                else:
                    # var heap bodies: approximate with average width
                    avg = max(1, heap.nbytes // max(1, len(heap)))
                    self.access_positions(heap, positions, avg)

    def access_bat(self, bat, positions=None):
        """Account access to both columns of a BAT."""
        if not self.enabled:
            return
        self.access_column(bat.head, positions)
        self.access_column(bat.tail, positions)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def evict_all(self):
        """Drop the whole resident set (simulate a cold start).

        Intermediates of finished queries are dead, so the spill set
        is cleared too: the next query starts from cold base data.
        """
        self._residency = _BitmapResidency() if self.memory_pages is None \
            else _LruResidency(self.memory_pages)

    def evict_heap(self, heap):
        """Drop one heap's pages (the "save intermediate results to
        disk" behaviour the paper describes for query 1).

        Evicted *transient* pages join the spill set, exactly like
        budget evictions: an intermediate that was pushed to disk must
        fault its pages back in when re-touched — it is no longer a
        free first-time write.
        """
        self.evictions += self._residency.evict_heap(
            heap.heap_id, getattr(heap, "persistent", True))

    def resident_pages(self):
        return self._residency.count

    def snapshot(self):
        return BufferStats(self.faults, self.hits, self.evictions)

    def touched_page_counts(self):
        """heap_id -> number of distinct pages touched (track_pages)."""
        return {heap_id: int(np.count_nonzero(pages))
                for heap_id, pages in self.heap_pages.items()}

    def reset_counters(self):
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self.op_faults = {}
        self.heap_pages = {}


#: Disabled manager used when no simulation is requested.
_DISABLED = BufferManager(enabled=False)
_current = _DISABLED


def get_manager():
    """The buffer manager operators should report accesses to."""
    return _current


def set_manager(manager):
    """Install ``manager`` (or None to disable accounting) globally."""
    global _current
    _current = manager if manager is not None else _DISABLED


@contextlib.contextmanager
def use(manager):
    """Context manager installing ``manager`` for the duration."""
    global _current
    previous = _current
    _current = manager if manager is not None else _DISABLED
    try:
        yield manager
    finally:
        _current = previous
