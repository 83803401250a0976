"""Reference page-fault accounting: one ``OrderedDict`` step per page.

This is the accounting core :mod:`repro.monet.buffer` shipped before
its cost became proportional to pages instead of positions — every
touched page moves through one LRU ``OrderedDict`` in a Python loop
and scattered positions are deduplicated with ``np.unique``.  It is
slow and obviously right, which makes it the oracle (the
``operators/naive.py`` pattern): ``test_buffer_differential.py``
drives random access scripts through this class and the production
:class:`~repro.monet.buffer.BufferManager` side by side and requires
identical counters after every step.  Do not optimise it.
"""

import contextlib
from collections import OrderedDict

import numpy as np


class ReferenceBufferManager:
    """LRU resident-set simulation over heap pages.

    Parameters
    ----------
    page_size:
        Bytes per page; the paper uses B = 4096.
    memory_pages:
        Resident-set budget in pages, or ``None`` for unbounded memory
        (then only cold misses fault).
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
        #: heap_id -> set of touched page numbers (track_pages mode)
        self.heap_pages = {}
        self._resident = OrderedDict()
        #: transient pages that were evicted under memory pressure;
        #: touching them again is a real fault (spill re-read)
        self._spilled = set()
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self._op_stack = []
        self.op_faults = {}

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

    def _charge(self, count):
        self.faults += count

    # ------------------------------------------------------------------
    # residency core
    # ------------------------------------------------------------------
    def _touch_pages(self, heap, pages):
        """Touch an iterable of page numbers of one heap.

        Cold pages of *persistent* heaps fault; cold pages of
        transient heaps (intermediate results) are free the first time
        — they are writes — and only fault again once evicted under
        memory pressure (see :class:`~repro.monet.heap.Heap`).
        """
        resident = self._resident
        budget = self.memory_pages
        persistent = getattr(heap, "persistent", True)
        heap_id = heap.heap_id
        if self.track_pages:
            touched = self.heap_pages.get(heap_id)
            if touched is None:
                touched = self.heap_pages[heap_id] = set()
            pages = list(pages)
            touched.update(pages)
        misses = 0
        for page in pages:
            key = (heap_id, page)
            if key in resident:
                resident.move_to_end(key)
                self.hits += 1
            else:
                if persistent or key in self._spilled:
                    misses += 1
                resident[key] = persistent
                if budget is not None and len(resident) > budget:
                    victim, victim_persistent = resident.popitem(
                        last=False)
                    if not victim_persistent:
                        self._spilled.add(victim)
                    self.evictions += 1
        if misses:
            self._charge(misses)

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
        if not self.enabled or width == 0:
            return
        positions = np.asarray(positions)
        if positions.size == 0:
            return
        pages = np.unique(positions.astype(np.int64) * width // self.page_size)
        self._touch_pages(heap, pages.tolist())

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
        self._resident.clear()
        self._spilled.clear()

    def evict_heap(self, heap):
        """Drop one heap's pages (the "save intermediate results to
        disk" behaviour the paper describes for query 1).

        Evicted *transient* pages join the spill set, exactly like
        budget evictions in :meth:`_touch_pages`: an intermediate that
        was pushed to disk must fault its pages back in when re-touched
        — it is no longer a free first-time write.
        """
        doomed = [key for key in self._resident if key[0] == heap.heap_id]
        for key in doomed:
            if not self._resident.pop(key):
                self._spilled.add(key)
        self.evictions += len(doomed)

    def resident_pages(self):
        return len(self._resident)

    def touched_page_counts(self):
        """heap_id -> number of distinct pages touched (track_pages)."""
        return {heap_id: len(pages)
                for heap_id, pages in self.heap_pages.items()}

    def reset_counters(self):
        self.faults = 0
        self.hits = 0
        self.evictions = 0
        self.op_faults = {}
        self.heap_pages = {}
