"""Heaps: the storage areas behind BAT columns.

The paper (section 3.2, Figure 2) describes a BAT as owning between 1
and 5 heaps: the BUN heap with the fixed-size value pairs, up to two
variable-size atom heaps (one per column, holding e.g. string bodies
behind integer byte-indices in the BUN heap), and accelerator heaps.

Here each *column* owns its own storage, which keeps the bookkeeping
simple while preserving the observable design: fixed-width values live
in a dense array (:class:`FixedHeap`), variable-size atoms live in a
de-duplicated :class:`VarHeap` addressed through integer indices.

Every heap registers itself with a process-wide directory so that the
simulated buffer manager (:mod:`repro.monet.buffer`) can account page
faults per heap.
"""

import itertools

import numpy as np

from ..errors import HeapError

_HEAP_IDS = itertools.count(1)


def utf8_column(strings, terminator=""):
    """``(lengths, data)``: the UTF-8 byte length of every string as
    an int64 array, and their encodings back to back, each followed by
    the ASCII ``terminator`` (which ``lengths`` does not count)."""
    joined = terminator.join(strings) + (terminator if len(strings)
                                         else "")
    data = joined.encode("utf-8")
    if len(data) == len(joined):        # pure ASCII: bytes == chars
        sizes = map(len, strings)
    else:
        sizes = (len(item.encode("utf-8")) for item in strings)
    return np.fromiter(sizes, dtype=np.int64, count=len(strings)), data


class Heap:
    """Common bookkeeping for all heap kinds.

    ``persistent`` distinguishes disk-backed heaps (loaded base BATs,
    accelerators — their cold pages *fault* when touched) from
    transient intermediate results, which are born memory-resident:
    writing a fresh intermediate does not read from disk, so its first
    touch is free.  Intermediates only fault again after the buffer
    manager evicted them under memory pressure (the paper's query 1
    "save intermediate results to disk" scenario).
    """

    def __init__(self, label=""):
        self.heap_id = next(_HEAP_IDS)
        self.label = label
        self.persistent = False

    @property
    def nbytes(self):
        raise NotImplementedError

    def __repr__(self):
        return "%s(id=%d, label=%r, %d bytes)" % (
            type(self).__name__, self.heap_id, self.label, self.nbytes)


class FixedHeap(Heap):
    """Dense array storage for fixed-width atoms (the BUN heap side)."""

    def __init__(self, data, width, label=""):
        super().__init__(label)
        self.data = data
        self.width = width

    @property
    def nbytes(self):
        return len(self.data) * self.width


class VarHeap(Heap):
    """De-duplicated storage for variable-size atoms (strings, chars).

    Monet's string heaps perform "double elimination": a string that
    occurs many times is stored once, and the BUN heap stores integer
    byte offsets.  We store each distinct value once in ``values`` and
    hand out dense integer indices; ``lookup`` maps value -> index.

    ``nbytes`` reports the byte size of the stored bodies, which is what
    the IO cost model should see for heap scans.
    """

    def __init__(self, label=""):
        super().__init__(label)
        self.values = []
        self.lookup = {}
        self._body_bytes = 0
        self._sorted_cache = None
        self._table_cache = None

    def insert(self, value):
        """Intern ``value``; return its index."""
        index = self.lookup.get(value)
        if index is None:
            index = len(self.values)
            self.values.append(value)
            self.lookup[value] = index
            self._body_bytes += len(value.encode("utf-8")) + 1
            self._sorted_cache = None
            self._table_cache = None
        return index

    def insert_many(self, values):
        """Intern an iterable of values; return an int32 index array."""
        insert = self.insert
        return np.fromiter((insert(v) for v in values), dtype=np.int32,
                           count=len(values) if hasattr(values, "__len__") else -1)

    @classmethod
    def interned(cls, values, label=""):
        """``(heap, indices)``: a new heap of the list ``values``, filled
        in bulk — one dict over the values, ``nbytes`` from one
        :func:`utf8_column` — and the int32 index of every value.  Only
        values that repeat take a second pass, one dict probe per value,
        to number them."""
        lookup = dict(zip(values, range(len(values))))
        if len(lookup) == len(values):
            indices = np.arange(len(values), dtype=np.int32)
        else:       # the dict kept each value's first place: renumber
            lookup = dict(zip(lookup, range(len(lookup))))
            indices = np.fromiter(map(lookup.__getitem__, values),
                                  dtype=np.int32, count=len(values))
        heap = cls(label)
        heap.values = list(lookup)
        heap.lookup = lookup
        lengths, _data = utf8_column(heap.values)
        heap._body_bytes = int(lengths.sum()) + len(heap.values)
        return heap, indices

    def find(self, value):
        """Index of ``value`` or ``None`` when absent."""
        return self.lookup.get(value)

    def decode_table(self):
        """The distinct values as an object array (cached until insert)."""
        if self._table_cache is None:
            self._table_cache = np.array(self.values, dtype=object)
        return self._table_cache

    def decode(self, indices):
        """Map an index array back to an object array of values."""
        if len(self) == 0:
            if len(indices) == 0:
                return np.empty(0, dtype=object)
            raise HeapError("decode from empty var heap")
        return self.decode_table()[np.asarray(indices, dtype=np.int64)]

    def decode_one(self, index):
        return self.values[int(index)]

    def sorted_order(self):
        """Permutation of heap indices that sorts the distinct values.

        Returns ``(order, rank)`` where ``order[k]`` is the heap index of
        the ``k``-th smallest value and ``rank[i]`` is the sort position
        of heap index ``i``.  Used by range selections and sorts on
        var-size columns.  The result is cached until the next insert.
        """
        if self._sorted_cache is None:
            order = np.argsort(self.decode_table(), kind="stable")
            order = np.asarray(order, dtype=np.int64)
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            self._sorted_cache = (order, rank)
        return self._sorted_cache

    def __len__(self):
        return len(self.values)

    @property
    def nbytes(self):
        return self._body_bytes


class MappedVarHeap(VarHeap):
    """A :class:`VarHeap` reopened from an offset+body file pair.

    The storage layer (:mod:`repro.monet.storage`) persists a var heap
    as ``offsets`` (int64 array of N+1 cumulative byte positions) plus
    ``body`` (the NUL-terminated UTF-8 value bodies back to back, so
    value ``k`` lives at ``body[offsets[k] : offsets[k+1]-1]``).  Both
    sides are handed in as arrays — typically ``np.memmap`` views — and
    the Python-level ``values`` list / ``lookup`` dict are only
    materialised on first use, so reopening a database never eagerly
    reads heap bodies.
    """

    def __init__(self, offsets, body, label=""):
        Heap.__init__(self, label)
        if len(offsets) == 0:
            raise HeapError("var heap offsets must hold at least [0]")
        self._offsets = offsets
        self._body = body
        self._values = None
        self._lookup = None
        # len(body) == offsets[-1] by construction; using the mapping
        # length avoids faulting in the offsets' last page on open
        self._body_bytes = len(body)
        self._sorted_cache = None
        self._table_cache = None
        self.persistent = True
        #: arrays backing this heap (for residency validation)
        self.mapped = (offsets, body)

    @property
    def values(self):
        if self._values is None:
            offsets = np.asarray(self._offsets, dtype=np.int64)
            body = bytes(np.asarray(self._body, dtype=np.uint8))
            self._values = [
                body[offsets[k]:offsets[k + 1] - 1].decode("utf-8")
                for k in range(len(offsets) - 1)]
        return self._values

    @values.setter
    def values(self, new_values):
        self._values = new_values

    def decode_one(self, index):
        """Value ``index``, read from the mapped body alone until the
        value list exists — a binary search on a reopened string
        column decodes only the values it visits."""
        if self._values is not None:
            return self._values[int(index)]
        index = int(index)
        start, end = self._offsets[index:index + 2]
        return bytes(self._body[start:end - 1]).decode("utf-8")

    @property
    def lookup(self):
        if self._lookup is None:
            self._lookup = {value: index
                            for index, value in enumerate(self.values)}
        return self._lookup

    @lookup.setter
    def lookup(self, new_lookup):
        self._lookup = new_lookup

    @property
    def decoded(self):
        """True once the Python value list has been materialised."""
        return self._values is not None

    def __len__(self):
        if self._values is not None:
            return len(self._values)
        return len(self._offsets) - 1
