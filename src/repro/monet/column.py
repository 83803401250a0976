"""Columns: one side (head or tail) of a BAT.

Three physical layouts exist, mirroring Monet:

* :class:`FixedColumn` — a dense numpy array of a fixed-width atom.
* :class:`VarColumn` — integer indices into a de-duplicated
  :class:`~repro.monet.heap.VarHeap` (strings, chars).
* :class:`VoidColumn` — the zero-space ``void`` column of the paper's
  footnote 2: a *virtual* dense sequence ``seqbase, seqbase+1, ...``
  that occupies no storage at all.  Extents and datavector results use
  it heavily.

Columns are immutable from the operators' point of view: BAT-algebra
operations "materialize their result and never change their operands"
(section 4.2).
"""

import numpy as np

from ..errors import BATError
from . import atoms as _atoms
from .heap import FixedHeap, VarHeap


class Column:
    """Abstract column; see module docstring for the three layouts."""

    __slots__ = ("atom", "grouping")

    def __init__(self, atom):
        self.atom = _atoms.atom(atom)
        #: ``(first_pos, inverse, n_groups)`` of this column's distinct
        #: keys, cached by the first set-aggregate grouped on it (the
        #: column is immutable, so the factorization never goes stale)
        self.grouping = None

    def __len__(self):
        raise NotImplementedError

    def logical(self):
        """numpy array of logical values (object array for var atoms)."""
        raise NotImplementedError

    def keys(self):
        """Array usable for *equality* comparison within this column.

        For var columns this returns heap indices, which are only
        comparable against keys that came from the same heap; use
        :func:`equality_keys` to compare across two columns.
        """
        raise NotImplementedError

    def order_keys(self):
        """Array that sorts in the same order as the logical values."""
        raise NotImplementedError

    def take(self, positions):
        """New column holding ``self`` at the given positions."""
        raise NotImplementedError

    def slice(self, lo, hi):
        """New column for positions ``lo:hi`` (cheap contiguous view)."""
        raise NotImplementedError

    def value(self, position):
        """Python value at one position."""
        raise NotImplementedError

    def encode(self, value):
        """Physical equality key for a Python value, or None if absent.

        ``None`` can only happen for var columns whose heap does not
        contain the value; it means no row can match.
        """
        raise NotImplementedError

    @property
    def width(self):
        """Byte width per entry as seen by the IO cost model."""
        return self.atom.width

    @property
    def heaps(self):
        """Heaps backing this column, for buffer accounting."""
        return ()

    @property
    def nbytes(self):
        return sum(h.nbytes for h in self.heaps)

    def is_void(self):
        return False


class FixedColumn(Column):
    """Fixed-width atom values stored in a dense numpy array."""

    __slots__ = ("data", "_heap")

    def __init__(self, atom, data, label=""):
        super().__init__(atom)
        if self.atom.dtype is None:
            raise BATError("atom %s is variable-size; use VarColumn"
                           % self.atom.name)
        # asanyarray keeps np.memmap views intact, so columns reopened
        # from the storage layer stay zero-copy windows onto the file
        self.data = np.asanyarray(data, dtype=self.atom.dtype)
        if self.data.ndim != 1:
            raise BATError("column data must be one-dimensional")
        self._heap = FixedHeap(self.data, self.atom.width, label)

    def __len__(self):
        return len(self.data)

    def logical(self):
        return self.data

    def keys(self):
        return self.data

    def order_keys(self):
        return self.data

    def take(self, positions):
        return FixedColumn(self.atom, self.data[positions],
                           label=self._heap.label)

    def slice(self, lo, hi):
        return FixedColumn(self.atom, self.data[lo:hi],
                           label=self._heap.label)

    def value(self, position):
        raw = self.data[position]
        if self.atom.name == "bool":
            return bool(raw)
        if self.atom.dtype.kind in "iu":
            return int(raw)
        return float(raw)

    def encode(self, value):
        return self.atom.coerce(value)

    @property
    def heaps(self):
        return (self._heap,)


class VarColumn(Column):
    """Variable-size atom values: index array + shared VarHeap."""

    __slots__ = ("indices", "heap", "_index_heap")

    def __init__(self, atom, indices, heap, label=""):
        super().__init__(atom)
        if not self.atom.varsized:
            raise BATError("atom %s is fixed-width; use FixedColumn"
                           % self.atom.name)
        self.indices = np.asanyarray(indices, dtype=np.int32)
        if self.indices.ndim != 1:
            raise BATError("column data must be one-dimensional")
        self.heap = heap
        self._index_heap = FixedHeap(self.indices, 4, label)

    @classmethod
    def from_values(cls, atom, values, heap=None, label=""):
        """Build from Python values, interning them into ``heap``."""
        spec = _atoms.atom(atom)
        if not spec.varsized:
            raise BATError("atom %s is fixed-width; use FixedColumn"
                           % spec.name)
        heap = heap if heap is not None else VarHeap(label)
        coerced = [spec.coerce(v) for v in values]
        indices = heap.insert_many(coerced)
        return cls(spec, indices, heap, label)

    def __len__(self):
        return len(self.indices)

    def logical(self):
        return self.heap.decode(self.indices)

    def keys(self):
        return self.indices

    def order_keys(self):
        _order, rank = self.heap.sorted_order()
        return rank[self.indices]

    def take(self, positions):
        return VarColumn(self.atom, self.indices[positions], self.heap,
                         label=self._index_heap.label)

    def slice(self, lo, hi):
        return VarColumn(self.atom, self.indices[lo:hi], self.heap,
                         label=self._index_heap.label)

    def value(self, position):
        return self.heap.decode_one(self.indices[position])

    def encode(self, value):
        return self.heap.find(self.atom.coerce(value))

    @property
    def heaps(self):
        return (self._index_heap, self.heap)


class VoidColumn(Column):
    """Virtual dense oid sequence ``seqbase .. seqbase+length-1``."""

    __slots__ = ("seqbase", "length")

    def __init__(self, seqbase, length):
        super().__init__(_atoms.OID)
        self.seqbase = int(seqbase)
        self.length = int(length)

    def __len__(self):
        return self.length

    def logical(self):
        return np.arange(self.seqbase, self.seqbase + self.length,
                         dtype=np.int64)

    def keys(self):
        return self.logical()

    def order_keys(self):
        return self.logical()

    def take(self, positions):
        data = np.asarray(positions, dtype=np.int64) + self.seqbase
        return FixedColumn(_atoms.OID, data)

    def slice(self, lo, hi):
        lo = max(0, lo)
        hi = min(self.length, hi)
        return VoidColumn(self.seqbase + lo, max(0, hi - lo))

    def value(self, position):
        position = int(position)
        if position < 0:
            position += self.length
        if not 0 <= position < self.length:
            raise IndexError(position)
        return self.seqbase + position

    def encode(self, value):
        return _atoms.OID.coerce(value)

    @property
    def width(self):
        return 0

    def is_void(self):
        return True


def column_from_values(atom, values, label=""):
    """Build the appropriate column kind for ``atom`` from Python values."""
    spec = _atoms.atom(atom)
    if spec.name == "void":
        raise BATError("void columns are built with VoidColumn(seqbase, n)")
    if spec.varsized:
        return VarColumn.from_values(spec, values, label=label)
    coerced = [spec.coerce(v) for v in values]
    return FixedColumn(spec, np.asarray(coerced, dtype=spec.dtype), label)


def equality_keys(left, right):
    """Comparable equality-key arrays for two columns of the same atom.

    Fixed columns compare on their raw arrays.  Var columns sharing one
    heap compare on indices.  Var columns with *different* heaps are
    reconciled by re-encoding the right column's distinct values through
    the left heap (missing values map to -1, which never matches because
    heap indices are non-negative).
    """
    if left.atom.varsized != right.atom.varsized:
        raise BATError("cannot compare %s keys with %s keys"
                       % (left.atom.name, right.atom.name))
    if not left.atom.varsized:
        return left.keys(), right.keys()
    if left.heap is right.heap:
        return left.indices, right.indices
    # one dict probe per *distinct* right value (not per BUN); the
    # dense translate array then remaps the whole index column at once
    lookup = left.heap.lookup
    translate = np.fromiter((lookup.get(v, -1) for v in right.heap.values),
                            dtype=np.int64, count=len(right.heap))
    if len(right.indices):
        remapped = translate[right.indices]
    else:
        remapped = np.empty(0, dtype=np.int64)
    return left.indices.astype(np.int64), remapped


def concat_columns(parts):
    """Concatenate columns of the same atom into one column."""
    parts = [p for p in parts]
    if not parts:
        raise BATError("concat_columns needs at least one column")
    spec = parts[0].atom
    for part in parts[1:]:
        if part.atom != spec:
            raise BATError("cannot concatenate %s with %s"
                           % (spec.name, part.atom.name))
    if spec.varsized:
        heap = VarHeap()
        chunks = []
        for part in parts:
            chunks.append(heap.insert_many(part.logical()))
        return VarColumn(spec, np.concatenate(chunks) if chunks else
                         np.empty(0, dtype=np.int32), heap)
    arrays = [p.logical() for p in parts]
    return FixedColumn(spec, np.concatenate(arrays))
