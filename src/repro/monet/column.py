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
        #: ``(inverse, first_pos, n_groups, counts)`` of this column's
        #: distinct keys, cached by the first set-aggregate grouped on
        #: it (the column is immutable, so the factorization never goes
        #: stale); semijoins with this column as left head read it too
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


#: the signed integer widths a column of an integer atom may be stored
#: in, narrowest first; int16 is the narrowest integer key the kernels
#: take (:mod:`repro.monet.vectorized`)
INT_WIDTHS = (np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64))


def narrow_dtype(lo, hi):
    """The narrowest of :data:`INT_WIDTHS` that covers ``lo .. hi``."""
    for dtype in INT_WIDTHS:
        bounds = np.iinfo(dtype)
        if bounds.min <= lo and hi <= bounds.max:
            return dtype
    return INT_WIDTHS[-1]


def _stored_dtype(atom, data):
    """The dtype a :class:`FixedColumn` of ``atom`` stores ``data`` in:
    the atom's own, unless ``data`` is an integer array of a narrower
    width of :data:`INT_WIDTHS` and the atom is an integer atom."""
    dtype = atom.dtype
    stored = getattr(data, "dtype", None)
    if dtype.kind == "i" and stored in INT_WIDTHS \
            and stored.itemsize < dtype.itemsize:
        return stored
    return dtype


class FixedColumn(Column):
    """Fixed-width atom values stored in a dense numpy array."""

    __slots__ = ("data", "_heap")

    def __init__(self, atom, data, label=""):
        super().__init__(atom)
        if self.atom.dtype is None:
            raise BATError("atom %s is variable-size; use VarColumn"
                           % self.atom.name)
        # asanyarray keeps np.memmap views intact, so columns reopened
        # from the storage layer stay zero-copy windows onto the file;
        # an integer array narrower than the atom keeps its width
        self.data = np.asanyarray(data, dtype=_stored_dtype(self.atom,
                                                            data))
        if self.data.ndim != 1:
            raise BATError("column data must be one-dimensional")
        self._heap = FixedHeap(self.data, self.data.itemsize, label)

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
    def width(self):
        return self.data.itemsize

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


#: built-in fixed atoms whose ``coerce`` a numeric array can be checked
#: against in bulk: name -> (accepted dtype kinds, inclusive integer
#: range or None).  ``instant``'s coerce has no range; its int32 store
#: does.
_BULK_FIXED = {
    "bool": ("b", None),
    "short": ("iu", _atoms._I16),
    "int": ("iu", _atoms._I32),
    "long": ("iu", _atoms._I64),
    "oid": ("iu", (0, _atoms._I64[1])),
    "instant": ("iu", _atoms._I32),
    "float": ("iuf", None),
    "double": ("iuf", None),
}


class Coded:
    """A var column handed over factorized: ``codes``, an integer
    array with one entry per value, indexing ``values``, the
    vocabulary (a list or an array).  Value ``i`` of the column is
    ``values[codes[i]]``; a vocabulary entry no code names is no
    value of the column, and an entry may repeat."""

    __slots__ = ("codes", "values")

    def __init__(self, codes, values):
        self.codes = codes
        self.values = values

    def __len__(self):
        return len(self.codes)

    def decode(self):
        """The column as an object array of its values."""
        return np.asarray(self.values, dtype=object)[self.codes]


def column_from_values(atom, values, label="", narrow=False):
    """Build the appropriate column kind for ``atom`` from Python values.

    A one-dimensional numpy array is coerced a column at a time, with
    ``Atom.coerce``'s semantics: a numeric array for a fixed atom is
    kind- and range-checked once and cast.  A var atom's column takes
    :class:`Coded` input as it is, and an object array is first
    factorized into codes and distinct values by one dict pass.  Either
    way the heap interns the values in first-appearance order, coercing
    each *distinct* value once, and the indices are one gather.  A code
    outside the vocabulary raises :class:`BATError`.  Whatever the bulk
    paths cannot vouch for (lists, object arrays of fixed atoms, a
    wrong kind, a value out of range) is coerced value by value, which
    raises the per-value error.  The column never aliases ``values``.
    With ``narrow`` an integer column is stored as :func:`narrowest`
    says, an array cast once, straight to that width.
    """
    spec = _atoms.atom(atom)
    if spec.name == "void":
        raise BATError("void columns are built with VoidColumn(seqbase, n)")
    if isinstance(values, Coded):
        if not spec.varsized:
            raise BATError("coded input needs a var atom, not %s"
                           % spec.name)
        return _var_column(spec, values.codes, values.values, label)
    if isinstance(values, np.ndarray) and values.ndim == 1:
        column = _column_from_array(spec, values, label, narrow)
        if column is not None:
            return column
    if spec.varsized:
        return VarColumn.from_values(spec, values, label=label)
    coerced = [spec.coerce(v) for v in values]
    column = FixedColumn(spec, np.asarray(coerced, dtype=spec.dtype), label)
    return narrowest(column) if narrow else column


def narrowest(column):
    """``column`` stored in the narrowest of :data:`INT_WIDTHS` that
    covers its min and max when it is an integer column; any other
    column (bool, float, var, void, empty) as it is.

    Never narrower than int16, the kernels' narrowest key, and never
    unsigned, so a narrowed column still compares, sorts and probes
    like the wide one; multiplex arithmetic widens its operands back
    to the atom's width.
    """
    if not isinstance(column, FixedColumn) or column.data.dtype.kind != "i" \
            or not len(column):
        return column
    dtype = narrow_dtype(int(column.data.min()), int(column.data.max()))
    if dtype.itemsize >= column.data.itemsize:
        return column
    return FixedColumn(column.atom, column.data.astype(dtype),
                       label=column.heaps[0].label)


def _factorize(values):
    """``(codes, distinct)`` of an object array in one dict pass:
    ``distinct`` in first-appearance order and ``values ==
    distinct[codes]``; None for an unhashable value."""
    distinct = {}
    try:
        codes = np.fromiter(
            (distinct.setdefault(v, len(distinct)) for v in values.tolist()),
            dtype=np.int64, count=len(values))
    except TypeError:           # an unhashable value: coerce rejects it
        return None
    return codes, list(distinct)


def _var_column(spec, codes, values, label):
    """The var column ``values[codes]`` with a fresh heap.

    The heap takes the vocabulary entries the codes name, in order of
    their first code, each coerced once; the indices are one gather
    through the entry -> heap index ``remap``."""
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.dtype.kind not in "iu":
        raise BATError("codes must be a one-dimensional integer array, "
                       "not %s" % codes.dtype)
    values = values.tolist() if isinstance(values, np.ndarray) \
        else list(values)
    n = len(codes)
    if n and not 0 <= int(codes.min()) <= int(codes.max()) < len(values):
        raise BATError("codes must lie in 0..%d" % (len(values) - 1))
    first = np.full(len(values), n, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(n, dtype=np.int64))
    used = np.flatnonzero(first < n)
    used = used[np.argsort(first[used])]
    heap, interned = VarHeap.interned(list(map(
        spec.coerce, map(values.__getitem__, used.tolist()))), label)
    remap = np.zeros(len(values), dtype=np.int32)
    remap[used] = interned
    return VarColumn(spec, remap[codes], heap, label)


def _column_from_array(spec, values, label, narrow):
    """The bulk path of :func:`column_from_values`, or None."""
    if spec.varsized:
        factorized = _factorize(values)
        if factorized is None:
            return None
        return _var_column(spec, *factorized, label)
    bulk = _BULK_FIXED.get(spec.name)
    if bulk is None or values.dtype.kind not in bulk[0]:
        return None
    bounds = bulk[1]
    lo = None
    if bounds is not None and len(values):
        lo, hi = int(values.min()), int(values.max())
        if not bounds[0] <= lo <= hi <= bounds[1]:
            return None
    if spec.dtype.kind == "f":
        if values.dtype.kind == "f" \
                and values.dtype.itemsize > spec.dtype.itemsize:
            # a finite value the atom cannot hold would cast to +-inf:
            # the per-value path raises for it
            finite = values[np.isfinite(values)]
            if len(finite) \
                    and np.abs(finite).max() > np.finfo(spec.dtype).max:
                return None
        # through float64, like the per-value path's Python floats
        data = values.astype(np.float64).astype(spec.dtype, copy=False)
    elif narrow and lo is not None:
        # an integer atom's range check found the min and max already
        data = values.astype(narrow_dtype(lo, hi))
    else:
        data = values.astype(spec.dtype)
    return FixedColumn(spec, data, label)


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
