"""Logical values and the formal notions of paper section 3.3.

The mapping's formal foundation works with *identified value sets*
(IVS): sets of ``<id, value>`` pairs with unique ids, where identifiers
are reused across sets to express *synchronicity*.  This module
provides those notions executably (they are checked by the property
tests), plus the value kinds the logical data model needs:

* :class:`Ref` — an object reference ``(class, oid)``; objects are
  compared by identity, never by deep structure, which also keeps
  cyclic schemas (Order.cust / Customer.orders) unproblematic.
* :class:`Row` — a tuple value with named + positional field access.
* :class:`Bag` — a multiset; MOA sets are identified value sets, so
  two elements may carry equal values (e.g. equal revenues), which
  materialises as a duplicate-preserving bag.
* :class:`RowBatch` — an ordered set of tuples held column-wise: the
  paper's ``SET(A, TUPLE(f1..fn))`` over synchronous BATs *is* a
  struct of arrays, and a top-level query result stays one from the
  materializer to the client, building :class:`Row` objects only when
  somebody iterates.

Deep equality with float tolerance is provided by :func:`equivalent`,
the comparator used by the Figure 6 commuting-diagram tests.
"""

import math

import numpy as np

from ..errors import EvaluationError


class Ref:
    """A reference to an object: class name + oid, identity semantics."""

    __slots__ = ("class_name", "oid")

    def __init__(self, class_name, oid):
        self.class_name = class_name
        self.oid = int(oid)

    def __repr__(self):
        return "%s:%d" % (self.class_name, self.oid)

    def __eq__(self, other):
        return (isinstance(other, Ref) and other.class_name == self.class_name
                and other.oid == self.oid)

    def __hash__(self):
        return hash(("Ref", self.class_name, self.oid))

    def __lt__(self, other):
        if not isinstance(other, Ref):
            raise TypeError("cannot order Ref against %r" % (other,))
        return (self.class_name, self.oid) < (other.class_name, other.oid)


class Row:
    """A tuple value: ordered named fields, positional access 1-based
    (``%1``, ``%2`` in MOA syntax)."""

    __slots__ = ("_names", "_values")

    def __init__(self, fields, values=None):
        """``fields`` is an iterable of (name, value) pairs — or, with
        ``values``, an already-validated tuple of distinct names (what
        a :class:`RowBatch` hands each row it yields)."""
        if values is not None:
            self._names = fields
            self._values = values
            return
        fields = list(fields)
        self._names = tuple(name for name, _v in fields)
        self._values = tuple(v for _n, v in fields)
        if len(set(self._names)) != len(self._names):
            raise EvaluationError("duplicate field names in row: %r"
                                  % (self._names,))

    @property
    def names(self):
        return self._names

    @property
    def values(self):
        return self._values

    def __getitem__(self, name):
        try:
            return self._values[self._names.index(name)]
        except ValueError:
            raise EvaluationError("row has no field %r (has %r)"
                                  % (name, self._names)) from None

    def at(self, position):
        """1-based positional access, as in MOA's ``%1``."""
        if not 1 <= position <= len(self._values):
            raise EvaluationError("row position %d out of range 1..%d"
                                  % (position, len(self._values)))
        return self._values[position - 1]

    def has(self, name):
        return name in self._names

    def items(self):
        return list(zip(self._names, self._values))

    def __len__(self):
        return len(self._values)

    def __repr__(self):
        return "<%s>" % ", ".join("%s: %r" % (n, v) for n, v in self.items())

    def __eq__(self, other):
        return (isinstance(other, Row) and other._names == self._names
                and other._values == self._values)

    def __hash__(self):
        return hash(("Row", self._names, self._values))


class Bag:
    """A multiset of values, the logical carrier of a MOA set."""

    __slots__ = ("items",)

    def __init__(self, items=()):
        self.items = list(items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def add(self, value):
        self.items.append(value)

    def __repr__(self):
        shown = ", ".join(repr(v) for v in self.items[:6])
        if len(self.items) > 6:
            shown += ", ..."
        return "{%s}" % shown

    def __eq__(self, other):
        if not isinstance(other, Bag):
            return NotImplemented
        return equivalent(self, other)


def column_values(column, ref_class=None):
    """One column as a list of Python values: ``Ref`` s to
    ``ref_class`` when the array holds oids, its items otherwise."""
    if ref_class is None:
        return column.tolist()
    return [Ref(ref_class, oid) for oid in column.tolist()]


class RowBatch:
    """An ordered set of flat tuples as a struct of arrays.

    ``names`` are the field names, ``columns`` one equally long 1-D
    ndarray per field, ``ref_classes`` a class name for each field
    whose column holds the oids of object references (``None`` for
    plain values).  Fixed-width fields are bool/int/float arrays;
    anything else (strings, nested sets, ``None``-bearing fields)
    rides as an object array.

    A batch is a read-only sequence of :class:`Row`: ``len``, indexing,
    slicing (a batch over column views), iteration and equality with a
    row list all work, and every ``Row`` is built at that moment — a
    result nobody iterates never leaves its columns.
    """

    __slots__ = ("names", "columns", "ref_classes")

    __hash__ = None

    def __init__(self, names, columns, ref_classes=None):
        self.names = tuple(names)
        self.columns = list(columns)
        self.ref_classes = (None,) * len(self.names) \
            if ref_classes is None else tuple(ref_classes)
        if not self.names:
            raise EvaluationError("a row batch needs at least one field")
        if len(set(self.names)) != len(self.names):
            raise EvaluationError("duplicate field names in batch: %r"
                                  % (self.names,))
        if not len(self.names) == len(self.columns) \
                == len(self.ref_classes):
            raise EvaluationError(
                "batch has %d names, %d columns, %d ref classes"
                % (len(self.names), len(self.columns),
                   len(self.ref_classes)))
        for column, ref_class in zip(self.columns, self.ref_classes):
            if not isinstance(column, np.ndarray) or column.ndim != 1 \
                    or len(column) != len(self.columns[0]):
                raise EvaluationError(
                    "batch columns must be equally long 1-D arrays")
            if ref_class is not None and column.dtype.kind not in "iu":
                raise EvaluationError(
                    "a reference column holds integer oids, not %s"
                    % column.dtype)

    def __len__(self):
        return len(self.columns[0])

    def __iter__(self):
        names = self.names
        for values in zip(*map(column_values, self.columns,
                               self.ref_classes)):
            yield Row(names, values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RowBatch(self.names,
                            [column[index] for column in self.columns],
                            self.ref_classes)
        values = []
        for column, ref_class in zip(self.columns, self.ref_classes):
            value = column[index]
            if isinstance(value, np.generic):
                value = value.item()
            values.append(value if ref_class is None
                          else Ref(ref_class, value))
        return Row(self.names, tuple(values))

    def __eq__(self, other):
        if not isinstance(other, (RowBatch, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    def __repr__(self):
        shown = ", ".join(repr(row) for row in self[:6])
        if len(self) > 6:
            shown += ", ... (%d rows)" % len(self)
        return "[%s]" % shown


# ----------------------------------------------------------------------
# identified value sets (formal definitions, section 3.3)
# ----------------------------------------------------------------------
def is_ivs(pairs):
    """True when ``pairs`` is an identified value set: every pair is
    ``<id, value>`` and ids are unique within the set."""
    seen = set()
    for pair in pairs:
        if len(pair) != 2:
            return False
        identifier = pair[0]
        if identifier in seen:
            return False
        seen.add(identifier)
    return True


def is_synchronous(first, second):
    """Two IVSs are synchronous when their id sets coincide exactly."""
    return ({identifier for identifier, _v in first}
            == {identifier for identifier, _v in second})


# ----------------------------------------------------------------------
# deep comparison
# ----------------------------------------------------------------------
def canonical_key(value):
    """A sort key stable across equivalent values (floats rounded)."""
    if isinstance(value, Bag):
        return ("bag", tuple(sorted(canonical_key(v) for v in value.items)))
    if isinstance(value, Row):
        return ("row", value.names,
                tuple(canonical_key(v) for v in value.values))
    if isinstance(value, Ref):
        return ("ref", value.class_name, value.oid)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, float):
        return ("num", round(value, 6))
    if isinstance(value, int):
        return ("num", round(float(value), 6))
    return (type(value).__name__, value)


def equivalent(left, right, tolerance=1e-6):
    """Deep equality with float tolerance; Bags compare as multisets."""
    if isinstance(left, Bag) or isinstance(right, Bag):
        if not (isinstance(left, Bag) and isinstance(right, Bag)):
            return False
        if len(left) != len(right):
            return False
        left_sorted = sorted(left.items, key=canonical_key)
        right_sorted = sorted(right.items, key=canonical_key)
        return all(equivalent(lv, rv, tolerance)
                   for lv, rv in zip(left_sorted, right_sorted))
    if isinstance(left, Row) or isinstance(right, Row):
        if not (isinstance(left, Row) and isinstance(right, Row)):
            return False
        if left.names != right.names or len(left) != len(right):
            return False
        return all(equivalent(lv, rv, tolerance)
                   for lv, rv in zip(left.values, right.values))
    if isinstance(left, Ref) or isinstance(right, Ref):
        return left == right
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right or left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return math.isclose(float(left), float(right),
                            rel_tol=tolerance, abs_tol=tolerance)
    return left == right


def sequences_equivalent(left, right, tolerance=1e-6, ordered=False):
    """Compare two sequences of values, as bags or as ordered lists."""
    left = list(left)
    right = list(right)
    if ordered:
        return (len(left) == len(right)
                and all(equivalent(lv, rv, tolerance)
                        for lv, rv in zip(left, right)))
    return equivalent(Bag(left), Bag(right), tolerance)
