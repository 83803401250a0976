"""The Binary Association Table (BAT), paper section 3.2 / Figure 2.

A BAT is a two-column table; the left column is the *head*, the right
column the *tail*, and one row is a BUN (Binary UNit).  Because of the
descriptor design, every BAT can also be viewed through its *mirror*
descriptor with head and tail swapped — "an operation free of cost"
(section 4.2).  :meth:`BAT.mirror` implements exactly that: the mirror
shares the underlying columns and swaps the property flags.

A BAT additionally carries:

* ``props`` — the ordered/key flags of section 5.1,
* ``alignment`` — the token implementing ``synced`` (see
  :mod:`repro.monet.properties`),
* ``accel`` — attached search accelerators (hash tables, the
  datavector of section 5.2), stored in extra heaps in Monet.

BAT-algebra operators never mutate their operands (section 4.2); the
only mutating methods here (:meth:`append`) exist to exercise the
property *invalidation* path ("once set, these properties are actively
guarded by the kernel") and are used by tests.
"""

import itertools
import weakref

import numpy as np

from ..errors import BATError
from . import atoms as _atoms
from .column import (Column, FixedColumn, VarColumn, VoidColumn,
                     column_from_values, concat_columns)
from .properties import Props, fresh_alignment, mirror_alignment

_BAT_IDS = itertools.count(1)


class BAT:
    """A Binary Association Table over two :class:`Column` objects."""

    __slots__ = ("head", "tail", "props", "alignment", "name", "accel",
                 "identity", "_origin", "_mirror_ref", "__weakref__")

    def __init__(self, head, tail, name=None, props=None, alignment=None):
        if not isinstance(head, Column) or not isinstance(tail, Column):
            raise BATError("BAT columns must be Column instances")
        if len(head) != len(tail):
            raise BATError("head and tail must have equal length (%d != %d)"
                           % (len(head), len(tail)))
        self.head = head
        self.tail = tail
        self.props = props if props is not None else Props()
        self.alignment = (alignment if alignment is not None
                          else fresh_alignment())
        self.name = name
        self.accel = {}
        self.identity = next(_BAT_IDS)
        self._origin = None             # set on a mirror: the original
        self._mirror_ref = None         # weakref to this BAT's mirror

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self.head)

    def __repr__(self):
        return "BAT(%s)[%s,%s] (%d BUNs)" % (
            self.name or "#%d" % self.identity,
            self.head.atom.name, self.tail.atom.name, len(self))

    def signature(self):
        """The ``[headatom,tailatom]`` signature string of the paper."""
        return "[%s,%s]" % (self.head.atom.name, self.tail.atom.name)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def mirror(self):
        """The mirrored view: head and tail swapped, zero cost.

        The mirror shares this BAT's columns; its alignment token is
        :func:`~repro.monet.properties.mirror_alignment` of this BAT,
        so ``b.mirror().mirror()`` is synced with ``b`` — it *is*
        ``b``.  A mirror holds its original strongly, the original
        its mirror only weakly: no reference cycle, so a BAT (and any
        memory-mapped column it shares) dies with its last reference
        instead of waiting for the garbage collector.
        """
        if self._origin is not None:
            return self._origin
        out = self._mirror_ref() if self._mirror_ref is not None else None
        if out is None:
            out = BAT(self.tail, self.head,
                      name=None if self.name is None else self.name + ".mirror",
                      props=self.props.swapped(),
                      alignment=mirror_alignment(self))
            out._origin = self
            self._mirror_ref = weakref.ref(out)
        return out

    # ------------------------------------------------------------------
    # access helpers
    # ------------------------------------------------------------------
    def bun(self, position):
        """The (head, tail) Python pair at one position."""
        return (self.head.value(position), self.tail.value(position))

    def to_pairs(self):
        """All BUNs as a list of Python pairs (test/debug helper)."""
        heads = self.head.logical()
        tails = self.tail.logical()
        return [(_pyvalue(self.head, heads[i]), _pyvalue(self.tail, tails[i]))
                for i in range(len(self))]

    def take(self, positions, name=None, alignment=None):
        """New BAT holding the BUNs at ``positions`` (in that order)."""
        positions = np.asarray(positions, dtype=np.int64)
        return BAT(self.head.take(positions), self.tail.take(positions),
                   name=name, alignment=alignment)

    def slice(self, lo, hi, name=None):
        """New BAT over the contiguous BUN range ``lo:hi``."""
        return BAT(self.head.slice(lo, hi), self.tail.slice(lo, hi),
                   name=name)

    @property
    def nbytes(self):
        """Byte footprint of both columns (heap bodies included once)."""
        seen = set()
        total = 0
        for col in (self.head, self.tail):
            for heap in col.heaps:
                if heap.heap_id not in seen:
                    seen.add(heap.heap_id)
                    total += heap.nbytes
        return total

    # ------------------------------------------------------------------
    # mutation (exists to exercise property guarding; see module doc)
    # ------------------------------------------------------------------
    def append(self, head_value, tail_value):
        """Append one BUN, re-checking the guarded properties.

        Returns a *new* BAT (columns are immutable); the new BAT keeps
        each declared property only when the appended BUN provably
        preserves it, mirroring the kernel's "rechecked, and switched
        off if necessary" behaviour.
        """
        new_head = _append_column(self.head, head_value)
        new_tail = _append_column(self.tail, tail_value)
        props = Props()
        n = len(self)
        if n == 0:
            props = Props(hkey=True, hordered=True, tkey=True, tordered=True)
        else:
            if self.props.hordered:
                props.hordered = _last_le(self.head, head_value)
            if self.props.tordered:
                props.tordered = _last_le(self.tail, tail_value)
            if self.props.hkey:
                props.hkey = not _contains(self.head, head_value)
            if self.props.tkey:
                props.tkey = not _contains(self.tail, tail_value)
        return BAT(new_head, new_tail, name=self.name, props=props)


def _pyvalue(column, raw):
    """Normalise a numpy scalar out of ``logical()`` to a Python value."""
    if isinstance(raw, (np.bool_,)):
        return bool(raw)
    if isinstance(raw, np.integer):
        return int(raw)
    if isinstance(raw, np.floating):
        return float(raw)
    return raw


def _append_column(column, value):
    if isinstance(column, VoidColumn):
        if value != column.seqbase + column.length:
            raise BATError("cannot append %r to a void column ending at %d"
                           % (value, column.seqbase + column.length))
        return VoidColumn(column.seqbase, column.length + 1)
    values = list(column.logical())
    values.append(column.atom.coerce(value))
    return column_from_values(column.atom, values)


def _last_le(column, value):
    if len(column) == 0:
        return True
    return column.value(len(column) - 1) <= value


def _contains(column, value):
    encoded = column.encode(value)
    if encoded is None:
        return False
    keys = column.keys()
    if keys.dtype == object:
        return value in set(keys)
    return bool(np.any(keys == encoded))


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------
def bat_from_pairs(head_atom, tail_atom, pairs, name=None):
    """Build a BAT from an iterable of (head, tail) Python pairs."""
    pairs = list(pairs)
    heads = [p[0] for p in pairs]
    tails = [p[1] for p in pairs]
    return bat_from_columns_values(head_atom, heads, tail_atom, tails,
                                   name=name)


def bat_from_columns_values(head_atom, heads, tail_atom, tails, name=None):
    """Build a BAT from two parallel Python value sequences."""
    head = column_from_values(head_atom, heads,
                              label=(name or "") + ".head")
    tail = column_from_values(tail_atom, tails,
                              label=(name or "") + ".tail")
    return BAT(head, tail, name=name)


def bat_dense_head(tail_column, seqbase=0, name=None, alignment=None):
    """BAT with a void (virtual dense) head over an existing column."""
    head = VoidColumn(seqbase, len(tail_column))
    out = BAT(head, tail_column, name=name, alignment=alignment)
    out.props.hkey = True
    out.props.hordered = True
    return out


def empty_bat(head_atom, tail_atom, name=None):
    """A BAT with zero BUNs of the given signature."""
    head = _empty_column(head_atom)
    tail = _empty_column(tail_atom)
    out = BAT(head, tail, name=name)
    out.props = Props(hkey=True, hordered=True, tkey=True, tordered=True)
    return out


def _empty_column(atom_name):
    spec = _atoms.atom(atom_name)
    if spec.name == "void":
        return VoidColumn(0, 0)
    if spec.varsized:
        return VarColumn.from_values(spec, [])
    return FixedColumn(spec, np.empty(0, dtype=spec.dtype))


def concat_bats(parts, name=None):
    """Concatenate BATs of identical signature (BUN order preserved)."""
    parts = list(parts)
    if not parts:
        raise BATError("concat_bats needs at least one BAT")
    head = concat_columns([p.head for p in parts])
    tail = concat_columns([p.tail for p in parts])
    return BAT(head, tail, name=name)
