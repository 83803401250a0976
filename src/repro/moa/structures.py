"""Structure functions: the physical-to-logical mapping (section 3.3).

A structured MOA value is represented by a set of BATs plus a
composition of *structure functions*; this module implements that
composition as :class:`Rep` trees.  The paper's functions map directly:

* ``SET(A, S)``   -> :class:`SetRep` (index BAT ``A`` + inner rep ``S``)
* ``SET(A)``      -> :class:`SetRep` with an *inline* inner rep (the
  optimisation for simple element values: the index tail IS the value)
* ``TUPLE(...)``  -> :class:`TupleRep` over synchronous field reps
* ``OBJECT(...)`` -> :class:`ObjectRep` (ids are the object oids;
  attribute BATs are found through the kernel catalog)
* head-unique ``BAT[oid, tau]``  -> :class:`AtomRep`
* head-unique ``BAT[oid, oid]`` referencing class X -> :class:`RefRep`

Rep *sources* are either concrete BATs or MIL variables
(:class:`~repro.monet.mil.Var`); :func:`materialize` resolves variables
through a MIL environment and rebuilds the logical value — the upward
gray arrow of the paper's Figure 6.  Object values materialise as
:class:`~repro.moa.values.Ref` (identity semantics), which keeps the
cyclic TPC-D schema finite.
"""

import numpy as np

from ..errors import MOAError
from ..monet.mil import Var
from ..monet.vectorized import MultiMap, sorted_lookup
from .values import Bag, RowBatch, column_values


class Rep:
    """Abstract structure-function node."""

    def render(self):
        raise NotImplementedError

    def __repr__(self):
        return self.render()


class AtomRep(Rep):
    """Identified value set of base-type values: BAT[id, value]."""

    __slots__ = ("source", "atom_name")

    def __init__(self, source, atom_name):
        self.source = source
        self.atom_name = atom_name

    def render(self):
        return "ATOM(%s)" % _render_source(self.source)


class RefRep(Rep):
    """Identified value set of object references: BAT[id, oid]."""

    __slots__ = ("source", "class_name")

    def __init__(self, source, class_name):
        self.source = source
        self.class_name = class_name

    def render(self):
        return "REF(%s -> %s)" % (_render_source(self.source),
                                  self.class_name)


class ObjectRep(Rep):
    """Objects of a class: element ids ARE the object oids."""

    __slots__ = ("class_name",)

    def __init__(self, class_name):
        self.class_name = class_name

    def render(self):
        return "OBJECT(%s)" % self.class_name


class InlineAtomRep(Rep):
    """Inner rep of the SET(A) optimisation: the id IS the value."""

    __slots__ = ("atom_name",)

    def __init__(self, atom_name):
        self.atom_name = atom_name

    def render(self):
        return "VALUE(%s)" % self.atom_name


class InlineRefRep(Rep):
    """SET(A) over object references: the id IS the referenced oid."""

    __slots__ = ("class_name",)

    def __init__(self, class_name):
        self.class_name = class_name

    def render(self):
        return "VALUEREF(%s)" % self.class_name


class TupleRep(Rep):
    """TUPLE / OBJECT structure function: synchronous field reps."""

    __slots__ = ("fields",)

    def __init__(self, fields):
        self.fields = list(fields)

    def field(self, name):
        for field_name, rep in self.fields:
            if field_name == name:
                return rep
        raise MOAError("tuple rep has no field %r" % name)

    def field_at(self, position):
        if not 1 <= position <= len(self.fields):
            raise MOAError("tuple rep position %d out of range" % position)
        return self.fields[position - 1][1]

    def render(self):
        return "TUPLE(%s)" % ", ".join(
            "%s=%s" % (name, rep.render()) for name, rep in self.fields)


class SetRep(Rep):
    """SET structure function: index BAT[owner, elem] + inner rep."""

    __slots__ = ("index", "inner")

    def __init__(self, index, inner):
        self.index = index
        self.inner = inner

    def render(self):
        return "SET(%s, %s)" % (_render_source(self.index),
                                self.inner.render())


class ViaRep(Rep):
    """Identifier remapping: map BAT[new_id, old_id] over an inner rep.

    Produced by joins/unnests, which mint fresh pair ids and must view
    existing reps through the pair -> original-element mapping.
    """

    __slots__ = ("map_source", "inner")

    def __init__(self, map_source, inner):
        self.map_source = map_source
        self.inner = inner

    def render(self):
        return "VIA(%s, %s)" % (_render_source(self.map_source),
                                self.inner.render())


class Mirrored:
    """A rep source that is the mirror view of another source.

    Extents are stored ``[oid, void]`` (paper section 6) but serve as
    SET indexes ``[owner, elem]`` through their mirror; mirroring is
    free in Monet, so this wrapper just defers it to resolve time.
    """

    __slots__ = ("source",)

    def __init__(self, source):
        self.source = source


def resolve_source(source, resolver):
    """Resolve a rep source (Var / BAT / Mirrored) to a BAT."""
    if isinstance(source, Mirrored):
        return resolve_source(source.source, resolver).mirror()
    return resolver(source)


def _render_source(source):
    if isinstance(source, Mirrored):
        return "mirror(%s)" % _render_source(source.source)
    if isinstance(source, Var):
        return source.name
    if source is None:
        return "-"
    return getattr(source, "name", None) or "<bat>"


# ----------------------------------------------------------------------
# materialization (the upward arrow of Figure 6)
# ----------------------------------------------------------------------
class Materializer:
    """Rebuilds logical values from a rep tree, column-wise.

    ``resolver(source)`` maps a rep source (Var or BAT) to a BAT.  The
    rep tree's BATs are read as whole columns: every node answers
    "your values for these element ids, in this order" with one array
    (:meth:`column`), found by a vectorized gather through the BAT's
    head — no per-element dict, no per-element ``Row``.  Python
    objects appear only where the logical value *is* one: a nested
    set's :class:`~repro.moa.values.Bag`, a nested tuple's ``Row``.
    """

    def __init__(self, resolver):
        self.resolver = resolver

    def top_level(self, rep):
        """Materialise a top-level SET rep in index BUN order (which
        is how the flattened engine carries ORDER BY information).

        A set of tuples comes back as one
        :class:`~repro.moa.values.RowBatch`; a set of anything else
        (atoms, references) as a list of its values.
        """
        if not isinstance(rep, SetRep):
            raise MOAError("top-level result must be a SET rep, got %r"
                           % rep)
        ids = resolve_source(rep.index, self.resolver).tail.logical()
        if isinstance(rep.inner, TupleRep):
            return self.batch(rep.inner, ids)
        return self.values(rep.inner, ids)

    def batch(self, rep, ids):
        """The tuples of a TUPLE rep at ``ids``, as a RowBatch."""
        columns = [self.column(field_rep, ids)
                   for _name, field_rep in rep.fields]
        return RowBatch([name for name, _rep in rep.fields],
                        [column for column, _class in columns],
                        [ref_class for _column, ref_class in columns])

    def values(self, rep, ids):
        """The logical values of ``rep`` at ``ids``, as a list."""
        if isinstance(rep, TupleRep):
            return list(self.batch(rep, ids))
        return column_values(*self.column(rep, ids))

    def column(self, rep, ids):
        """``(array, ref_class)``: one value of ``rep`` per element id
        in ``ids``; with a ``ref_class`` the array holds the oids of
        references to that class."""
        if isinstance(rep, AtomRep):
            return self._lookup(rep.source, ids), None
        if isinstance(rep, RefRep):
            return self._lookup(rep.source, ids), rep.class_name
        if isinstance(rep, (ObjectRep, InlineRefRep)):
            return np.asarray(ids), rep.class_name
        if isinstance(rep, InlineAtomRep):
            return np.asarray(ids), None
        if isinstance(rep, ViaRep):
            return self.column(rep.inner,
                               self._lookup(rep.map_source, ids))
        if isinstance(rep, TupleRep):
            return _object_column(self.values(rep, ids)), None
        if isinstance(rep, SetRep):
            index = resolve_source(rep.index, self.resolver)
            grouped = {}
            for owner, value in zip(
                    index.head.logical().tolist(),
                    self.values(rep.inner, index.tail.logical())):
                grouped.setdefault(owner, Bag()).add(value)
            # absent owners own the empty bag, each its own
            return _object_column([
                grouped[owner] if owner in grouped else Bag()
                for owner in ids.tolist()]), None
        raise MOAError("cannot materialize rep %r" % rep)

    def _lookup(self, source, ids):
        """Tail values of the head-unique BAT ``source`` at ``ids``."""
        bat = resolve_source(source, self.resolver)
        heads = bat.head.keys()
        if len(heads) == len(ids) and (heads == ids).all():
            # synchronous with the asking set and in its order: the
            # tail already is the answer
            return np.asarray(bat.tail.logical())
        if bat.props.hordered:
            hit, positions = sorted_lookup(heads, ids)
            missing = ~hit
        else:
            positions = MultiMap(heads).lookup_first(ids)
            missing = positions < 0
        if missing.any():
            raise MOAError("rep source %s has no value for element "
                           "id %r" % (_render_source(source),
                                      ids[int(missing.argmax())]))
        return np.asarray(bat.tail.take(positions).logical())


def _object_column(values):
    # fromiter never looks inside the values, where ``np.array`` would
    # unpack equally long Bags and Rows into a 2-D array
    return np.fromiter(values, dtype=object, count=len(values))


def materialize(rep, resolver):
    """Materialise a top-level set rep; see :class:`Materializer`."""
    return Materializer(resolver).top_level(rep)
