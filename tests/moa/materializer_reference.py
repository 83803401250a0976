"""The per-element materializer, kept verbatim as a test oracle.

This is ``repro.moa.structures.Materializer`` as it stood before
results became columnar: one dict ``id -> value`` per rep node and one
``Row`` per element.  ``src/`` now builds a
:class:`~repro.moa.values.RowBatch` with vectorized gathers; the
differential tests assert that ``list(batch)`` equals what this walk
produces, for every Moa driver and every SQL suite text.  Do not
"improve" it — its value is that it shares no code with the new path.
"""

from repro.errors import MOAError
from repro.moa.structures import (AtomRep, InlineAtomRep, InlineRefRep,
                                  ObjectRep, RefRep, SetRep, TupleRep,
                                  ViaRep, resolve_source)
from repro.moa.values import Bag, Ref, Row


# ----------------------------------------------------------------------
# materialization (the upward arrow of Figure 6)
# ----------------------------------------------------------------------
class Materializer:
    """Rebuilds logical values from a rep tree.

    ``resolver(source)`` maps a rep source (Var or BAT) to a BAT;
    ``schema``/``catalog_get`` serve ObjectRep attribute lookups when
    deep materialisation is requested (sessions use shallow Refs).
    """

    def __init__(self, resolver):
        self.resolver = resolver

    # -- id -> value maps ------------------------------------------------
    def value_map(self, rep):
        """dict element-id -> logical value for an inner rep."""
        if isinstance(rep, AtomRep):
            bat = resolve_source(rep.source, self.resolver)
            return dict(bat.to_pairs())
        if isinstance(rep, RefRep):
            bat = resolve_source(rep.source, self.resolver)
            return {identifier: Ref(rep.class_name, oid)
                    for identifier, oid in bat.to_pairs()}
        if isinstance(rep, ObjectRep):
            return _IdentityMap(lambda oid: Ref(rep.class_name, oid))
        if isinstance(rep, InlineAtomRep):
            return _IdentityMap(lambda value: value)
        if isinstance(rep, InlineRefRep):
            return _IdentityMap(lambda oid: Ref(rep.class_name, oid))
        if isinstance(rep, TupleRep):
            field_maps = [(name, self.value_map(field_rep))
                          for name, field_rep in rep.fields]
            return _TupleMap(field_maps)
        if isinstance(rep, SetRep):
            index = resolve_source(rep.index, self.resolver)
            inner = self.value_map(rep.inner)
            grouped = {}
            for owner, elem in index.to_pairs():
                grouped.setdefault(owner, Bag()).add(inner[elem])
            return _SetMap(grouped)
        if isinstance(rep, ViaRep):
            mapping = resolve_source(rep.map_source, self.resolver)
            inner = self.value_map(rep.inner)
            return {new_id: inner[old_id]
                    for new_id, old_id in mapping.to_pairs()}
        raise MOAError("cannot materialize rep %r" % rep)

    def top_level(self, rep):
        """Materialise a top-level SET rep into an ordered value list.

        The order follows the index BAT's BUN order, which is how the
        flattened engine carries ORDER BY information.
        """
        if not isinstance(rep, SetRep):
            raise MOAError("top-level result must be a SET rep, got %r"
                           % rep)
        index = resolve_source(rep.index, self.resolver)
        inner = self.value_map(rep.inner)
        return [inner[elem] for _owner, elem in index.to_pairs()]


class _IdentityMap:
    """Lazy id->value map where the value is a function of the id."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, key):
        return self.fn(key)

    def get(self, key, default=None):
        return self.fn(key)


class _TupleMap:
    """Lazy id->Row map over synchronous field maps."""

    __slots__ = ("field_maps",)

    def __init__(self, field_maps):
        self.field_maps = field_maps

    def __getitem__(self, key):
        return Row([(name, mapping[key])
                    for name, mapping in self.field_maps])


class _SetMap:
    """id->Bag map where absent owners own the empty bag."""

    __slots__ = ("grouped",)

    def __init__(self, grouped):
        self.grouped = grouped

    def __getitem__(self, key):
        value = self.grouped.get(key)
        return value if value is not None else Bag()


def materialize(rep, resolver):
    """Materialise a top-level set rep; see :class:`Materializer`."""
    return Materializer(resolver).top_level(rep)
