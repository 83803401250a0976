"""Flattening: full vertical decomposition of objects into BATs.

Implements the mapping of paper section 3.3 / Figure 3 with the
naming conventions of the TPC-D discussion (section 6):

====================================  =================================
logical construct                     BATs created
====================================  =================================
class ``C`` extent                    ``C``            BAT[oid, void]
base/ref attribute ``a``              ``C_a``          BAT[oid, value]
set attribute of simple elements      ``C_a``          BAT[oid, value]
  (the SET(A) optimisation)             (0..n BUNs per owner)
set attribute of tuples               ``C_a``          BAT[oid, elemid]
                                      ``C_a_f``        BAT[elemid, value]
                                        per tuple field f (synced)
tuple attribute                       ``C_a_f``        BAT[oid, value]
====================================  =================================

Vertical decomposition is a column-at-a-time bulk operation, so
:func:`flatten` takes the objects **as columns** and builds each BAT
from one array.  ``columns`` maps each class name to ``(oids,
attributes)``:

* ``oids`` — the class extent, ascending;
* a base or reference attribute — one array aligned with ``oids``
  (a reference as its target's oid; a string attribute may come
  factorized, as a :class:`~repro.monet.column.Coded` of codes into a
  vocabulary, which becomes the BAT's heap without per-value work);
* a tuple attribute — a dict of such arrays, one per field;
* a set attribute — ``(owners, elements)``, one BUN per element:
  ``owners`` holds each element's owner oid, grouped by owner in oid
  order with each owner's elements in set order, and ``elements`` is
  an array, or for a set of tuples a dict of field arrays.

:func:`objects_to_columns` derives the columns from the logical store
``{class: {oid: {attr: value}}}`` (what :meth:`MOADatabase.load
<repro.moa.session.MOADatabase.load>` takes), and
:func:`columns_to_objects` is its inverse, which builds the logical
store the reference evaluator reads only when something reads it.

All attribute BATs of one class are bulk-loaded in oid order with a
shared alignment token, so the kernel knows they are mutually *synced*
("this utility correctly sets the properties key, ordered, and synced",
section 6).  The structure expression for each class — e.g. the
paper's ``SET(Supplier, OBJECT(...))`` — is produced by
:meth:`FlattenedDatabase.class_rep`.
"""

import functools

import numpy as np

from ..errors import MappingError
from ..monet.column import Coded
from ..monet.mil import Var
from .schema import Schema
from .structures import (AtomRep, InlineAtomRep, InlineRefRep, Mirrored,
                         ObjectRep, RefRep, SetRep, TupleRep)
from .types import BaseType, ClassRef, SetType, TupleType
from .values import Ref, Row


class FlattenedDatabase:
    """A schema mapped onto a kernel catalog, plus the logical data.

    The logical store (``data``) is kept as the evaluator's input, so
    the two gray paths of Figure 6 start from the same value.  It may
    be given as a function of no arguments, which the first read of
    ``data`` calls: only the reference evaluator reads the store, so a
    database that is never evaluated never builds it.
    """

    def __init__(self, schema, kernel, data):
        self.schema = schema
        self.kernel = kernel
        self._data = data

    @property
    def data(self):
        if callable(self._data):
            self._data = self._data()
        return self._data

    @data.setter
    def data(self, data):
        self._data = data

    # -- naming convention ------------------------------------------------
    def extent_name(self, class_name):
        return class_name

    def attr_bat_name(self, class_name, attr):
        return "%s_%s" % (class_name, attr)

    def field_bat_name(self, class_name, attr, field):
        return "%s_%s_%s" % (class_name, attr, field)

    # -- structure expressions --------------------------------------------
    def class_rep(self, class_name):
        """``SET(extent, OBJECT(class))`` for one class extent."""
        extent = Mirrored(Var(self.extent_name(class_name)))
        return SetRep(extent, ObjectRep(class_name))

    def attribute_rep(self, class_name, attr):
        """The rep of one attribute, as a function of object oids."""
        attr_type = self.schema.cls(class_name).attribute(attr)
        source = Var(self.attr_bat_name(class_name, attr))
        return self._type_rep(attr_type, source, class_name, attr)

    def _type_rep(self, attr_type, source, class_name, attr):
        if isinstance(attr_type, BaseType):
            return AtomRep(source, attr_type.atom.name)
        if isinstance(attr_type, ClassRef):
            return RefRep(source, attr_type.class_name)
        if isinstance(attr_type, SetType):
            element = attr_type.element
            if isinstance(element, BaseType):
                return SetRep(source, InlineAtomRep(element.atom.name))
            if isinstance(element, ClassRef):
                return SetRep(source, InlineRefRep(element.class_name))
            if isinstance(element, TupleType):
                fields = []
                for field_name, field_type in element.fields:
                    field_source = Var(self.field_bat_name(
                        class_name, attr, field_name))
                    fields.append((field_name, self._type_rep(
                        field_type, field_source, class_name,
                        "%s_%s" % (attr, field_name))))
                return SetRep(source, TupleRep(fields))
            raise MappingError("unsupported set element type %r"
                               % element)
        if isinstance(attr_type, TupleType):
            fields = []
            for field_name, field_type in attr_type.fields:
                field_source = Var(self.field_bat_name(
                    class_name, attr, field_name))
                fields.append((field_name, self._type_rep(
                    field_type, field_source, class_name,
                    "%s_%s" % (attr, field_name))))
            return TupleRep(fields)
        raise MappingError("unsupported attribute type %r" % attr_type)


def _ref_oid(value, target_class):
    if isinstance(value, Ref):
        if value.class_name != target_class:
            raise MappingError("reference to %s where %s expected"
                               % (value.class_name, target_class))
        return value.oid
    if isinstance(value, int):
        return value
    raise MappingError("cannot interpret %r as a %s reference"
                       % (value, target_class))


def _row_of(value):
    if isinstance(value, Row):
        return value
    if isinstance(value, dict):
        return Row(list(value.items()))
    raise MappingError("cannot interpret %r as a tuple value" % (value,))


def flatten(schema, columns, kernel, datavectors=False, reorder=False,
            data=None):
    """Vertically decompose class ``columns`` into ``kernel`` BATs.

    ``columns`` has the shape the module docstring describes.
    ``data`` is the logical store for the reference evaluator, or a
    function of no arguments returning it; by default it is derived
    from ``columns`` on first read.  When ``datavectors`` is set, the
    section 6 accelerator pipeline also runs (extents exist
    regardless); ``reorder`` additionally re-sorts all plain attribute
    BATs on tail values.  Returns a :class:`FlattenedDatabase`.
    """
    if not isinstance(schema, Schema):
        raise MappingError("flatten needs a Schema")
    schema.validate()
    if data is None:
        data = functools.partial(columns_to_objects, schema, columns)
    flat = FlattenedDatabase(schema, kernel, data)
    for class_name, definition in schema.classes.items():
        oids, attributes = _class_part(columns, class_name)
        _load_extent(kernel, flat, class_name, oids)
        for attr, attr_type in definition.attributes:
            where = "%s.%s" % (class_name, attr)
            column = _part(attributes, attr, where)
            _load_attribute(kernel, flat, class_name, attr, attr_type,
                            oids, column, where)
    if datavectors:
        create_datavectors(flat)
    if reorder:
        reorder_on_tail(flat)
    return flat


def _load_extent(kernel, flat, class_name, oids):
    # extent[oid, void], per section 6
    from ..monet.bat import BAT
    from ..monet.column import VoidColumn
    from ..monet.kernel import catalog_column
    from ..monet.properties import compute_props
    name = flat.extent_name(class_name)
    head = catalog_column("oid", oids, label=name + ".head")
    extent = BAT(head, VoidColumn(0, len(oids)),
                 alignment=kernel.group_alignment(class_name))
    extent.props = compute_props(extent)
    from ..monet.kernel import mark_persistent
    mark_persistent(extent)
    kernel.register(name, extent)


def _load_attribute(kernel, flat, class_name, attr, attr_type, oids,
                    column, where):
    name = flat.attr_bat_name(class_name, attr)
    if isinstance(attr_type, TupleType):
        _load_fields(kernel, flat, class_name, attr, attr_type, oids,
                     column, class_name, where)
    elif isinstance(attr_type, SetType):
        try:
            owners, elements = column
            n_elements = len(owners)
        except (TypeError, ValueError):
            raise MappingError("%s: a set attribute's column is "
                               "(owners, elements)" % where) from None
        group = "%s:%s" % (class_name, attr)
        element = attr_type.element
        if isinstance(element, TupleType):
            elem_ids = np.arange(n_elements, dtype=np.int64)
            kernel.bulk_load(name, "oid", owners, "oid", elem_ids,
                             group=group)
            _load_fields(kernel, flat, class_name, attr, element,
                         elem_ids, elements, group, where)
        else:
            kernel.bulk_load(name, "oid", owners, _tail_atom(element, where),
                             _sized(elements, n_elements, where),
                             group=group)
    else:
        kernel.bulk_load(name, "oid", oids, _tail_atom(attr_type, where),
                         _sized(column, len(oids), where), group=class_name)


def _load_fields(kernel, flat, class_name, attr, tuple_type, heads,
                 fields, group, where):
    """One BAT per tuple field, headed by ``heads`` (oids or elemids)."""
    for field_name, field_type in tuple_type.fields:
        field_where = "%s.%s" % (where, field_name)
        values = _part(fields, field_name, field_where)
        kernel.bulk_load(flat.field_bat_name(class_name, attr, field_name),
                         "oid", heads, _tail_atom(field_type, field_where),
                         _sized(values, len(heads), field_where),
                         group=group)


def _tail_atom(value_type, where):
    if isinstance(value_type, BaseType):
        return value_type.atom.name
    if isinstance(value_type, ClassRef):
        return "oid"
    raise MappingError("%s: %r nested at this depth is not supported"
                       % (where, value_type))


def _class_part(columns, class_name):
    entry = columns.get(class_name) if isinstance(columns, dict) else None
    if not (isinstance(entry, tuple) and len(entry) == 2
            and isinstance(entry[1], dict)):
        raise MappingError("class %s needs (oids, attributes) columns"
                           % class_name)
    return entry


def _part(mapping, key, where):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise MappingError("no column for %s" % where) from None


def _sized(values, length, where):
    # BATs of one load group are declared synced: a short column must
    # not become a silently misaligned one
    if not hasattr(values, "__len__") or len(values) != length:
        raise MappingError("%s: need %d values, one per BUN"
                           % (where, length))
    return values


# ----------------------------------------------------------------------
# the logical object store <-> class columns
# ----------------------------------------------------------------------
def objects_to_columns(schema, data):
    """Class columns (see the module docstring) of a logical store.

    ``data`` maps class name -> {oid -> {attr -> logical value}};
    references may be oids or :class:`Ref` values, tuples
    :class:`Row` values or dicts.  Raises :class:`MappingError` for a
    missing attribute, a reference to the wrong class, or a value that
    is no tuple where one is expected.
    """
    columns = {}
    for class_name, definition in schema.classes.items():
        objects = data.get(class_name, {})
        oids = sorted(objects)
        attributes = {}
        for attr, attr_type in definition.attributes:
            values = [_attr_value(objects, oid, attr, class_name)
                      for oid in oids]
            if isinstance(attr_type, SetType):
                owners, elements = [], []
                for oid, members in zip(oids, values):
                    for member in members:
                        owners.append(oid)
                        elements.append(member)
                attributes[attr] = (owners, _value_column(
                    attr_type.element, elements))
            else:
                attributes[attr] = _value_column(attr_type, values)
        columns[class_name] = (oids, attributes)
    return columns


def _value_column(value_type, values):
    if isinstance(value_type, ClassRef):
        return [_ref_oid(value, value_type.class_name) for value in values]
    if isinstance(value_type, TupleType):
        rows = [_row_of(value) for value in values]
        return {field_name: _value_column(field_type,
                                          [row[field_name] for row in rows])
                for field_name, field_type in value_type.fields}
    return values


def _attr_value(objects, oid, attr, class_name):
    try:
        record = objects[oid]
    except KeyError:
        raise MappingError("no object %d in class %s"
                           % (oid, class_name)) from None
    if attr not in record:
        raise MappingError("object %s:%d misses attribute %r"
                           % (class_name, oid, attr))
    return record[attr]


def columns_to_objects(schema, columns):
    """The logical store of class columns (:func:`objects_to_columns`'
    inverse): references come back as oids, tuples as dicts."""
    data = {}
    for class_name, definition in schema.classes.items():
        oids, attributes = columns[class_name]
        oids = _as_list(oids)
        records = [{} for _oid in oids]
        for attr, attr_type in definition.attributes:
            column = attributes[attr]
            if isinstance(attr_type, SetType):
                owners, elements = column
                members = {oid: [] for oid in oids}
                for owner, member in zip(_as_list(owners), _logical_values(
                        attr_type.element, elements)):
                    members[owner].append(member)
                values = members.values()
            else:
                values = _logical_values(attr_type, column)
            for record, value in zip(records, values):
                record[attr] = value
        data[class_name] = dict(zip(oids, records))
    return data


def _logical_values(value_type, column):
    if isinstance(value_type, TupleType):
        names = [field_name for field_name, _type in value_type.fields]
        return [dict(zip(names, row)) for row in zip(*(
            _logical_values(field_type, column[field_name])
            for field_name, field_type in value_type.fields))]
    return _as_list(column)


def _as_list(values):
    if isinstance(values, Coded):
        values = values.decode()
    # ndarray.tolist() hands back Python ints/floats/strs
    return values.tolist() if isinstance(values, np.ndarray) \
        else list(values)


def create_datavectors(flat):
    """Section 6: extents already exist; build value vectors per class.

    Only plain (non-set) attribute BATs get datavectors — they are the
    ``[oid, value]`` tables the OLAP value phase semijoins against.
    """
    kernel = flat.kernel
    for class_name, definition in flat.schema.classes.items():
        attr_names = []
        for attr, attr_type in definition.attributes:
            if isinstance(attr_type, (BaseType, ClassRef)):
                attr_names.append(flat.attr_bat_name(class_name, attr))
        kernel.create_datavectors(class_name, attr_names,
                                  extent_name=flat.extent_name(class_name))


def reorder_on_tail(flat):
    """Section 6: re-sort plain attribute BATs on tail values."""
    kernel = flat.kernel
    names = []
    for class_name, definition in flat.schema.classes.items():
        for attr, attr_type in definition.attributes:
            if isinstance(attr_type, (BaseType, ClassRef)):
                names.append(flat.attr_bat_name(class_name, attr))
    kernel.reorder_on_tail(names)
    return names
