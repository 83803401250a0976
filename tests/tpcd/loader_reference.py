"""Reference loader: the per-value flattening the columnar one replaced.

Before :func:`repro.moa.mapping.flatten` took class columns it walked
the logical store ``{class: {oid: {attr: value}}}`` object by object,
handing every value to ``MonetKernel.bulk_load`` in Python lists (so
``column_from_values`` coerced one value at a time), and dbgen built
that store eagerly with ``_logical_view``.  Both are copied here
verbatim, with the imports made absolute.  They are slow and obviously
right, which makes them the oracle (the ``buffer_reference.py``
pattern): ``test_load_differential.py`` loads the same TPC-D dataset
both ways and requires equal BATs and byte-identical saved
directories.  Do not optimise them.

One thing was added: catalog integer columns are stored in the
narrowest of int16/int32/int64 that holds their values.  The reference
applies that rule itself (:func:`_narrowed`, over Python ints), rather
than through ``MonetKernel.bulk_load``, so the differential also
checks the engine's rule column by column.
"""

import numpy as np

from repro.errors import MappingError
from repro.moa.mapping import (FlattenedDatabase, create_datavectors,
                               reorder_on_tail)
from repro.moa.schema import Schema
from repro.moa.types import BaseType, ClassRef, SetType, TupleType
from repro.moa.values import Ref, Row


def _atom_of(base_type):
    return base_type.atom.name


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


def flatten(schema, data, kernel, datavectors=False, reorder=False):
    """Vertically decompose ``data`` into ``kernel`` BATs.

    ``data`` maps class name -> {oid -> {attr -> logical value}}.
    When ``datavectors`` is set, the section 6 accelerator pipeline
    also runs (extents exist regardless); ``reorder`` additionally
    re-sorts all plain attribute BATs on tail values.
    Returns a :class:`FlattenedDatabase`.
    """
    if not isinstance(schema, Schema):
        raise MappingError("flatten needs a Schema")
    schema.validate()
    flat = FlattenedDatabase(schema, kernel, data)
    for class_name, definition in schema.classes.items():
        objects = data.get(class_name, {})
        oids = sorted(objects)
        _load_extent(kernel, flat, class_name, oids)
        for attr, attr_type in definition.attributes:
            _load_attribute(kernel, flat, class_name, attr, attr_type,
                            objects, oids)
    if datavectors:
        create_datavectors(flat)
    if reorder:
        reorder_on_tail(flat)
    return flat


#: (dtype, first value past its range) of the integer widths a catalog
#: column may be stored in, narrowest first
_WIDTHS = (("int16", 2 ** 15), ("int32", 2 ** 31), ("int64", 2 ** 63))


def _narrowed(column):
    """``column`` in the narrowest width of ``_WIDTHS`` holding its
    Python values, when it is a non-empty integer column."""
    from repro.monet.column import FixedColumn
    if not isinstance(column, FixedColumn) \
            or column.data.dtype.kind != "i" or len(column) == 0:
        return column
    values = column.data.tolist()
    low, high = min(values), max(values)
    for dtype, bound in _WIDTHS:
        if -bound <= low and high < bound:
            break
    if np.dtype(dtype).itemsize >= column.data.dtype.itemsize:
        return column
    return FixedColumn(column.atom, np.array(values, dtype=dtype),
                       label=column.heaps[0].label)


def _bulk_load(kernel, name, head_atom, heads, tail_atom, tails, group):
    """``MonetKernel.bulk_load`` with the reference's own narrowing."""
    from repro.monet.bat import BAT
    from repro.monet.column import column_from_values
    from repro.monet.kernel import mark_persistent
    from repro.monet.properties import compute_props
    head = _narrowed(column_from_values(head_atom, heads,
                                        label=name + ".head"))
    tail = _narrowed(column_from_values(tail_atom, tails,
                                        label=name + ".tail"))
    bat = BAT(head, tail, alignment=kernel.group_alignment(group))
    bat.props = compute_props(bat)
    mark_persistent(bat)
    kernel.register(name, bat)


def _load_extent(kernel, flat, class_name, oids):
    # extent[oid, void], per section 6
    from repro.monet.bat import BAT
    from repro.monet.column import VoidColumn, column_from_values
    from repro.monet.properties import compute_props
    name = flat.extent_name(class_name)
    head = _narrowed(column_from_values("oid", oids,
                                        label=name + ".head"))
    extent = BAT(head, VoidColumn(0, len(oids)),
                 alignment=kernel.group_alignment(class_name))
    extent.props = compute_props(extent)
    from repro.monet.kernel import mark_persistent
    mark_persistent(extent)
    kernel.register(name, extent)


def _load_attribute(kernel, flat, class_name, attr, attr_type, objects,
                    oids):
    name = flat.attr_bat_name(class_name, attr)
    if isinstance(attr_type, BaseType):
        values = [_attr_value(objects, oid, attr, class_name)
                  for oid in oids]
        _bulk_load(kernel, name, "oid", oids, _atom_of(attr_type), values,
                   group=class_name)
        return
    if isinstance(attr_type, ClassRef):
        values = [_ref_oid(_attr_value(objects, oid, attr, class_name),
                           attr_type.class_name) for oid in oids]
        _bulk_load(kernel, name, "oid", oids, "oid", values,
                   group=class_name)
        return
    if isinstance(attr_type, SetType):
        _load_set_attribute(kernel, flat, class_name, attr, attr_type,
                            objects, oids, name)
        return
    if isinstance(attr_type, TupleType):
        for field_name, field_type in attr_type.fields:
            field_bat = flat.field_bat_name(class_name, attr, field_name)
            rows = [_row_of(_attr_value(objects, oid, attr, class_name))
                    for oid in oids]
            if isinstance(field_type, BaseType):
                values = [row[field_name] for row in rows]
                _bulk_load(kernel, field_bat, "oid", oids,
                           _atom_of(field_type), values,
                           group=class_name)
            elif isinstance(field_type, ClassRef):
                values = [_ref_oid(row[field_name], field_type.class_name)
                          for row in rows]
                _bulk_load(kernel, field_bat, "oid", oids, "oid", values,
                           group=class_name)
            else:
                raise MappingError(
                    "%s.%s.%s: nested structures inside plain tuple "
                    "attributes are not supported"
                    % (class_name, attr, field_name))
        return
    raise MappingError("unsupported attribute type for %s.%s"
                       % (class_name, attr))


def _load_set_attribute(kernel, flat, class_name, attr, attr_type,
                        objects, oids, name):
    element = attr_type.element
    group = "%s:%s" % (class_name, attr)
    if isinstance(element, BaseType):
        owners, values = _gather_set(objects, oids, attr, class_name)
        _bulk_load(kernel, name, "oid", owners, _atom_of(element), values,
                   group=group)
        return
    if isinstance(element, ClassRef):
        owners, values = _gather_set(objects, oids, attr, class_name)
        ref_oids = [_ref_oid(v, element.class_name) for v in values]
        _bulk_load(kernel, name, "oid", owners, "oid", ref_oids,
                   group=group)
        return
    if isinstance(element, TupleType):
        owners, values = _gather_set(objects, oids, attr, class_name)
        elem_ids = list(range(len(values)))
        _bulk_load(kernel, name, "oid", owners, "oid", elem_ids, group=group)
        rows = [_row_of(v) for v in values]
        for field_name, field_type in element.fields:
            field_bat = flat.field_bat_name(class_name, attr, field_name)
            if isinstance(field_type, BaseType):
                field_values = [row[field_name] for row in rows]
                _bulk_load(kernel, field_bat, "oid", elem_ids,
                           _atom_of(field_type), field_values,
                           group=group)
            elif isinstance(field_type, ClassRef):
                field_values = [_ref_oid(row[field_name],
                                         field_type.class_name)
                                for row in rows]
                _bulk_load(kernel, field_bat, "oid", elem_ids, "oid",
                           field_values, group=group)
            else:
                raise MappingError(
                    "%s.%s.%s: doubly nested sets are not supported"
                    % (class_name, attr, field_name))
        return
    raise MappingError("unsupported set element type for %s.%s"
                       % (class_name, attr))


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


def _gather_set(objects, oids, attr, class_name):
    owners = []
    values = []
    for oid in oids:
        elements = _attr_value(objects, oid, attr, class_name)
        for element in elements:
            owners.append(oid)
            values.append(element)
    return owners, values


def _logical_view(tables):
    """Build the logical object store (nested, per Figure 1)."""
    data = {}
    data["Region"] = {
        oid: {"name": name, "comment": "region %d" % oid}
        for oid, name in enumerate(tables["region"]["name"])}
    data["Nation"] = {
        oid: {"name": tables["nation"]["name"][oid],
              "region": int(tables["nation"]["region"][oid])}
        for oid in range(len(tables["nation"]["name"]))}

    supplies_by_supplier = {}
    ps = tables["partsupp"]
    for position in range(len(ps["part"])):
        supplies_by_supplier.setdefault(
            int(ps["supplier"][position]), []).append({
                "part": int(ps["part"][position]),
                "cost": float(ps["cost"][position]),
                "available": int(ps["available"][position]),
            })
    sup = tables["supplier"]
    data["Supplier"] = {
        oid: {"name": sup["name"][oid], "address": sup["address"][oid],
              "phone": sup["phone"][oid],
              "acctbal": float(sup["acctbal"][oid]),
              "nation": int(sup["nation"][oid]),
              "supplies": supplies_by_supplier.get(oid, [])}
        for oid in range(len(sup["name"]))}

    part = tables["part"]
    data["Part"] = {
        oid: {"name": part["name"][oid],
              "manufacturer": part["manufacturer"][oid],
              "brand": part["brand"][oid], "type": part["type"][oid],
              "size": int(part["size"][oid]),
              "container": part["container"][oid],
              "retailPrice": float(part["retailprice"][oid])}
        for oid in range(len(part["name"]))}

    orders_by_customer = {}
    for oid, cust in enumerate(tables["orders"]["cust"]):
        orders_by_customer.setdefault(int(cust), []).append(oid)
    cus = tables["customer"]
    data["Customer"] = {
        oid: {"name": cus["name"][oid], "address": cus["address"][oid],
              "phone": cus["phone"][oid],
              "acctbal": float(cus["acctbal"][oid]),
              "nation": int(cus["nation"][oid]),
              "mktsegment": cus["mktsegment"][oid],
              "orders": orders_by_customer.get(oid, [])}
        for oid in range(len(cus["name"]))}

    items_by_order = {}
    for oid, order in enumerate(tables["item"]["order"]):
        items_by_order.setdefault(int(order), []).append(oid)
    orders = tables["orders"]
    data["Order"] = {
        oid: {"cust": int(orders["cust"][oid]),
              "item": items_by_order.get(oid, []),
              "status": orders["status"][oid],
              "totalprice": float(orders["totalprice"][oid]),
              "orderdate": int(orders["orderdate"][oid]),
              "orderpriority": orders["orderpriority"][oid],
              "clerk": orders["clerk"][oid],
              "shippriority": orders["shippriority"][oid]}
        for oid in range(len(orders["cust"]))}

    item = tables["item"]
    data["Item"] = {
        oid: {"part": int(item["part"][oid]),
              "supplier": int(item["supplier"][oid]),
              "order": int(item["order"][oid]),
              "quantity": int(item["quantity"][oid]),
              "returnflag": item["returnflag"][oid],
              "linestatus": item["linestatus"][oid],
              "extendedprice": float(item["extendedprice"][oid]),
              "discount": float(item["discount"][oid]),
              "tax": float(item["tax"][oid]),
              "shipdate": int(item["shipdate"][oid]),
              "commitdate": int(item["commitdate"][oid]),
              "receiptdate": int(item["receiptdate"][oid]),
              "shipmode": item["shipmode"][oid],
              "shipinstruct": item["shipinstruct"][oid]}
        for oid in range(len(item["part"]))}
    return data
