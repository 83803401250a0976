"""Semijoin: ``AB.semijoin(CD) = { ab | ab in AB, exists cd: a = c }``.

"The semijoin operation is important, since it is heavily used for
re-assembling vertically partitioned fragments" (section 4.2).  Four
implementations exist, dispatched at run time on operand state
(sections 5.1 and 5.2.1):

* ``syncsemijoin`` — the operands are *synced* (identical head
  sequences), so the result is the left operand itself (its columns,
  shared — not copied): "the most particular variant".
* ``datavectorsemijoin`` — the left operand carries a datavector
  accelerator (section 5.2.1): oids of the right operand are looked up
  in the sorted class extent with probe-based binary search, the
  resulting LOOKUP array is cached per right operand (the "blazed
  trail"), and values are fetched positionally from the value vector.
  The result is produced in *right* operand order.  When every right
  oid is found its head sequence *is* the right operand's, so it takes
  the right operand's alignment token; otherwise it gets a token of its
  own per (class, right operand).  Either way two datavector semijoins
  against the same selection are synced with each other.
* ``mergesemijoin`` — both head columns ordered: the right heads
  ascend already, so membership is a binary search with no sort.
* ``hashsemijoin`` — the generic fallback: sort, then the same search.

Both mask variants (and ``antijoin``) first try a direct-address bool
table over the right heads' span when the keys are integers and that
span is compact — the oids of a selection inside a class extent — so
membership is a scatter and a gather, not a search; the dispatch names
stay as they are.

``antijoin`` (``{ ab | a not in heads(CD) }``) is the complement,
needed by set difference and NOT EXISTS-style queries.
"""

import numpy as np

from ..accelerators.datavector import has_datavector
from ..buffer import get_manager
from ..column import FixedColumn, equality_keys
from ..optimizer import get_optimizer
from ..properties import Props, synced
from ..vectorized import membership_mask
from .common import result_bat, take_subsequence


def semijoin(ab, cd, name=None):
    """Dispatch over the four variants; see module docstring."""
    optimizer = get_optimizer()
    if optimizer.dynamic and synced(ab, cd):
        optimizer.record("semijoin", "syncsemijoin")
        return _syncsemijoin(ab, name)
    if (optimizer.dynamic and has_datavector(ab) and cd.props.hkey
            and not cd.head.atom.varsized):
        optimizer.record("semijoin", "datavectorsemijoin")
        return _datavectorsemijoin(ab, cd, name)
    if (optimizer.dynamic and ab.props.hordered and cd.props.hordered
            and not ab.head.atom.varsized and not cd.head.atom.varsized):
        optimizer.record("semijoin", "mergesemijoin")
        return _masksemijoin(ab, cd, name, "semijoin.merge")
    optimizer.record("semijoin", "hashsemijoin")
    return _masksemijoin(ab, cd, name, "semijoin.hash")


def antijoin(ab, cd, name=None):
    """``{ ab | a not in heads(CD) }`` — complement of semijoin."""
    manager = get_manager()
    with manager.operator("antijoin"):
        mask = _membership_mask(ab, cd, manager)
        positions = np.nonzero(~mask)[0]
        manager.access_column(ab.tail, positions)
    return take_subsequence(ab, positions, name=name)


def _membership_mask(ab, cd, manager):
    # compact integer keys (oids inside a class extent) probe a bool
    # table; other fixed-width keys fall back to a binary search over
    # the sorted right keys; the per-BUN Python set probe survives for
    # object-dtype keys
    left_keys, right_keys = equality_keys(ab.head, cd.head)
    manager.access_column(ab.head)
    manager.access_column(cd.head)
    return membership_mask(left_keys, right_keys)


def _syncsemijoin(ab, name):
    # synced operands: every left BUN qualifies
    return result_bat(ab.head, ab.tail, name=name, props=ab.props.copy(),
                      alignment=ab.alignment)


def _masksemijoin(ab, cd, name, label):
    manager = get_manager()
    with manager.operator(label):
        mask = _membership_mask(ab, cd, manager)
        positions = np.nonzero(mask)[0]
        manager.access_column(ab.tail, positions)
    out = take_subsequence(ab, positions, name=name)
    if len(out) != len(ab):
        out.alignment = ("semijoin", ab.alignment, cd.identity)
    return out


def _datavectorsemijoin(ab, cd, name):
    # paper section 5.2.1 pseudo code: EXTENT/VECTOR fetch through the
    # cached LOOKUP array; result in right-operand (cd) order.
    manager = get_manager()
    accel = ab.accel["datavector"]
    registry = accel.registry
    with manager.operator("semijoin.datavector"):
        extent_pos = registry.lookup(cd)
        tail = accel.fetch(extent_pos)
    props = Props(hkey=True, hordered=bool(cd.props.hordered))
    found_all = len(extent_pos) == len(cd)
    if found_all and cd.head.atom is registry.extent_column.atom \
            and not cd.head.is_void():
        # every right oid found: the result heads are the right heads,
        # so a new column over their array replaces the gather (a new
        # intermediate to the buffer manager, as the gather was)
        head = FixedColumn(cd.head.atom, cd.head.logical())
    else:
        head = registry.extent_column.take(extent_pos)
    alignment = cd.alignment if found_all \
        else ("dv", registry.class_name, cd.identity)
    return result_bat(head, tail, name=name, props=props,
                      alignment=alignment)
