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
* ``mergesemijoin`` — both head columns ordered: vectorised
  binary-search membership with sequential access.
* ``hashsemijoin`` — the generic fallback.

``antijoin`` (``{ ab | a not in heads(CD) }``) is the complement,
needed by set difference and NOT EXISTS-style queries.
"""

import numpy as np

from ..accelerators.datavector import has_datavector
from ..buffer import get_manager
from ..column import equality_keys
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
        return _mergesemijoin(ab, cd, name)
    optimizer.record("semijoin", "hashsemijoin")
    return _hashsemijoin(ab, cd, name)


def antijoin(ab, cd, name=None):
    """``{ ab | a not in heads(CD) }`` — complement of semijoin."""
    manager = get_manager()
    with manager.operator("antijoin"):
        mask = _membership_mask(ab, cd, manager)
        positions = np.nonzero(~mask)[0]
        manager.access_column(ab.tail, positions)
    return take_subsequence(ab, positions, name=name)


def _membership_mask(ab, cd, manager):
    # fixed-width atoms go through the sort-based np.isin kernel; the
    # per-BUN Python set probe survives only for object-dtype keys
    left_keys, right_keys = equality_keys(ab.head, cd.head)
    manager.access_column(ab.head)
    manager.access_column(cd.head)
    return membership_mask(left_keys, right_keys)


def _syncsemijoin(ab, name):
    # synced operands: every left BUN qualifies
    return result_bat(ab.head, ab.tail, name=name, props=ab.props.copy(),
                      alignment=ab.alignment)


def _hashsemijoin(ab, cd, name):
    manager = get_manager()
    with manager.operator("semijoin.hash"):
        mask = _membership_mask(ab, cd, manager)
        positions = np.nonzero(mask)[0]
        manager.access_column(ab.tail, positions)
    out = take_subsequence(ab, positions, name=name)
    if len(out) != len(ab):
        out.alignment = ("semijoin", ab.alignment, cd.identity)
    return out


def _mergesemijoin(ab, cd, name):
    manager = get_manager()
    with manager.operator("semijoin.merge"):
        left_keys, right_keys = equality_keys(ab.head, cd.head)
        manager.access_column(ab.head)
        manager.access_column(cd.head)
        positions_r = np.searchsorted(right_keys, left_keys)
        positions_r = np.clip(positions_r, 0, max(0, len(right_keys) - 1))
        if len(right_keys):
            mask = right_keys[positions_r] == left_keys
        else:
            mask = np.zeros(len(left_keys), dtype=bool)
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
        extent_pos, _right_pos = registry.lookup(cd)
        head = registry.extent_column.take(extent_pos)
        tail = accel.vector.take(extent_pos)
        for heap in accel.vector.heaps:
            width = getattr(heap, "width", None) or 4
            manager.access_positions(heap, extent_pos, width)
    props = Props(hkey=True, hordered=bool(cd.props.hordered))
    alignment = cd.alignment if len(extent_pos) == len(cd) \
        else ("dv", registry.class_name, cd.identity)
    return result_bat(head, tail, name=name, props=props,
                      alignment=alignment)
