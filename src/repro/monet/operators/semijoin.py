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

Both mask variants pick how to test membership from the left head
(section 5.1's property-driven choice; the dispatch names stay as they
are):

* a left head that is void, or dense by its properties (``hkey``,
  ``hordered``, integer, ``last - first + 1 == n``: a class extent),
  answers by position — the right keys are scattered into a bool table
  over the left range, and the result head is ``positions + base``,
  with no gather over the left keys;
* a left head whose grouping is already cached (a member index an
  aggregate grouped on) tests membership once per distinct value; when
  every value is a member the result shares the operand's columns;
* otherwise a direct-address bool table over the right heads' span
  when the keys are integers and that span is compact, so membership
  is a scatter and a gather, not a search — ``antijoin`` always takes
  this one.

``antijoin`` (``{ ab | a not in heads(CD) }``) is the complement,
needed by set difference and NOT EXISTS-style queries.
"""

import numpy as np

from ..accelerators.datavector import has_datavector
from ..buffer import get_manager
from ..column import FixedColumn, equality_keys
from ..optimizer import get_optimizer
from ..properties import Props, synced
from ..vectorized import member_positions, membership_mask
from .common import result_bat, subsequence_props, take_subsequence


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
        manager.access_column(ab.head)
        manager.access_column(cd.head)
        positions = np.flatnonzero(~_member_mask(ab, cd))
        manager.access_column(ab.tail, positions)
    return take_subsequence(ab, positions, name=name)


def _syncsemijoin(ab, name):
    # synced operands: every left BUN qualifies
    return result_bat(ab.head, ab.tail, name=name, props=ab.props.copy(),
                      alignment=ab.alignment)


def _masksemijoin(ab, cd, name, label):
    manager = get_manager()
    with manager.operator(label):
        manager.access_column(ab.head)
        manager.access_column(cd.head)
        base = _dense_base(ab, cd)
        if base is not None:
            positions = _positional_members(ab, cd, base)
        elif ab.head.grouping is not None:
            positions = _grouped_members(ab, cd)
        else:
            positions = np.flatnonzero(_member_mask(ab, cd))
        manager.access_column(ab.tail, positions)
    if base is not None and not ab.head.is_void() \
            and len(positions) < len(ab):
        # a dense head is rebuilt from the positions, not gathered
        head = FixedColumn(ab.head.atom, positions + base,
                           label=ab.head.heaps[0].label)
        out = result_bat(head, ab.tail.take(positions), name=name,
                         props=subsequence_props(ab))
    else:
        out = take_subsequence(ab, positions, name=name)
    if len(out) != len(ab):
        out.alignment = ("semijoin", ab.alignment, cd.identity)
    return out


def _dense_base(ab, cd):
    """First key of a left head holding exactly ``base .. base + n - 1``
    in order — void, or dense by its properties — when the right keys
    are integers too; else ``None``."""
    if not _integer(cd.head):
        return None
    head = ab.head
    if head.is_void():
        return head.seqbase
    if not (ab.props.hkey and ab.props.hordered and _integer(head)
            and len(head)):
        return None
    keys = head.keys()
    base = int(keys[0])
    return base if int(keys[-1]) - base + 1 == len(keys) else None


def _integer(column):
    return not column.atom.varsized and column.atom.dtype.kind in "iu"


def _positional_members(ab, cd, base):
    """Left positions whose head is a right key, by position."""
    return member_positions(base, len(ab), cd.head.keys())


def _grouped_members(ab, cd):
    """Left positions whose head is a right key, tested once per
    distinct left head value through the head's cached grouping."""
    inverse, first_pos = ab.head.grouping[:2]
    member = membership_mask(
        *equality_keys(ab.head.take(first_pos), cd.head))
    if member.all():
        return np.arange(len(ab), dtype=np.int64)
    return np.flatnonzero(member[inverse])


def _member_mask(ab, cd):
    """Per left row: is its head a right key?  Compact integer keys
    (oids inside a class extent) probe a bool table; other keys a
    binary search over the sorted right keys."""
    return membership_mask(*equality_keys(ab.head, cd.head))


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
