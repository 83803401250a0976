"""Equi-join: ``AB.join(CD) = { ad | ab in AB, cd in CD, b = c }``.

The join columns are projected out to keep the operation closed in the
binary model (section 4.2).  Implementations, chosen at run time:

* ``syncjoin`` — the outer tail is *synced* with the inner head (the
  token of ``AB``'s mirror equals ``CD``'s token, equal lengths) and
  the inner head is a key: ``b_i = c_i`` position by position, so
  ``AB.join(CD) = BAT(A, D)`` with no matching and no gather — the
  positional re-alignment the rewriter emits after every
  ``semijoin(values, mirror(index))``, and ``join(ident(x), col)`` for
  a ``col`` synced with ``x`` (an ``ident`` tail *is* its head).
* ``fetchjoin`` — the inner head is a void (virtual dense) column, so
  matching is pure positional arithmetic; used against datavector-style
  dense tables.
* ``mergejoin`` — the inner head is ordered; binary-search (vectorised
  ``searchsorted``) matching with sequential access patterns, "tend to
  work best ... because they have sequential access patterns"
  (section 5.2).
* ``datavectorjoin`` — the inner operand carries a datavector (section
  5.2) and its head is a key: the outer tail oids are probed into the
  sorted class extent and the inner tails fetched positionally from
  the value vector.  A datavector is a bijection of the inner heads
  onto the extent, so this equals ``hashjoin`` without sorting the
  inner head — the path-navigation joins (``join(nav, Item_price)``).
* ``keyjoin`` — the inner head is an integer key whose value span is
  compact against the inner and outer lengths together (the oids of
  an intermediate inside a class extent, probed by a longer outer): one
  scatter builds ``slot[key - base] = position`` and every outer BUN
  is a subtraction and a gather.  A key inner gives each outer BUN at
  most one match, so this equals ``hashjoin`` without its sort and
  multi-match expansion (section 5.2's positional oid lookup).
* ``hashjoin`` — the generic fallback: a sorted multimap of the inner
  head, built per call.

The result is produced in outer (left) BUN order.  When every outer
BUN finds exactly one match the result head *is* the outer head column
(shared, not copied), so the result is *synced* with the outer
operand — the property that makes the Q13 multiplex chain positional —
and a later ``{aggr}`` over it reuses the head's cached grouping.
"""

import numpy as np

from ...errors import OperatorError
from ..accelerators.datavector import has_datavector
from ..buffer import get_manager
from ..column import column_from_values, equality_keys
from ..optimizer import get_optimizer
from ..properties import Props, mirror_alignment
from ..vectorized import (MultiMap, factorize, key_lookup, key_table,
                          refine_codes, sorted_lookup)
from .common import require_nonempty_signature, result_bat


def join(ab, cd, name=None):
    """Dispatch on operand state, per section 5.1."""
    require_nonempty_signature(ab, cd, "join")
    optimizer = get_optimizer()
    if (optimizer.dynamic and cd.props.hkey and len(ab) == len(cd)
            and mirror_alignment(ab) == cd.alignment):
        optimizer.record("join", "syncjoin")
        return _syncjoin(ab, cd, name)
    if optimizer.dynamic and cd.head.is_void():
        optimizer.record("join", "fetchjoin")
        return _fetchjoin(ab, cd, name)
    if (optimizer.dynamic and cd.props.hordered and cd.props.hkey
            and not cd.head.atom.varsized and not ab.tail.atom.varsized):
        optimizer.record("join", "mergejoin")
        return _mergejoin(ab, cd, name)
    if (optimizer.dynamic and has_datavector(cd) and cd.props.hkey
            and not ab.tail.atom.varsized):
        optimizer.record("join", "datavectorjoin")
        return _datavectorjoin(ab, cd, name)
    if (optimizer.dynamic and cd.props.hkey and _integer(ab.tail)
            and _integer(cd.head)):
        table = key_table(cd.head.keys(), len(ab))
        if table is not None:
            optimizer.record("join", "keyjoin")
            return _keyjoin(ab, cd, table, name)
    optimizer.record("join", "hashjoin")
    return _hashjoin(ab, cd, name)


def _integer(column):
    dtype = column.atom.dtype
    return dtype is not None and dtype.kind in "iu"


def join_positions(ab, cd):
    """(left_positions, right_positions) of every matching BUN pair.

    Left-major order; shared by the hashjoin operator, grouping and
    the aligned multiplex.
    """
    left_keys, right_keys = equality_keys(ab.tail, cd.head)
    return MultiMap(right_keys).match(left_keys)


def pairjoin(operands, name=None):
    """Multi-key equi-join producing ``[left_elem, right_elem]`` pairs.

    ``operands`` is an even-length list: the first half are left key
    columns (BATs ``[left_elem, key_i]``, mutually aligned on their
    heads), the second half right key columns.  A pair qualifies when
    all key positions match — the building block for MOA joins on
    composite keys, where the binary model has no single column to
    join on.
    """
    if len(operands) < 2 or len(operands) % 2:
        raise OperatorError("pairjoin needs an even number of key columns")
    half = len(operands) // 2
    lefts, rights = operands[:half], operands[half:]
    manager = get_manager()
    with manager.operator("pairjoin"):
        left_ids, left_gather = _side_alignment(lefts, manager)
        right_ids, right_gather = _side_alignment(rights, manager)
        left_codes, right_codes = _composite_codes(
            lefts, left_gather, rights, right_gather)
        left_pos, right_pos = MultiMap(right_codes).match(left_codes)
        out_left = left_ids[left_pos]
        out_right = right_ids[right_pos]
    head = column_from_values("oid", out_left)
    tail = column_from_values("oid", out_right)
    props = Props(hordered=True)
    return result_bat(head, tail, name=name, props=props)


def _side_alignment(key_bats, manager):
    """(element ids, per-bat gather positions) for one operand side.

    ``gather[i]`` maps each element of the side's first BAT to its BUN
    position in ``key_bats[i]`` (``-1`` when the head is absent there,
    the analogue of a failed dict lookup in the old tuple build).
    """
    first = key_bats[0]
    manager.access_column(first.head)
    ids = np.asarray(first.head.logical(), dtype=np.int64)
    gathers = [np.arange(len(first), dtype=np.int64)]
    for bat in key_bats[1:]:
        if not bat.props.hkey:
            raise OperatorError("pairjoin key columns must be "
                                "head-unique")
        first_keys, bat_keys = equality_keys(first.head, bat.head)
        gathers.append(MultiMap(bat_keys).lookup_first(first_keys))
    return ids, gathers


def _composite_codes(lefts, left_gather, rights, right_gather):
    """Dense int64 composite-key code per element, both sides jointly.

    Each slot's keys are factorised over the concatenation of the two
    sides, so equal values — across heaps too — get equal codes; a
    missing head gets the per-slot sentinel code, matching the old
    ``None`` tuple component, so two missing heads still match.  The
    slot codes refine one another slot by slot (:func:`refine_codes`),
    which keeps the composite dense whatever the arity, and the result
    is split at the left length.
    """
    manager = get_manager()
    n_left = len(left_gather[0])
    codes = None
    for slot, (lbat, rbat) in enumerate(zip(lefts, rights)):
        manager.access_column(lbat.tail)
        manager.access_column(rbat.tail)
        lraw, rraw = equality_keys(lbat.tail, rbat.tail)
        lkeys, lmissing = _gather_keys(lraw, left_gather[slot])
        rkeys, rmissing = _gather_keys(rraw, right_gather[slot])
        slot_codes, n = factorize(np.concatenate([lkeys, rkeys]))
        slot_codes[np.concatenate([lmissing, rmissing])] = n
        codes = slot_codes if codes is None \
            else refine_codes(codes, slot_codes)[0]
    return codes[:n_left], codes[n_left:]


def _gather_keys(raw, positions):
    """(keys aligned to positions, missing mask) with -1 = missing."""
    missing = positions < 0
    if len(raw) == 0:
        return np.zeros(len(positions), dtype=np.int64), \
            np.ones(len(positions), dtype=bool)
    return raw[np.where(missing, 0, positions)], missing


def _finish(ab, cd, left_pos, tail, name):
    if len(left_pos) == len(ab) and cd.props.hkey:
        # total 1:1 match: left_pos is 0..n-1, the result heads are
        # exactly the outer heads
        props = Props(hkey=ab.props.hkey, hordered=ab.props.hordered)
        return result_bat(ab.head, tail, name=name, props=props,
                          alignment=ab.alignment)
    props = Props(hkey=ab.props.hkey and cd.props.hkey,
                  hordered=ab.props.hordered)   # left-major order
    return result_bat(ab.head.take(left_pos), tail, name=name, props=props)


def _syncjoin(ab, cd, name):
    # dispatch guarantees ab.tail[i] == cd.head[i] for every i and a
    # key inner head: each outer BUN matches exactly its own position
    props = Props(hkey=ab.props.hkey, hordered=ab.props.hordered)
    return result_bat(ab.head, cd.tail, name=name, props=props,
                      alignment=ab.alignment)


def _fetchjoin(ab, cd, name):
    manager = get_manager()
    with manager.operator("join.fetchjoin"):
        manager.access_column(ab.tail)
        keys = np.asarray(ab.tail.logical(), dtype=np.int64)
        seqbase = cd.head.seqbase
        positions = keys - seqbase
        valid = (positions >= 0) & (positions < len(cd))
        left_pos = np.nonzero(valid)[0]
        right_pos = positions[valid]
        manager.access_column(ab.head, left_pos)
        manager.access_column(cd.tail, right_pos)
    return _finish(ab, cd, left_pos, cd.tail.take(right_pos), name)


def _mergejoin(ab, cd, name):
    # dispatch guarantees: fixed-width keys, cd head ordered and unique
    manager = get_manager()
    with manager.operator("join.mergejoin"):
        left_keys, right_keys = equality_keys(ab.tail, cd.head)
        manager.access_column(ab.tail)
        manager.access_column(cd.head)
        hit, positions = sorted_lookup(right_keys, left_keys)
        left_pos = np.nonzero(hit)[0]
        right_pos = positions[hit]
        manager.access_column(ab.head, left_pos)
        manager.access_column(cd.tail, right_pos)
    return _finish(ab, cd, left_pos, cd.tail.take(right_pos), name)


def _datavectorjoin(ab, cd, name):
    # dispatch guarantees: cd's datavector holds its tails in extent
    # order and its head is a key, so extent position = inner BUN
    manager = get_manager()
    accel = cd.accel["datavector"]
    with manager.operator("join.datavector"):
        manager.access_column(ab.tail)
        hit, positions = accel.registry.probe(ab.tail.keys())
        if hit is None:
            left_pos = np.arange(len(positions))
        else:
            left_pos = np.nonzero(hit)[0]
            positions = positions[hit]
        manager.access_column(ab.head, left_pos)
        tail = accel.fetch(positions)
    return _finish(ab, cd, left_pos, tail, name)


def _keyjoin(ab, cd, table, name):
    # dispatch guarantees: integer keys, cd head a key, ``table`` its
    # direct-address slots — at most one match per outer BUN, so the
    # result is hashjoin's, left-major
    manager = get_manager()
    with manager.operator("join.keyjoin"):
        manager.access_column(ab.tail)
        manager.access_column(cd.head)
        left_pos, right_pos = key_lookup(table, ab.tail.keys())
        manager.access_column(ab.head, left_pos)
        manager.access_column(cd.tail, right_pos)
    return _finish(ab, cd, left_pos, cd.tail.take(right_pos), name)


def _hashjoin(ab, cd, name):
    manager = get_manager()
    with manager.operator("join.hashjoin"):
        manager.access_column(ab.tail)
        manager.access_column(cd.head)
        left_pos, right_pos = join_positions(ab, cd)
        manager.access_column(ab.head, left_pos)
        manager.access_column(cd.tail, right_pos)
    return _finish(ab, cd, left_pos, cd.tail.take(right_pos), name)
