"""Equi-join: ``AB.join(CD) = { ad | ab in AB, cd in CD, b = c }``.

The join columns are projected out to keep the operation closed in the
binary model (section 4.2).  Implementations, chosen at run time:

* ``syncjoin`` — the outer tail is *synced* with the inner head (the
  token of ``AB``'s mirror equals ``CD``'s token, equal lengths) and
  the inner head is a key: ``b_i = c_i`` position by position, so
  ``AB.join(CD) = BAT(A, D)`` with no matching and no gather — the
  positional re-alignment the rewriter emits after every
  ``semijoin(values, mirror(index))``.
* ``fetchjoin`` — the inner head is a void (virtual dense) column, so
  matching is pure positional arithmetic; used against datavector-style
  dense tables.
* ``mergejoin`` — the inner head is ordered; binary-search (vectorised
  ``searchsorted``) matching with sequential access patterns, "tend to
  work best ... because they have sequential access patterns"
  (section 5.2).
* ``hashjoin`` — the generic fallback; builds (or reuses) a hash table
  accelerator on the inner head.

The result is produced in outer (left) BUN order.  When every outer
BUN finds exactly one match the result head *is* the outer head column
(shared, not copied), so the result is *synced* with the outer
operand — the property that makes the Q13 multiplex chain positional —
and a later ``{aggr}`` over it reuses the head's cached grouping.
"""

import numpy as np

from ...errors import OperatorError
from ..accelerators.hashidx import hash_of
from ..buffer import get_manager
from ..column import column_from_values, equality_keys
from ..optimizer import get_optimizer
from ..properties import Props, mirror_alignment
from ..vectorized import combine_codes_pair, joint_codes
from .common import build_multimap, require_nonempty_signature, result_bat


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
    optimizer.record("join", "hashjoin")
    return _hashjoin(ab, cd, name)


def _probe_map(ab, cd, index=None):
    """(probe keys, MultiMap) for matching ``ab.tail`` against
    ``cd.head`` — the one place the key extraction and
    accelerator-vs-fresh-multimap choice lives, shared by
    :func:`join_positions` and the hashjoin operator."""
    left_keys, right_keys = equality_keys(ab.tail, cd.head)
    if index is not None:
        return left_keys, index.map
    return left_keys, build_multimap(right_keys)


def join_positions(ab, cd, index=None):
    """(left_positions, right_positions) of every matching BUN pair.

    Left-major order; shared by :func:`join` and by the MOA rewriter's
    pair construction for explicit joins.  When a prebuilt hash
    accelerator on ``cd``'s head is passed as ``index`` its sort
    permutation is reused instead of building a fresh multimap.
    """
    left_keys, multimap = _probe_map(ab, cd, index)
    return multimap.match(left_keys)


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
        left_pos, right_pos = build_multimap(right_codes).match(left_codes)
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
        gathers.append(build_multimap(bat_keys).lookup_first(first_keys))
    return ids, gathers


def _composite_codes(lefts, left_gather, rights, right_gather):
    """Dense int64 composite-key code per element, both sides jointly.

    Key columns are factorised slot by slot through a coding shared by
    the two sides (equal values — across heaps too — get equal codes);
    a missing head gets the per-slot sentinel code, matching the old
    ``None`` tuple component.  Slot codes are combined and re-densified
    pairwise, so the composite stays within int64 regardless of arity.
    """
    manager = get_manager()
    total_left = total_right = None
    for slot, (lbat, rbat) in enumerate(zip(lefts, rights)):
        manager.access_column(lbat.tail)
        manager.access_column(rbat.tail)
        lraw, rraw = equality_keys(lbat.tail, rbat.tail)
        lkeys, lmissing = _gather_keys(lraw, left_gather[slot])
        rkeys, rmissing = _gather_keys(rraw, right_gather[slot])
        lcodes, rcodes, n = joint_codes(lkeys, rkeys)
        lcodes[lmissing] = n
        rcodes[rmissing] = n
        if total_left is None:
            total_left, total_right = lcodes, rcodes
        else:
            # the pair form keeps the two sides jointly coded even when
            # the mixed-radix product would overflow int64 on wide
            # composite keys (it then factorises the pairs jointly)
            total_left, total_right, _domain = combine_codes_pair(
                total_left, lcodes, total_right, rcodes, n + 1)
            total_left, total_right, _n = joint_codes(
                total_left, total_right)
    return total_left, total_right


def _gather_keys(raw, positions):
    """(keys aligned to positions, missing mask) with -1 = missing."""
    missing = positions < 0
    if len(raw) == 0:
        return np.zeros(len(positions), dtype=np.int64), \
            np.ones(len(positions), dtype=bool)
    return raw[np.where(missing, 0, positions)], missing


def _finish(ab, cd, left_pos, right_pos, name):
    tail = cd.tail.take(right_pos)
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
    return _finish(ab, cd, left_pos, right_pos, name)


def _mergejoin(ab, cd, name):
    # dispatch guarantees: fixed-width keys, cd head ordered and unique
    manager = get_manager()
    with manager.operator("join.mergejoin"):
        left_keys, right_keys = equality_keys(ab.tail, cd.head)
        manager.access_column(ab.tail)
        manager.access_column(cd.head)
        positions = np.searchsorted(right_keys, left_keys)
        positions = np.clip(positions, 0, max(0, len(right_keys) - 1))
        if len(right_keys):
            valid = right_keys[positions] == left_keys
        else:
            valid = np.zeros(len(left_keys), dtype=bool)
        left_pos = np.nonzero(valid)[0]
        right_pos = positions[valid]
        manager.access_column(ab.head, left_pos)
        manager.access_column(cd.tail, right_pos)
    return _finish(ab, cd, left_pos, right_pos, name)


def _hashjoin(ab, cd, name):
    manager = get_manager()
    with manager.operator("join.hashjoin"):
        manager.access_column(ab.tail)
        manager.access_column(cd.head)
        index = None
        if cd.head.atom.varsized == ab.tail.atom.varsized \
                and not ab.tail.atom.varsized \
                and "hash" in cd.accel:
            index = hash_of(cd, "head")
            manager.access_heap(index.heap)
        left_keys, multimap = _probe_map(ab, cd, index)
        left_pos, right_pos = multimap.match(left_keys)
        manager.access_column(ab.head, left_pos)
        manager.access_column(cd.tail, right_pos)
    return _finish(ab, cd, left_pos, right_pos, name)
