"""Synced joins, shared head columns and one grouping per head column.

The kernel half of the optimizer work:

* ``syncjoin`` — ``join(AB, CD)`` where ``AB``'s tail is synced with
  ``CD``'s head is ``BAT(A, D)``: equal to what merge/hash join
  compute, and chosen only under its side conditions (head-key inner,
  equal lengths, matching tokens, dispatch on);
* mirror tokens are sound: two BATs sharing a head token but not their
  tails never get synced mirrors;
* results where every BUN survives keep the operand's head column
  object, and ``{aggr}`` factorizes one head column once;
* a BAT and its mirror form no reference cycle, so shared columns die
  with their last reference.
"""

import gc
import weakref

import numpy as np

from plan_oracle import CountingNumpy
from repro.monet import (MonetKernel, bat_from_pairs, compute_props,
                         dispatch_disabled, get_optimizer, verify)
from repro.monet import operators as ops
from repro.monet.operators import aggregate
from repro.monet.properties import mirror_alignment, synced


def _bat(pairs, head="oid", tail="int"):
    bat = bat_from_pairs(head, tail, pairs)
    bat.props = compute_props(bat)
    return bat


def _index_and_values():
    """``index[group, elem]`` and ``values[elem, v]`` with ``values``
    synced to ``mirror(index)`` — the shape the rewriter produces for
    ``join(sidx, semijoin(attr, mirror(sidx)))``."""
    index = _bat([(0, 12), (1, 10), (0, 11), (2, 13)])
    values = _bat([(12, 7), (10, 5), (11, 9), (13, 1)])
    values.alignment = index.mirror().alignment
    return index, values


def test_syncjoin_equals_hashjoin_on_synced_operands():
    index, values = _index_and_values()
    out = ops.join(index, values)
    assert get_optimizer().last["join"] == "syncjoin"
    with dispatch_disabled():
        reference = ops.join(index, values)
        assert get_optimizer().last["join"] == "hashjoin"
    assert out.to_pairs() == reference.to_pairs() \
        == [(0, 7), (1, 5), (0, 9), (2, 1)]
    verify(out)
    assert out.head is index.head and out.tail is values.tail
    assert synced(out, index)


def test_syncjoin_equals_mergejoin_on_synced_operands():
    index = _bat([(0, 10), (1, 11), (2, 12)])
    values = _bat([(10, 4), (11, 5), (12, 6)])       # ordered key head
    unsynced = ops.join(index, values)
    assert get_optimizer().last["join"] == "mergejoin"
    values.alignment = mirror_alignment(index)
    out = ops.join(index, values)
    assert get_optimizer().last["join"] == "syncjoin"
    assert out.to_pairs() == unsynced.to_pairs()
    assert out.props.hkey and out.props.hordered
    verify(out)


def test_syncjoin_needs_a_head_key_inner_operand():
    index = _bat([(0, 10), (1, 10)])
    values = _bat([(10, 3), (10, 4)])
    values.alignment = index.mirror().alignment      # tails == heads
    assert not values.props.hkey
    out = ops.join(index, values)
    assert get_optimizer().last["join"] != "syncjoin"
    assert sorted(out.to_pairs()) == [(0, 3), (0, 4), (1, 3), (1, 4)]


def test_syncjoin_needs_equal_lengths():
    index, values = _index_and_values()
    longer = _bat([(12, 7), (10, 5), (11, 9), (13, 1), (14, 0)])
    longer.alignment = values.alignment
    out = ops.join(index, longer)
    assert get_optimizer().last["join"] != "syncjoin"
    assert out.to_pairs() == [(0, 7), (1, 5), (0, 9), (2, 1)]


def test_syncjoin_is_off_when_dispatch_is_disabled():
    index, values = _index_and_values()
    with dispatch_disabled() as optimizer:
        ops.join(index, values)
        assert optimizer.last["join"] == "hashjoin"
        assert "join:syncjoin" not in optimizer.stats


def test_mirrors_of_differently_tailed_bats_are_not_synced():
    # one load group: same head sequence, different tails
    price = _bat([(1, 30), (2, 10), (3, 20)])
    qty = _bat([(1, 10), (2, 20), (3, 30)])
    qty.alignment = price.alignment
    assert synced(price, qty)
    assert not synced(price.mirror(), qty.mirror())
    assert mirror_alignment(price) != mirror_alignment(qty)
    # join(price, mirror(qty)): price's tails are not qty's tails
    out = ops.join(price, qty.mirror())
    assert get_optimizer().last["join"] != "syncjoin"
    assert out.to_pairs() == [(1, 3), (2, 1), (3, 2)]
    # and the token of a mirror's mirror is the original's again
    assert mirror_alignment(price.mirror()) == price.alignment


def test_a_head_token_passed_on_says_nothing_about_the_new_tail():
    # a total join keeps the outer's head token but brings a new tail:
    # that tail is not the head its mirror-token was minted from
    base = _bat([(1, 10), (2, 20), (3, 30)])
    flipped = base.mirror()                            # tails 1, 2, 3
    relabelled = ops.join(flipped, _bat([(1, 7), (2, 8), (3, 9)]))
    assert relabelled.alignment == flipped.alignment   # tails 7, 8, 9
    probe = _bat([(1, 0), (2, 0), (3, 0)])
    probe.alignment = base.alignment                   # heads 1, 2, 3
    joined = ops.join(relabelled, probe)
    assert get_optimizer().last["join"] != "syncjoin"
    assert joined.to_pairs() == []


def test_a_mirrored_bat_dies_with_its_last_reference():
    # shared columns may be a reopened catalog's memory maps: a mirror
    # cycle would pin them until the garbage collector happens to run
    bat = _bat([(1, 10), (2, 20)])
    mirrored = bat.mirror()
    assert mirrored.mirror() is bat and bat.mirror() is mirrored
    alive = weakref.ref(bat)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del bat, mirrored
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_total_results_share_the_operand_columns():
    ab = _bat([(1, 10), (2, 20), (3, 30)])
    everything = _bat([(1, 0), (2, 0), (3, 0)])
    kept = ops.semijoin(ab, everything)
    assert get_optimizer().last["semijoin"] == "mergesemijoin"
    assert kept.head is ab.head and kept.tail is ab.tail
    assert synced(kept, ab)
    assert ops.semijoin(ab, ab).head is ab.head      # syncsemijoin
    unordered = _bat([(1, 30), (2, 10), (3, 20)])
    assert ops.select_range(unordered, 0, 99).head is unordered.head
    assert get_optimizer().last["select"] == "scan"
    part = ops.semijoin(ab, _bat([(2, 0)]))
    assert part.head is not ab.head and not synced(part, ab)
    cd = _bat([(10, 5), (20, 6), (30, 7)])
    joined = ops.join(ab, cd)                          # total 1:1
    assert joined.head is ab.head and synced(joined, ab)
    # as many results as outer BUNs, but not one each: gathered heads
    doubled = ops.join(_bat([(1, 10), (2, 20)]),
                       _bat([(10, 5), (10, 6)]))
    assert doubled.to_pairs() == [(1, 5), (1, 6)]
    for out in (kept, joined, doubled):
        verify(out)


def _datavector_kernel():
    kernel = MonetKernel()
    kernel.bulk_load("C_val", "oid", list(range(6)), "int",
                     [5, 3, 8, 1, 9, 2], group="C")
    kernel.create_extent("C", "C_val")
    kernel.create_datavectors("C", ["C_val"])
    return kernel


def test_datavector_semijoin_takes_the_right_token_when_total():
    values = _datavector_kernel().get("C_val")
    selection = _bat([(4, 0), (1, 0), (3, 0)])
    out = ops.semijoin(values, selection)
    assert get_optimizer().last["semijoin"] == "datavectorsemijoin"
    assert out.to_pairs() == [(4, 9), (1, 3), (3, 1)]
    assert synced(out, selection)
    partial = _bat([(4, 0), (77, 0)])
    missing = ops.semijoin(values, partial)
    assert missing.to_pairs() == [(4, 9)]
    assert missing.alignment != partial.alignment
    # two datavector semijoins against one selection stay synced
    assert synced(ops.semijoin(values, partial), missing)


def test_aggregates_over_one_head_column_factorize_it_once(monkeypatch):
    counting_numpy = CountingNumpy()
    monkeypatch.setattr(aggregate, "np", counting_numpy)
    index, values = _index_and_values()
    joined = ops.join(index, values)                 # head is index.head
    sums = ops.set_aggregate("sum", joined)
    avgs = ops.set_aggregate("avg", joined)
    counts = ops.set_aggregate("count", index)
    assert counting_numpy.unique_calls == 1
    assert sums.to_pairs() == [(0, 16), (1, 5), (2, 1)]
    assert avgs.to_pairs() == [(0, 8.0), (1, 5.0), (2, 1.0)]
    assert counts.to_pairs() == [(0, 2), (1, 1), (2, 1)]
    # a copy of the same values is a different column: factorized anew
    ops.set_aggregate("sum", index.take(np.arange(len(index))))
    assert counting_numpy.unique_calls == 2
