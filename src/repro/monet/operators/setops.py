"""Set operations on BATs: unique and union.

Figure 4 defines ``AB.unique = { ab | ab in AB }`` (duplicate BUNs
removed); union is "omitted for brevity" in the paper but part of MIL.
Both work on whole BUNs (head *and* tail).  MOA's difference and
intersection compare elements by id, so the rewriter compiles them to
the head-wise ``antijoin`` and ``semijoin``, followed by ``unique``.

First-occurrence order is preserved, so ordered/key properties of the
operand survive.

BUNs are compared through dense int64 *BUN codes*: the head keys'
codes refined by the tail keys (:func:`~repro.monet.vectorized.refine_codes`,
the one coding of composite keys), so the dedup scan runs over
contiguous arrays — the first occurrences are the first positions of
the codes' grouping, from a direct-address table — instead of per-BUN
Python set probes.

NaN tails follow IEEE semantics, exactly like the join/semijoin
kernels and the tuple-and-set reference: a NaN equals nothing, itself
included, so a BUN with a NaN tail is never a duplicate and survives
``unique`` untouched (:func:`factorize` assigns every NaN key its own
code).
"""

import numpy as np

from ..buffer import get_manager
from ..optimizer import get_optimizer
from ..vectorized import factorize, grouping, refine_codes
from .common import take_subsequence
from ..bat import concat_bats


def unique(ab, name=None):
    """Remove duplicate BUNs, keeping first occurrences."""
    optimizer = get_optimizer()
    manager = get_manager()
    if optimizer.dynamic and (ab.props.hkey or ab.props.tkey):
        # a key column means no BUN can repeat: result = copy
        optimizer.record("unique", "noop")
        out = ab.take(np.arange(len(ab), dtype=np.int64), name=name,
                      alignment=ab.alignment)
        out.props = ab.props.copy()
        return out
    optimizer.record("unique", "hash")
    with manager.operator("unique"):
        manager.access_bat(ab)
        codes, _n = refine_codes(factorize(ab.head.keys())[0],
                                 ab.tail.keys())
        positions = np.sort(grouping(codes)[1])
    return take_subsequence(ab, positions, name=name)


def union(ab, cd, name=None):
    """BUN-set union, left BUNs first, duplicates removed."""
    manager = get_manager()
    with manager.operator("union"):
        manager.access_bat(ab)
        manager.access_bat(cd)
        combined = concat_bats([ab, cd], name=name)
    return unique(combined, name=name)
