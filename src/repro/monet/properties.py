"""BAT property management (paper section 5.1).

Monet keeps per-column properties on every permanent and intermediate
BAT and uses them for run-time ("dynamic") optimization:

* ``ordered(BAT)`` — the column is stored in ascending order,
* ``key(BAT)`` — the column contains no duplicates,
* ``synced(BAT1, BAT2)`` — the BUNs of the two BATs correspond by
  position (most commonly: identical head columns).

``ordered`` and ``key`` are plain booleans per column, held in
:class:`Props`.  ``synced`` is implemented through *alignment tokens*:
every BAT carries a hashable token describing the identity and order of
its head column; two BATs of equal length whose tokens are equal are
synced.  Operators propagate tokens deliberately — e.g. two semijoins
of different attribute BATs against the *same* right operand produce
results with the same token, which is exactly the situation the paper
exploits in the Q13 trace ("the Monet kernel knows that the BATs
prices and discount are synced").

:func:`verify` recomputes every declared property from the actual data
and raises :class:`~repro.errors.PropertyError` on any mismatch; the
test suite runs it after every operator.
"""

import itertools

import numpy as np

from ..errors import PropertyError

_ALIGN_IDS = itertools.count(1)


def fresh_alignment(tag="anon"):
    """A brand-new alignment token, synced with nothing else."""
    return (tag, next(_ALIGN_IDS))


def mirror_alignment(bat):
    """Alignment of ``bat``'s mirror — a token for its *tail* sequence.

    A token only vouches for head sequences.  The tail of a mirror *is*
    its original's head, so its token is the original's (an
    involution).  Any other BAT's tail is known only to that BAT — two
    BATs may share a head token but not their tails, and operators
    pass a head token on to results with new tails — so its mirror
    token carries the BAT's identity.
    """
    if bat._origin is not None:
        return bat._origin.alignment
    return ("mirror", bat.alignment, bat.identity)


def synced(left, right):
    """True when the two BATs are positionally aligned (section 5.1)."""
    return (left.alignment is not None
            and left.alignment == right.alignment
            and len(left) == len(right))


class Props:
    """``ordered``/``key`` flags for head and tail of one BAT.

    The flags are *conservative*: ``False`` means "not known to hold",
    never "known not to hold".  Operators may only set a flag when the
    property is guaranteed by construction.
    """

    __slots__ = ("hkey", "hordered", "tkey", "tordered")

    def __init__(self, hkey=False, hordered=False, tkey=False, tordered=False):
        self.hkey = hkey
        self.hordered = hordered
        self.tkey = tkey
        self.tordered = tordered

    def swapped(self):
        """Props of the mirrored BAT (head and tail exchanged)."""
        return Props(hkey=self.tkey, hordered=self.tordered,
                     tkey=self.hkey, tordered=self.hordered)

    def copy(self):
        return Props(self.hkey, self.hordered, self.tkey, self.tordered)

    def __repr__(self):
        bits = []
        if self.hkey:
            bits.append("hkey")
        if self.hordered:
            bits.append("hordered")
        if self.tkey:
            bits.append("tkey")
        if self.tordered:
            bits.append("tordered")
        return "Props(%s)" % ", ".join(bits)

    def __eq__(self, other):
        return (isinstance(other, Props)
                and self.hkey == other.hkey
                and self.hordered == other.hordered
                and self.tkey == other.tkey
                and self.tordered == other.tordered)


def _is_ordered(keys):
    if len(keys) <= 1:
        return True
    return bool(np.all(keys[:-1] <= keys[1:]))


def _is_key(keys):
    if len(keys) <= 1:
        return True
    if keys.dtype == object:
        return len(set(keys)) == len(keys)
    return len(np.unique(keys)) == len(keys)


def compute_props(bat):
    """Recompute the full property set of a BAT from its data."""
    head_order = bat.head.order_keys()
    tail_order = bat.tail.order_keys()
    return Props(hkey=_is_key(head_order), hordered=_is_ordered(head_order),
                 tkey=_is_key(tail_order), tordered=_is_ordered(tail_order))


def verify(bat):
    """Check every *declared* property against the data.

    Declared-but-false properties are bugs (they would let the dynamic
    optimizer pick an incorrect implementation); undeclared-but-true
    properties are merely missed opportunities and pass the check.
    """
    actual = compute_props(bat)
    declared = bat.props
    for flag in ("hkey", "hordered", "tkey", "tordered"):
        if getattr(declared, flag) and not getattr(actual, flag):
            raise PropertyError(
                "BAT %r declares %s but the data violates it"
                % (bat.name or "<anonymous>", flag))
    return True
