"""Shared helpers for the BAT-algebra operator implementations."""

from ...errors import OperatorError
from ..bat import BAT
from ..vectorized import MultiMap
from ..vectorized import factorize as _factorize


def subsequence_props(ab):
    """Props of a result whose BUNs are a subsequence of ``ab``'s.

    Selections and order-preserving semijoins keep relative BUN order,
    so ordered/key flags survive (dropping BUNs cannot introduce
    duplicates or disorder).
    """
    return ab.props.copy()


def take_subsequence(ab, positions, name=None):
    """Result BAT = ``ab`` restricted to ``positions`` (monotonic).

    Inherits properties; when *all* BUNs survive the result is the
    operand's own columns (shared, so a grouping cached on the head
    column stays hot) under the operand's alignment token.
    """
    if len(positions) == len(ab):
        return result_bat(ab.head, ab.tail, name=name,
                          props=subsequence_props(ab),
                          alignment=ab.alignment)
    out = ab.take(positions, name=name)
    out.props = subsequence_props(ab)
    return out


def factorize(keys):
    """(codes, n_distinct): dense int codes per distinct key, sorted order."""
    return _factorize(keys)


def build_multimap(keys):
    """Positions-by-key :class:`~repro.monet.vectorized.MultiMap`.

    Array-backed (argsort + searchsorted) for fixed-width keys, dict
    backed for object keys; shared by join and pairjoin so the per-BUN
    dict build exists in exactly one place.
    """
    return MultiMap(keys)


def require_nonempty_signature(ab, cd, op):
    if ab.tail.atom.varsized != cd.head.atom.varsized:
        raise OperatorError(
            "%s: join columns have incompatible atoms %s vs %s"
            % (op, ab.tail.atom.name, cd.head.atom.name))


def result_bat(head, tail, name=None, props=None, alignment=None):
    out = BAT(head, tail, name=name, alignment=alignment)
    if props is not None:
        out.props = props
    return out
