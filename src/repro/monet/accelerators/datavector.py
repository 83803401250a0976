"""The datavector accelerator, paper section 5.2.

Monet resolves the conflicting clustering requirements of OLAP queries
(selection attributes want tail-sorted BATs; value attributes want
oid-sorted access) by storing every attribute BAT sorted on *tail* and
attaching a **datavector**: the attribute's values in extent (oid)
order, positionally synced with the class extent.

The structure is per class:

* one sorted vector of oids — the extent (``EXTENT`` in the paper's
  pseudo code);
* one value vector per attribute (``VECTOR``), synced by position;
* per right-operand ``LOOKUP`` arrays cached after the first
  datavector semijoin — the "blazed trail" that makes the second and
  later semijoins against the same selection almost free (Figure 10,
  lines 10-11).

Because the extent is shared by all attributes of a class, it lives
in a :class:`DataVectorRegistry`; each attribute BAT carries a small
:class:`DataVector` handle (``bat.accel`` slot ``"datavector"``)
pointing at the registry plus its own value vector.  A cached LOOKUP
hangs off the *right operand* it was computed for (``bat.accel`` slot
``"lookup:<class>"``), so it dies with that — usually intermediate —
BAT instead of accumulating in a long-lived kernel.
"""

import numpy as np

from ...errors import OperatorError
from ..buffer import get_manager
from ..column import equality_keys


class DataVectorRegistry:
    """Shared per-class side of the datavector accelerator."""

    def __init__(self, class_name, extent_column, check=True):
        # asanyarray keeps a reopened extent as its zero-copy memmap
        # view; ``check=False`` (storage reopen path) skips the eager
        # ascending scan, which would otherwise fault in every page
        extent = np.asanyarray(extent_column.logical(), dtype=np.int64)
        if check and len(extent) > 1 and not np.all(extent[:-1] < extent[1:]):
            raise OperatorError(
                "datavector extent for %s must be strictly ascending"
                % class_name)
        self.class_name = class_name
        self.extent = extent
        self.extent_column = extent_column
        self._lookup_slot = "lookup:%s" % class_name
        #: a LOOKUP cached on a right operand is valid only while it
        #: carries this token (see :meth:`invalidate`)
        self._token = object()
        self.lookups_computed = 0
        self.lookups_reused = 0

    def lookup(self, right_bat, charge_probes=True):
        """LOOKUP array for ``right_bat`` (paper pseudo code lines 5-15).

        Returns ``(extent_positions, right_positions)``: for every BUN
        of ``right_bat`` whose head oid exists in the extent, the
        position of that oid in the extent and the BUN's own position.
        Cached per right operand, so "subsequent semijoins with B do
        not re-do the lookup effort".
        """
        cached = right_bat.accel.get(self._lookup_slot)
        if cached is not None and cached[0] is self._token:
            self.lookups_reused += 1
            return cached[1]
        heads = np.asarray(right_bat.head.logical(), dtype=np.int64)
        if charge_probes:
            manager = get_manager()
            manager.access_column(right_bat.head)
            for heap in self.extent_column.heaps:
                manager.access_probes(heap, len(heads), len(self.extent),
                                      heap.width)
        positions = np.searchsorted(self.extent, heads)
        positions = np.clip(positions, 0, max(0, len(self.extent) - 1))
        if len(self.extent):
            valid = self.extent[positions] == heads
        else:
            valid = np.zeros(len(heads), dtype=bool)
        result = (positions[valid], np.nonzero(valid)[0])
        right_bat.accel[self._lookup_slot] = (self._token, result)
        self.lookups_computed += 1
        return result

    def invalidate(self):
        """Drop cached lookups (after updates to the extent)."""
        self._token = object()


class DataVector:
    """Per-attribute handle: registry + value vector in extent order."""

    __slots__ = ("registry", "vector")

    def __init__(self, registry, vector):
        if len(vector) != len(registry.extent):
            raise OperatorError(
                "datavector for class %s: vector length %d != extent %d"
                % (registry.class_name, len(vector), len(registry.extent)))
        self.registry = registry
        self.vector = vector


def build_datavector(attr_bat, registry):
    """Create and attach a :class:`DataVector` to ``attr_bat``.

    ``attr_bat`` must hold the attribute as ``[oid, value]`` BUNs (in
    any order); the value vector is produced by permuting the tails
    into extent (oid) order — the "projection on tail column" of
    section 6 when the BAT is already oid-ordered.
    """
    heads = np.asarray(attr_bat.head.logical(), dtype=np.int64)
    positions = np.searchsorted(registry.extent, heads)
    if len(registry.extent) == 0 or not np.array_equal(
            registry.extent[np.clip(positions, 0,
                                    max(0, len(registry.extent) - 1))],
            heads):
        raise OperatorError("attribute BAT %r has oids outside the extent"
                            % (attr_bat.name,))
    order = np.argsort(positions, kind="stable")
    vector = attr_bat.tail.take(order)
    accel = DataVector(registry, vector)
    attr_bat.accel["datavector"] = accel
    return accel


def has_datavector(bat):
    return "datavector" in bat.accel
