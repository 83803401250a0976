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

The accelerator serves two operators: the datavector *semijoin*
(``semijoin(attr, selection)``, the paper's use) and the datavector
*join* (``join(nav, attr)``: oids in an outer tail probed into the
extent, values fetched from the vector — a path-navigation step that
would otherwise sort the attribute's head for a hash join).  Both
probe the extent through :meth:`DataVectorRegistry.probe`: a binary
search (:func:`~repro.monet.vectorized.sorted_lookup`), or a
subtraction when the extent is one dense oid range.
"""

import numpy as np

from ...errors import OperatorError
from ..buffer import get_manager
from ..vectorized import sorted_lookup


class DataVectorRegistry:
    """Shared per-class side of the datavector accelerator."""

    def __init__(self, class_name, extent_column, check=True):
        # asanyarray keeps a reopened extent as its zero-copy memmap
        # view, at the width it is stored in; ``check=False`` (storage
        # reopen path) skips the eager ascending scan, which would
        # otherwise fault in every page
        extent = np.asanyarray(extent_column.logical())
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
        #: ``extent[0]`` when the extent is one dense oid range
        #: (``extent[i] == extent[0] + i``), else ``None``; worked out on
        #: the first probe, so opening a saved extent never reads it
        self._dense_base = _UNKNOWN

    def lookup(self, right_bat):
        """LOOKUP array for ``right_bat`` (paper pseudo code lines 5-15).

        The extent position of every BUN of ``right_bat`` whose head
        oid exists in the extent, in BUN order.  Cached per right
        operand, so "subsequent semijoins with B do not re-do the
        lookup effort".
        """
        cached = right_bat.accel.get(self._lookup_slot)
        if cached is not None and cached[0] is self._token:
            self.lookups_reused += 1
            return cached[1]
        # the heads as they are: a float head probes by exact equality
        heads = np.asarray(right_bat.head.logical())
        get_manager().access_column(right_bat.head)
        hit, positions = self.probe(heads)
        if hit is not None:
            positions = positions[hit]
        right_bat.accel[self._lookup_slot] = (self._token, positions)
        self.lookups_computed += 1
        return positions

    def probe(self, oids):
        """``(hit_mask, positions)`` of ``oids`` in the extent, as
        :func:`~repro.monet.vectorized.sorted_lookup` returns them,
        except that ``hit_mask`` is ``None`` when every oid hits.

        A binary search per oid — or, when the extent is one dense oid
        range (every class a bulk load numbers), plain subtraction.
        Either way the buffer manager is charged the binary-search
        probes of the paper's pseudo code.
        """
        oids = np.asarray(oids)
        manager = get_manager()
        for heap in self.extent_column.heaps:
            manager.access_probes(heap, len(oids), len(self.extent),
                                  heap.width)
        if self._dense_base is _UNKNOWN:
            self._dense_base = _dense_start(self.extent)
        if self._dense_base is None or oids.dtype.kind not in "iu":
            return sorted_lookup(self.extent, oids)
        positions = oids.astype(np.int64) - self._dense_base
        if not len(positions) or (positions.min() >= 0
                                  and positions.max() < len(self.extent)):
            return None, positions
        hit = (positions >= 0) & (positions < len(self.extent))
        return hit, np.where(hit, positions, 0)

    def invalidate(self):
        """Drop cached lookups (after updates to the extent)."""
        self._token = object()
        self._dense_base = _UNKNOWN


_UNKNOWN = object()


def _dense_start(extent):
    """``extent[0]`` when the strictly ascending extent has no gaps."""
    if len(extent) and int(extent[-1]) - int(extent[0]) == len(extent) - 1:
        return int(extent[0])
    return None


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

    def fetch(self, extent_positions):
        """The values at ``extent_positions``, charged as a positional
        gather from the vector's heaps."""
        manager = get_manager()
        for heap in self.vector.heaps:
            width = getattr(heap, "width", None) or 4
            manager.access_positions(heap, extent_positions, width)
        return self.vector.take(extent_positions)


def build_datavector(attr_bat, registry):
    """Create and attach a :class:`DataVector` to ``attr_bat``.

    ``attr_bat`` must hold the attribute as ``[oid, value]`` BUNs (in
    any order); the value vector is produced by permuting the tails
    into extent (oid) order — the "projection on tail column" of
    section 6 when the BAT is already oid-ordered.
    """
    heads = np.asarray(attr_bat.head.logical())
    if len(registry.extent) and np.array_equal(heads, registry.extent):
        # heads already in extent order (every attribute at load time,
        # before the reorder): the tail in BUN order, still a copy so
        # the vector keeps a heap of its own
        order = np.arange(len(heads), dtype=np.int64)
    else:
        hit, positions = sorted_lookup(registry.extent,
                                       heads.astype(np.int64, copy=False))
        if len(registry.extent) == 0 or not hit.all():
            raise OperatorError("attribute BAT %r has oids outside the "
                                "extent" % (attr_bat.name,))
        order = np.argsort(positions, kind="stable")
    vector = attr_bat.tail.take(order)
    accel = DataVector(registry, vector)
    attr_bat.accel["datavector"] = accel
    return accel


def has_datavector(bat):
    return "datavector" in bat.accel
