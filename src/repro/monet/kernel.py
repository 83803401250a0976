"""The Monet kernel facade: BAT catalog, bulk load, accelerator builds.

Reproduces the load pipeline of section 6:

1. :meth:`MonetKernel.bulk_load` — registers a BAT and "correctly sets
   the properties key, ordered, and synced";
2. :meth:`MonetKernel.create_extent` — "an extent[oid,void] was created
   by taking one attribute-BAT, and projecting out the tail column";
3. :meth:`MonetKernel.create_datavectors` — value vectors per attribute
   ("initially, all tables were sorted on oid, so it was cheap to
   create datavectors: just a projection on tail column");
4. :meth:`MonetKernel.reorder_on_tail` — "we then reordered all tables
   on tail values" so selections can binary-search.

Every catalog column is built by :func:`catalog_column`, which stores
an integer column in the narrowest of int16/int32/int64 that holds its
values (:func:`narrowest`); the extents, datavectors and reordered
BATs derived from the loaded BATs keep those widths.
"""

import numpy as np

from ..errors import CatalogError
from . import atoms as _atoms
from .accelerators.datavector import DataVectorRegistry, build_datavector
from .bat import BAT, bat_dense_head
from .buffer import BufferManager, get_manager
from .column import INT_WIDTHS, FixedColumn, VoidColumn, column_from_values
from .operators.sort import sort_tail
from .properties import compute_props, fresh_alignment


def narrowest(column):
    """``column`` stored in the narrowest of :data:`INT_WIDTHS` that
    covers its min and max when it is an integer column; any other
    column (bool, float, var, void, empty) as it is.

    Never narrower than int16, the kernels' narrowest key, and never
    unsigned, so a narrowed column still compares, sorts and probes
    like the wide one; multiplex arithmetic widens its operands back
    to the atom's width.
    """
    if not isinstance(column, FixedColumn) or column.data.dtype.kind != "i" \
            or not len(column):
        return column
    lo, hi = int(column.data.min()), int(column.data.max())
    for dtype in INT_WIDTHS:
        bounds = np.iinfo(dtype)
        if bounds.min <= lo and hi <= bounds.max:
            break
    if dtype.itemsize >= column.data.itemsize:
        return column
    return FixedColumn(column.atom, column.data.astype(dtype),
                       label=column.heaps[0].label)


def catalog_column(atom, values, label=""):
    """A catalog column: :func:`column_from_values`, then
    :func:`narrowest` — the one rule every loaded BAT's columns take."""
    return narrowest(column_from_values(atom, values, label=label))


def mark_persistent(bat):
    """Flag a BAT's heaps as disk-backed (cold touches fault)."""
    for column in (bat.head, bat.tail):
        for heap in column.heaps:
            heap.persistent = True
    return bat


class MonetKernel:
    """A catalog of named BATs plus the load/accelerator machinery."""

    def __init__(self, buffer_manager=None):
        self._catalog = {}
        self.buffer = buffer_manager if buffer_manager is not None \
            else BufferManager(enabled=False)
        #: class name -> DataVectorRegistry (shared extent + lookups)
        self.registries = {}
        #: alignment tokens per load group, so BATs loaded for one
        #: class come out mutually synced
        self._group_alignment = {}
        #: shared-catalog provenance, set by :meth:`open`: the catalog
        #: generation this kernel serves and the backend it came from
        #: (``None`` for kernels that were never opened from storage)
        self.generation = None
        self.origin = None

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def register(self, name, bat):
        if name in self._catalog:
            raise CatalogError("BAT %r already in catalog" % name)
        bat.name = name
        self._catalog[name] = bat
        return bat

    def replace(self, name, bat):
        if name not in self._catalog:
            raise CatalogError("BAT %r not in catalog" % name)
        bat.name = name
        self._catalog[name] = bat
        return bat

    def get(self, name):
        try:
            return self._catalog[name]
        except KeyError:
            raise CatalogError("no BAT named %r" % name) from None

    def __contains__(self, name):
        return name in self._catalog

    def names(self):
        return sorted(self._catalog)

    def drop(self, name):
        if name not in self._catalog:
            raise CatalogError("no BAT named %r" % name)
        del self._catalog[name]

    def total_bytes(self):
        """Byte footprint of the whole catalog (for the 1.6 GB row)."""
        seen = set()
        total = 0
        for bat in self._catalog.values():
            for col in (bat.head, bat.tail):
                for heap in col.heaps:
                    if heap.heap_id not in seen:
                        seen.add(heap.heap_id)
                        total += heap.nbytes
        return total

    # ------------------------------------------------------------------
    # persistence (see repro.monet.storage)
    # ------------------------------------------------------------------
    def save(self, target, meta=None, lock_timeout=None):
        """Persist the whole catalog to a directory (or backend).

        Streams every heap into one raw little-endian file (each heap
        at a page-aligned offset, one fsync) plus a JSON catalog
        manifest; accelerator heaps (datavector vectors and extents)
        are included.  The save holds the directory's exclusive catalog
        lock and bumps the manifest generation counter (see
        :mod:`repro.monet.storage`).  Returns the manifest dict.
        """
        from .storage import save_kernel
        return save_kernel(self, target, meta=meta,
                           lock_timeout=lock_timeout)

    @classmethod
    def open(cls, target, buffer_manager=None, expected_generation=None,
             lock_timeout=None):
        """Reopen a saved catalog with zero-copy ``np.memmap`` columns.

        The heap file is mapped once and every column is a view of it.
        Properties, alignment groups and accelerators are restored from
        the manifest; no heap data is read eagerly.
        ``expected_generation`` pins the open to one catalog
        generation (raising ``StaleCatalogError`` /
        ``CatalogChangedError`` on mismatch) — the multi-process
        dispatcher uses it so every worker serves the same snapshot.
        """
        from .storage import open_kernel
        return open_kernel(target, buffer_manager=buffer_manager,
                           kernel=cls(buffer_manager),
                           expected_generation=expected_generation,
                           lock_timeout=lock_timeout)

    def is_stale(self):
        """True when the origin catalog moved past this kernel's
        generation (a writer saved since we opened) — or can no longer
        be read at all (directory gone, manifest corrupt): either way,
        this kernel's snapshot no longer reflects its origin.  Kernels
        that were never opened from storage are never stale.  Use
        :meth:`assert_current` for the typed-error form.
        """
        if self.origin is None or self.generation is None:
            return False
        from ..errors import CatalogError
        from .storage import catalog_generation
        try:
            return catalog_generation(self.origin) != self.generation
        except CatalogError:
            return True

    def assert_current(self):
        """Raise unless the origin catalog still serves our generation.

        ``CatalogChangedError`` when a newer generation was saved
        (reopen to proceed), ``StaleCatalogError`` when the on-disk
        manifest is *older* than what we opened (a rolled-back or
        damaged directory).  No-op for kernels without an origin.
        """
        if self.origin is None or self.generation is None:
            return
        from ..errors import CatalogChangedError, StaleCatalogError
        from .storage import catalog_generation
        on_disk = catalog_generation(self.origin)
        if on_disk > self.generation:
            raise CatalogChangedError(
                "catalog was rewritten: generation %d on disk, this "
                "kernel serves %d — reopen to pick it up"
                % (on_disk, self.generation))
        if on_disk < self.generation:
            raise StaleCatalogError(
                "stale manifest: generation %d on disk, this kernel "
                "was opened at %d" % (on_disk, self.generation))

    # ------------------------------------------------------------------
    # load pipeline
    # ------------------------------------------------------------------
    def group_alignment(self, group):
        """Shared alignment token for one load group (class)."""
        token = self._group_alignment.get(group)
        if token is None:
            token = fresh_alignment("load:%s" % group)
            self._group_alignment[group] = token
        return token

    def bulk_load(self, name, head_atom, heads, tail_atom, tails,
                  group=None):
        """Load one BAT; properties are computed and set (section 6)."""
        head = catalog_column(head_atom, heads, label=name + ".head")
        tail = catalog_column(tail_atom, tails, label=name + ".tail")
        alignment = self.group_alignment(group) if group else None
        bat = BAT(head, tail, alignment=alignment)
        bat.props = compute_props(bat)
        mark_persistent(bat)
        return self.register(name, bat)

    def create_extent(self, class_name, from_bat_name, extent_name=None):
        """``extent[oid, void]`` from an attribute BAT's head column."""
        extent_name = extent_name or class_name
        source = self.get(from_bat_name)
        head = source.head.take(np.arange(len(source), dtype=np.int64))
        extent = BAT(head, VoidColumn(0, len(source)),
                     alignment=source.alignment)
        extent.props = compute_props(extent)
        mark_persistent(extent)
        return self.register(extent_name, extent)

    def create_datavectors(self, class_name, attr_names, extent_name=None):
        """Build the per-class datavector registry + value vectors."""
        extent = self.get(extent_name or class_name)
        registry = DataVectorRegistry(class_name, extent.head)
        self.registries[class_name] = registry
        for attr_name in attr_names:
            accel = build_datavector(self.get(attr_name), registry)
            for heap in accel.vector.heaps:
                heap.persistent = True
        return registry

    def reorder_on_tail(self, names):
        """Re-sort the named BATs on tail value (accelerators kept)."""
        for name in names:
            bat = self.get(name)
            reordered = sort_tail(bat)
            reordered.accel = bat.accel
            mark_persistent(reordered)
            self.replace(name, reordered)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def dense_bat(self, name, tail_atom, tails, seqbase=0, group=None):
        """Register a BAT with a void head over Python tail values."""
        tail = catalog_column(tail_atom, tails, label=name + ".tail")
        alignment = self.group_alignment(group) if group else None
        bat = bat_dense_head(tail, seqbase=seqbase, alignment=alignment)
        bat.props = compute_props(bat)
        mark_persistent(bat)
        return self.register(name, bat)
