"""Search accelerators attachable to BATs (paper sections 3.2, 5.2).

Monet stores accelerators in extra heaps next to the BUN heap; here
they are objects hung off ``BAT.accel``.  The one persistent kind is
``"datavector"`` —
:class:`~repro.monet.accelerators.datavector.DataVector`, the
accelerator of section 5.2 that links a tail-sorted attribute BAT to
its class extent and a positionally synced value vector.  The LOOKUP
arrays of its semijoin hang off the probing selection, under
``"lookup:<class>"``.

There is no hash accelerator: joins whose inner head is a compact
integer key address it directly (``keyjoin``), and the remaining
fallback sorts its inner per call (``hashjoin``) — see
:mod:`repro.monet.operators.join`.
"""

from .datavector import DataVector, DataVectorRegistry, build_datavector

__all__ = [
    "DataVector", "DataVectorRegistry", "build_datavector",
]
