"""repro — reproduction of "Flattening an Object Algebra to Provide
Performance" (Boncz, Wilschut, Kersten; ICDE 1998).

The package maps the paper's architecture one-to-one:

* :mod:`repro.monet` — the Monet kernel substrate: BATs, the Figure 4
  BAT algebra with run-time dispatched implementations, property
  management, the datavector accelerator, simulated paging, MIL.
* :mod:`repro.moa` — the MOA object data model, its formally
  specified flattening onto BATs, the textual algebra, the MOA->MIL
  term rewriter, and the reference evaluator for the Figure 6
  commuting diagram.
* :mod:`repro.tpcd` — the TPC-D substrate: generator, nested schema,
  Q1-Q15, load pipeline, row-store baseline.
* :mod:`repro.costmodel` — the section 5.2.2 IO cost model.
* :mod:`repro.bench` — shared benchmark harness utilities.

Entry point for most uses::

    from repro.moa import MOADatabase
    from repro.tpcd import generate, load_tpcd, QUERIES
"""

from . import costmodel, faults, moa, monet, tpcd
from .errors import ReproError

__version__ = "0.1.0"

__all__ = ["costmodel", "faults", "moa", "monet", "tpcd",
           "ReproError", "__version__"]
