"""Static analysis over MIL programs and the project tree.

The compiler (MOA -> MIL rewriter) and the query service both emit or
accept straight-line MIL programs; until this layer existed, the only
check on such a program was executing it.  This package provides:

* :mod:`repro.analysis.signatures` — a declarative operator-signature
  registry for every MIL instruction the evaluator dispatches,
  asserted complete against ``repro.monet.mil._OPS``;
* :mod:`repro.analysis.verify` — the plan verifier: per-statement
  type checking against the registry, def-use/liveness analysis, and
  static cardinality/byte bounds seeded from catalog stats and scored
  with the section 5.2.2 IO cost model;
* :mod:`repro.analysis.selfcheck` — an AST lint over the source tree
  enforcing project invariants (fault-point chaos coverage, error
  retryability classification, no bare ``except``, fsync before
  rename in write-temp paths);
* ``python -m repro.analysis`` — the command-line front end linting a
  MOA query file or the whole TPC-D suite, plus ``--selfcheck``.
"""

from .signatures import SIGNATURES, signature_for
from .verify import (Finding, PlanBudget, VerifiedPlan, check_program,
                     catalog_stats_from_kernel, live_statements,
                     verify_program)

__all__ = [
    "Finding", "PlanBudget", "SIGNATURES", "VerifiedPlan",
    "catalog_stats_from_kernel", "check_program", "live_statements",
    "signature_for", "verify_program",
]
