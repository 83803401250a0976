"""Thin wrapper so the harness runs from the benchmarks directory.

Equivalent to ``PYTHONPATH=src python -m repro.bench.run`` but
bootstraps ``src/`` onto ``sys.path`` itself; see
:mod:`repro.bench.run` for the flags (``--sf``, ``--reps``,
``--quick``, ``--out``, ``--db-dir``, ``--validate``, ``--procs``,
``--serve``)
and the ``BENCH_operators.json`` format.
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.run import main  # noqa: E402  (path bootstrap above)

if __name__ == "__main__":
    sys.exit(main())
