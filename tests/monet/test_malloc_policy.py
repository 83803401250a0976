"""The allocator policy :mod:`repro.monet` applies at import.

Each test runs a fresh interpreter that imports the package, then
allocates 24 arrays of 1 MiB and frees them all, round after round,
counting the minor page faults of each round.  With glibc's thresholds
pinned the freed pages stay mapped and later rounds reuse them; with
glibc's dynamic thresholds every round faults its ~6,000 pages again.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.monet import vectorized

pytestmark = pytest.mark.skipif(
    not (getattr(os, "confstr", None)
         and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")),
    reason="the policy only applies to glibc's malloc")

ROUNDS = """
import json, resource
import numpy as np
import repro.monet
faults = []
for _round in range(8):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(24)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - before)
print(json.dumps(faults))
"""

#: the rounds after these are the ones measured
WARMUP = 2


def _round_faults(**env):
    clean = {name: value for name, value in os.environ.items()
             if name not in vectorized._MALLOC_ENV
             and name != "GLIBC_TUNABLES"}
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    clean["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, clean.get("PYTHONPATH")]))
    clean.update(env)
    done = subprocess.run([sys.executable, "-c", ROUNDS], env=clean,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])[WARMUP:]


def test_pinned_thresholds_keep_freed_temporaries_mapped():
    faults = _round_faults()
    assert max(faults) <= 64, faults


@pytest.mark.parametrize("name,value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
], ids=["env", "tunables"])
def test_users_glibc_setting_wins(name, value):
    faults = _round_faults(**{name: value})
    # 24 MiB are 6,144 pages; every round maps them afresh
    assert min(faults) >= 3000, faults
