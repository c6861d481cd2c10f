"""Tier-1's thread policy: one BLAS/OpenMP thread, unless the caller set another.

pytest loads this file before any test module imports numpy, so numpy's
thread pools start with these settings.  On two shared vCPUs busy-waiting
helper threads slow the dense Fock oracle; ``perfbench/run.py`` sets the same
for its children.  The warning policy is ``filterwarnings`` in
``pyproject.toml``; ``tests/test_policy.py`` checks both.
"""

import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# read by tests/test_policy.py: a numpy imported earlier kept its own thread count
NUMPY_IMPORTED_FIRST = "numpy" in sys.modules
