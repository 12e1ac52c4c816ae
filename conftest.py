"""Test-session set-up shared by every test directory.

BLAS and OpenMP are pinned to one thread before numpy is first imported,
as ``bench/run.py`` does: the dense simplex in ``corules.solver`` runs
several times slower with threaded BLAS on a few cores.  A value already
set in the environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
