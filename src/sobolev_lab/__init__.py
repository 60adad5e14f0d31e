"""Numerical laboratory for sharp Sobolev inequalities on model manifolds."""

import os

# Honor the thread cap before a submodule's numpy import initializes BLAS.
_threads = os.environ.get("SOBOLEV_LAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
