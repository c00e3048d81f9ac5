"""Pin BLAS to one thread before any test module imports numpy.

At the suite's array sizes one BLAS thread is faster than several, and a
threaded BLAS competing with another busy process can push the timed tests
past their limits. This file sits at the repository root because pytest
collects `perfbench/test_perfbench.py`, which imports numpy, before `tests/`.
A variable already set in the environment is kept.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
