"""Desk-scale articulated 3D body recovery and motion prediction."""

import os
import sys
import warnings

# One BLAS thread unless the caller chose otherwise. The matrices here are
# small (tens to hundreds of rows), so a second thread costs more in
# hand-offs than it saves, and under CPU contention a two-thread run of the
# default training config takes about twice as long per step. Pinning also
# makes results independent of the host's core count (OpenBLAS splits some
# products differently with more threads). Takes effect only when this
# package is imported before numpy, as the command line entry point is; a
# caller that imported numpy first is warned, since its thread count (and
# so its results) stay the host's.
if "numpy" in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    warnings.warn("meshmotion was imported after numpy without OPENBLAS_NUM_THREADS set, so "
                  "its one-thread BLAS pin cannot take effect and results may depend on the "
                  "host's core count; import meshmotion before numpy or set "
                  "OPENBLAS_NUM_THREADS and OMP_NUM_THREADS", RuntimeWarning, stacklevel=2)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
