"""Desk-scale articulated 3D body recovery and motion prediction."""

import os

# One BLAS thread unless the caller chose otherwise. The matrices here are
# small (tens to hundreds of rows), so a second thread costs more in
# hand-offs than it saves, and under CPU contention a two-thread run of the
# default training config takes about twice as long per step. Pinning also
# makes results independent of the host's core count (OpenBLAS splits some
# products differently with more threads). Takes effect only when this
# package is imported before numpy, as the command line entry point is.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
