"""Exact invariant-vector dimensions and Atkin-Lehner signatures for
depth-zero representations of GSp(4) over a p-adic field.

Layers, bottom up:

* :mod:`siegelvec.numerics`   roots of unity, integer certification, finite fields
* :mod:`siegelvec.finitegrp`  GL2(q), det-matched pairs GL22(q), subgroups
* :mod:`siegelvec.chars`      cuspidal characters and closed fixed-space dimensions
* :mod:`siegelvec.models`     brute-force matrix models (the independent oracle)
* :mod:`siegelvec.padic`      fixed-precision unramified p-adics and GSp4 matrices
* :mod:`siegelvec.support`    double-coset support, counts, dimension and signature assembly
* :mod:`siegelvec.cli`        command line surface

Importing the package pins OpenBLAS to one thread unless the caller has
set ``OPENBLAS_NUM_THREADS``: every BLAS call here is small enough that a
second thread only burns CPU.  The pin must precede the first numpy
import, which is why it lives in the package root.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
