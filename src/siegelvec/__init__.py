"""Exact invariant-vector dimensions and Atkin-Lehner signatures for
depth-zero representations of GSp(4) over a p-adic field.

Layers, bottom up:

* :mod:`siegelvec.numerics`   roots of unity and integer certification
* :mod:`siegelvec.finitegrp`  finite fields, GL2(q), det-matched pairs GL22(q)
* :mod:`siegelvec.chars`      cuspidal characters and closed fixed-space dimensions
* :mod:`siegelvec.models`     brute-force matrix models (the independent oracle)
* :mod:`siegelvec.padic`      fixed-precision unramified p-adics and GSp4 matrices
* :mod:`siegelvec.support`    double-coset support, counts, dimension and signature assembly
* :mod:`siegelvec.cli`        command line surface
"""

__version__ = "0.1.0"
