"""Character values as complex doubles, plus integer certification.

All group orders in this package are at most a few times 1e5, so any
character average is a sum of at most ~1e5 unit-modulus terms divided by
the group order.  Double precision keeps the accumulated error many orders
of magnitude below 0.5, and a strict certification step converts the float
result into an exact integer or raises: within 1e-9 for character
averages, within 1e-6 for the traces behind model ranks.
"""

from __future__ import annotations

import cmath


class NotAnInteger(ArithmeticError):
    """A value that should certify to an integer failed to do so."""


def root_of_unity(m: int, k: int) -> complex:
    """exp(2 pi i k / m)."""
    if m < 1:
        raise ValueError(f"root order must be positive, got {m}")
    k %= m
    return cmath.exp(2j * cmath.pi * k / m)


def certify_integer(v: complex | float | int, tol: float = 1e-9) -> int:
    """Round ``v`` to the nearest integer, or raise NotAnInteger.

    Certification demands the imaginary part and the real residual both
    sit strictly below ``tol``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    z = complex(v)
    n = round(z.real)
    if abs(z.imag) >= tol or abs(z.real - n) >= tol:
        raise NotAnInteger(f"{z!r} is not within {tol} of an integer")
    return int(n)
