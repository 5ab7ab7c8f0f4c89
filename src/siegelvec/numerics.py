"""The numpy-free scalar layer: roots of unity, integer certification,
``KINDS``, the one table of the closed facts of each standard subgroup
kind (its closed fixed-space dimensions, which ``fixed_dim_closed`` reads
and ``chars`` re-exports, and its closed swap trace: they live here so
that the closed count commands read them without numpy), and the finite
fields F_q inside F_{q^2}.

All group orders in this package are at most a few times 1e5, so any
character average is a sum of at most ~1e5 unit-modulus terms divided by
the group order.  Double precision keeps the accumulated error many orders
of magnitude below 0.5, and a strict certification step converts the float
result into an exact integer or raises: within 1e-9 for character
averages, within 1e-6 for the traces behind model ranks.

Field elements are stored as discrete-log codes into F_{q^2}: code 0 is the
zero element and code e in [1, q^2-1] is g2^(e-1) for a fixed generator g2
of the multiplicative group.  F_q sits inside F_{q^2} as {0} together with
the powers of b = g2^(q+1).  Multiplication is index addition; addition
goes through a precomputed table, built from the Zech logarithms (the
codes of 1 + g2^e) as a + b = a (1 + b/a).
"""

from __future__ import annotations

import cmath
from typing import Callable, NamedTuple, Optional


# p-adic digits kept past the data scale: the least working precision
GUARD = 4


class Refusal(Exception):
    """A configuration this package declines to run, or a result it cannot
    certify or decide: the CLI prints it and exits 3.  A defect is not one."""


class NotAnInteger(ArithmeticError, Refusal):
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


class BadCase(ValueError, Refusal):
    """A closed form asked for outside the cases it covers."""


def _torus_full(q: int, omega_sign: int | None) -> int:
    if q % 2 and omega_sign not in (1, -1):
        raise BadCase("a full label on the torus at odd q needs omega(-1)")
    return 1 + omega_sign if q % 2 else 1


class Kind(NamedTuple):
    """The closed facts of one standard subgroup kind of GL22(q), whose
    generators ``finitegrp.subgroup_R`` holds: its row key and noun in the
    fixed-dims suite, whether it exists at odd q (every kind exists at even
    q), the fixed dimension of a full label given q and omega(-1), that of
    a constituent given an odd q, and the trace of the factor swap on the
    fixed space of a self-twisted full label given an even q.  A fact the
    package states no closed value for is None.  ``weyl`` says whether the
    doubled Weyl element normalizes the subgroup (the torus only), so that
    the twist operators through it have closed traces there.
    ``oracle_split`` says whether, at odd q, where constituents exist, the
    outer element s = (diag(e, 1), 1) fails to normalize it (the unipotent
    family only): a constituent then has no character-side fixed dimension
    on it, and the matrix model splits the full rank as q-1 and 0."""

    key: str
    noun: str
    odd_q: bool
    full: Optional[Callable[[int, Optional[int]], int]]
    constituent: Optional[Callable[[int], int]]
    swap: Optional[Callable[[int], int]]
    weyl: bool
    oracle_split: bool


KINDS = {
    "Torus": Kind("torus", "torus", True, _torus_full,
                  lambda q: 1 if q % 4 == 3 else 0, lambda q: 1, True, False),
    "Unip": Kind("unip", "unipotent family", True, lambda q, _: q - 1, None,
                 lambda q: q - 1, False, True),
    "ArtinUnip": Kind("artin", "Artin-Schreier family", False, lambda q, _: 1,
                      None, lambda q: 1, False, False),
    "U1": Kind("u1", "first radical line", True, None, None, None, False, False),
    "U2": Kind("u2", "second radical line", True, None, None, None, False, False),
}


def standard_kinds(q: int) -> list[str]:
    """The kinds of KINDS that exist at q, in table order."""
    return [kind for kind, row in KINDS.items() if row.odd_q or q % 2 == 0]


def fixed_dim_closed(kind: str, q: int, omega_sign: int | None = None,
                     constituent: bool = False) -> int:
    """The closed fixed-space dimension of a full label, or of a
    constituent (q odd), on the standard subgroup of a kind, read from its
    row of KINDS; omega_sign is omega(-1), which the torus needs at odd q.
    BadCase where the row states no value at q."""
    row = KINDS[kind] if kind in standard_kinds(q) else None
    value = row and (row.constituent if constituent else row.full)
    if value is None or constituent and q % 2 == 0:
        what = "a constituent" if constituent else "a full label"
        raise BadCase(f"no closed fixed dimension of {what} on {kind!r} at q = {q}")
    return value(q) if constituent else value(q, omega_sign)


class UnsupportedSize(ValueError):
    """Field or group size beyond the supported desk scale."""


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def poly_mul_mod(a, b, mod, m: int) -> tuple:
    """Product of the coefficient lists a and b (low to high) modulo the
    monic polynomial mod, with every coefficient reduced modulo the
    integer m once, at the end: the one polynomial kernel behind F_q and
    the p-adic units."""
    if len(a) == len(b) == 1:
        # what the loop below returns for constant factors, mod of degree >= 1
        return ((a[0] * b[0]) % m,)
    deg = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        if c:
            for j in range(deg):
                out[i - deg + j] -= c * mod[j]
    return tuple(c % m for c in out[:deg])


def _find_primitive_poly(p: int, d: int) -> tuple:
    """Monic degree-d polynomial over F_p whose root generates the units."""
    order = p ** d - 1
    proper = [order // r for r in range(2, order + 1) if order % r == 0]
    x = tuple([0, 1] + [0] * (d - 2)) if d >= 2 else (1,)
    one = tuple([1] + [0] * (d - 1))
    for code in range(p ** d):
        coeffs = [(code // p ** i) % p for i in range(d)] + [1]
        # primitive iff x has full multiplicative order mod the polynomial
        def powx(e):
            result, base, k = one, x, e
            while k:
                if k & 1:
                    result = poly_mul_mod(result, base, coeffs, p)
                base = poly_mul_mod(base, base, coeffs, p)
                k >>= 1
            return result
        if powx(order) == one and all(powx(m) != one for m in set(proper)):
            return tuple(coeffs)
    raise AssertionError(f"no primitive polynomial of degree {d} over F_{p}")


class FqCtx:
    """Arithmetic context for F_q inside F_{q^2}, q = p^f <= 16.

    Attributes of note: ``one``, ``gen2`` (generator of the big group),
    ``fq_gen`` (= gen2^(q+1), generating F_q^x), ``fq_minpoly`` (its
    monic minimal polynomial over F_p, integer coefficients low to high),
    ``fq_elements`` (zero first, then powers of fq_gen), ``fq_units``.
    """

    def __init__(self, p: int, f: int):
        if not _is_prime(p):
            raise UnsupportedSize(f"p = {p} is not prime")
        if p ** f > 16:
            raise UnsupportedSize(f"q = {p}^{f} exceeds the supported cap 16")
        self.p, self.f = p, f
        self.q = p ** f
        self.q2 = self.q ** 2
        d = 2 * f
        modpoly = _find_primitive_poly(p, d)
        # exp/log tables for F_{q^2}
        one = tuple([1] + [0] * (d - 1))
        x = tuple([0, 1] + [0] * (d - 2))
        exp = [one]                            # exponent -> poly
        for _ in range(self.q2 - 2):
            exp.append(poly_mul_mod(exp[-1], x, modpoly, p))
        log = {pol: e for e, pol in enumerate(exp)}
        # the Zech column: zech[e] is the code of 1 + g2^e, 0 for zero
        zech = [log[one_plus] + 1 if any(one_plus) else 0
                for one_plus in (((pol[0] + 1) % p,) + pol[1:] for pol in exp)]
        # addition table over codes (0 = zero, e = g2^(e-1)): for a != 0,
        # a + b = a (1 + b/a), and b/a = g2^(b-a)
        m = self.q2 - 1
        self._add = [list(range(self.q2))]     # 0 + b = b
        for a in range(1, self.q2):
            ones = (zech[(b - a) % m] for b in range(1, self.q2))
            self._add.append([a] + [z and (a + z - 2) % m + 1 for z in ones])
        self.zero = 0
        self.one = 1
        self.gen2 = 2
        self.fq_gen = self.exp2(self.q + 1)
        self.fq_units = [self.exp2((self.q + 1) * j) for j in range(self.q - 1)]
        self.fq_elements = [0] + self.fq_units
        self._neg = [self._negate(a) for a in range(self.q2)]
        # integer value of the prime subfield elements
        self._fp_value = {0: 0}
        acc = 0
        for i in range(1, p):
            acc = self._add[acc][1]
            self._fp_value[acc] = i
        # minimal polynomial of fq_gen over F_p, the product of
        # (X - fq_gen^(p^k)) over its f conjugates, as integers low to high
        mp = [self.one]
        for k in range(f):
            r = self.neg(self.power(self.fq_gen, p ** k))
            mp = [self.add(self.mul(r, c), prev) for c, prev in zip(mp + [0], [0] + mp)]
        self.fq_minpoly = tuple(self._fp_value[c] for c in mp)
        self._psi = {a: root_of_unity(p, self.trace_to_fp(a))
                     for a in self.fq_elements}

    # -- scalar ops ------------------------------------------------------

    def exp2(self, e: int) -> int:
        """g2^e as a code."""
        return (e % (self.q2 - 1)) + 1

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("dlog of zero")
        return a - 1

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def _negate(self, a: int) -> int:
        if a == 0:
            return 0
        if self.p == 2:
            return a
        half = (self.q2 - 1) // 2
        return (a - 1 + half) % (self.q2 - 1) + 1

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return (a - 1 + b - 1) % (self.q2 - 1) + 1

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return (1 - a) % (self.q2 - 1) + 1

    def power(self, a: int, e: int) -> int:
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("0 to a nonpositive power")
            return 0
        return ((a - 1) * e) % (self.q2 - 1) + 1

    def in_fq(self, a: int) -> bool:
        return a == 0 or (a - 1) % (self.q + 1) == 0

    def frob_q(self, a: int) -> int:
        """x -> x^q on F_{q^2}."""
        return self.power(a, self.q)

    def trace_to_fp(self, a: int) -> int:
        """Absolute trace F_q -> F_p as an integer, for a in F_q."""
        t, cur = 0, a
        for _ in range(self.f):
            t = self.add(t, cur)
            cur = self.power(cur, self.p)
        return self._fp_value[t]

    def psi(self, a: int) -> complex:
        """Fixed nontrivial additive character of F_q, read from a table."""
        return self._psi[a]


_FIELD_CACHE: dict[tuple, FqCtx] = {}


def build_field(p: int, f: int) -> FqCtx:
    key = (p, f)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FqCtx(p, f)
    return _FIELD_CACHE[key]
