"""Finite fields F_q and F_{q^2}, the groups GL2(q) and GL22(q), and the
explicitly enumerated subgroups used for fixed-space averages.

Field elements are stored as discrete-log codes into F_{q^2}: code 0 is the
zero element and code e in [1, q^2-1] is g2^(e-1) for a fixed generator g2
of the multiplicative group.  F_q sits inside F_{q^2} as {0} together with
the powers of b = g2^(q+1).  Multiplication is index addition; addition
goes through a precomputed table (a Zech-logarithm table in disguise).

GL22(q) is the group of pairs of invertible 2x2 matrices over F_q with
equal determinants.  The order-2 extension acts through ``u_action``:
swap the two factors, then conjugate both by w = [[0,1],[-1,0]].
"""

from __future__ import annotations

from typing import Container, Iterable, NamedTuple, Optional

from .numerics import root_of_unity


class UnsupportedSize(ValueError):
    """Field or group size beyond the supported desk scale."""


class BadKind(ValueError):
    """Unknown or inapplicable subgroup kind."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def poly_mul_mod(a, b, mod, m: int) -> tuple:
    """Product of the coefficient lists a and b (low to high) modulo the
    monic polynomial mod, with every coefficient reduced modulo the
    integer m once, at the end: the one polynomial kernel behind F_q and
    the p-adic units."""
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
    for code in range(p ** d):
        coeffs = [(code // p ** i) % p for i in range(d)] + [1]
        one = tuple([1] + [0] * (d - 1))
        # primitive iff x has full multiplicative order mod the polynomial
        def powx(e):
            result, base, k = one, x, e
            while k:
                if k & 1:
                    result = poly_mul_mod(result, base, coeffs, p)
                base = poly_mul_mod(base, base, coeffs, p)
                k >>= 1
            return result
        if powx(order) != one:
            continue
        if all(powx(m) != one for m in set(proper)):
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
        zero_poly = tuple([0] * d)
        # addition table over codes (0 = zero, e = g2^(e-1))
        def code_of(pol):
            return 0 if pol == zero_poly else log[pol] + 1
        def poly_of(code):
            return zero_poly if code == 0 else exp[code - 1]
        add = [[0] * self.q2 for _ in range(self.q2)]
        for a in range(self.q2):
            pa = poly_of(a)
            for b in range(a, self.q2):
                s = tuple((u + v) % p for u, v in zip(pa, poly_of(b)))
                add[a][b] = add[b][a] = code_of(s)
        self._add = add
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


# -- matrices --------------------------------------------------------------

class GL2Elem(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class GL22Elem(NamedTuple):
    first: GL2Elem
    second: GL2Elem


def gl2_identity(ctx: FqCtx) -> GL2Elem:
    return GL2Elem(ctx.one, 0, 0, ctx.one)


def gl2_det(ctx: FqCtx, m: GL2Elem) -> int:
    return ctx.sub(ctx.mul(m.a, m.d), ctx.mul(m.b, m.c))


def gl2_class(ctx: FqCtx, m: GL2Elem) -> tuple[int, int, bool]:
    """Class key (trace, det, is_scalar) of m: its conjugacy class in
    GL2(q).  The flag separates aI from the non-semisimple elements with
    eigenvalue a; every other class is fixed by its characteristic
    polynomial."""
    return (ctx.add(m.a, m.d), gl2_det(ctx, m),
            m.b == 0 and m.c == 0 and m.a == m.d)


def gl2_mul(ctx: FqCtx, x: GL2Elem, y: GL2Elem) -> GL2Elem:
    return GL2Elem(
        ctx.add(ctx.mul(x.a, y.a), ctx.mul(x.b, y.c)),
        ctx.add(ctx.mul(x.a, y.b), ctx.mul(x.b, y.d)),
        ctx.add(ctx.mul(x.c, y.a), ctx.mul(x.d, y.c)),
        ctx.add(ctx.mul(x.c, y.b), ctx.mul(x.d, y.d)),
    )


def gl2_inv(ctx: FqCtx, m: GL2Elem) -> GL2Elem:
    di = ctx.inv(gl2_det(ctx, m))
    return GL2Elem(ctx.mul(di, m.d), ctx.mul(di, ctx.neg(m.b)),
                   ctx.mul(di, ctx.neg(m.c)), ctx.mul(di, m.a))


def gl22_identity(ctx: FqCtx) -> GL22Elem:
    i = gl2_identity(ctx)
    return GL22Elem(i, i)


def gl22_mul(ctx: FqCtx, x: GL22Elem, y: GL22Elem) -> GL22Elem:
    return GL22Elem(gl2_mul(ctx, x.first, y.first), gl2_mul(ctx, x.second, y.second))


def gl22_inv(ctx: FqCtx, x: GL22Elem) -> GL22Elem:
    return GL22Elem(gl2_inv(ctx, x.first), gl2_inv(ctx, x.second))


def gl22_valid(ctx: FqCtx, x: GL22Elem) -> bool:
    d1, d2 = gl2_det(ctx, x.first), gl2_det(ctx, x.second)
    return d1 != 0 and d1 == d2


def u_action(ctx: FqCtx, x: GL22Elem) -> GL22Elem:
    """Swap the factors, then conjugate both by w = [[0,1],[-1,0]]."""
    def wconj(m: GL2Elem) -> GL2Elem:
        return GL2Elem(m.d, ctx.neg(m.c), ctx.neg(m.b), m.a)
    return GL22Elem(wconj(x.second), wconj(x.first))


def conjugates_into(ctx: FqCtx, x: GL22Elem, A: Iterable[GL22Elem],
                    B: Container[GL22Elem]) -> bool:
    """Whether x a x^-1 lies in B for every a in A.  x may be any pair of
    invertible matrices; its two determinants may differ."""
    xi = gl22_inv(ctx, x)
    return all(gl22_mul(ctx, gl22_mul(ctx, x, a), xi) in B for a in A)


def enumerate_gl2(ctx: FqCtx) -> list[GL2Elem]:
    out = []
    for a in ctx.fq_elements:
        for b in ctx.fq_elements:
            for c in ctx.fq_elements:
                for d in ctx.fq_elements:
                    if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != 0:
                        out.append(GL2Elem(a, b, c, d))
    return out


def enumerate_gl22(ctx: FqCtx) -> list[GL22Elem]:
    """The det-matched pairs, grouped by determinant in field-unit order."""
    if ctx.q > 9:
        raise UnsupportedSize(f"full GL22 enumeration capped at q = 9, got {ctx.q}")
    by_det: dict[int, list[GL2Elem]] = {}
    for g in enumerate_gl2(ctx):
        by_det.setdefault(gl2_det(ctx, g), []).append(g)
    return [GL22Elem(g, h) for det in ctx.fq_units
            for g in by_det[det] for h in by_det[det]]


def artin_schreier_set(ctx: FqCtx) -> list[int]:
    """Image of b -> b^2 + b on F_q (q even), a subgroup of size q/2."""
    return sorted({ctx.add(ctx.mul(b, b), b) for b in ctx.fq_elements})


class SubgroupR:
    """An explicitly enumerated subgroup of GL22(q)."""

    def __init__(self, ctx: FqCtx, elements: Iterable[GL22Elem], label: str):
        self.ctx = ctx
        self.elements = frozenset(elements)
        self.label = label

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements


def subgroup_R(kind: str, ctx: FqCtx) -> SubgroupR:
    q = ctx.q
    if kind == "Torus":
        els = [GL22Elem(GL2Elem(a, 0, 0, b),
                        GL2Elem(c, 0, 0, ctx.mul(ctx.mul(a, b), ctx.inv(c))))
               for a in ctx.fq_units for b in ctx.fq_units for c in ctx.fq_units]
    elif kind == "Unip":
        els = [GL22Elem(GL2Elem(a, 0, u, a), GL2Elem(a, 0, u, a))
               for a in ctx.fq_units for u in ctx.fq_elements]
    elif kind == "ArtinUnip":
        if q % 2 != 0:
            raise BadKind("ArtinUnip subgroup requires q even")
        ash = artin_schreier_set(ctx)
        els = [GL22Elem(GL2Elem(a, 0, ctx.add(u, ctx.mul(a, s)), a),
                        GL2Elem(a, 0, u, a))
               for a in ctx.fq_units for u in ctx.fq_elements for s in ash]
    elif kind == "U1":
        i = gl2_identity(ctx)
        els = [GL22Elem(GL2Elem(ctx.one, 0, u, ctx.one), i) for u in ctx.fq_elements]
    elif kind == "U2":
        i = gl2_identity(ctx)
        els = [GL22Elem(i, GL2Elem(ctx.one, 0, u, ctx.one)) for u in ctx.fq_elements]
    else:
        raise BadKind(f"unknown subgroup kind {kind!r}")
    return SubgroupR(ctx, els, kind)


def subgroup_closure(ctx: FqCtx, gens: Iterable[GL22Elem]) -> SubgroupR:
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        if not gl22_valid(ctx, g):
            raise ValueError(f"generator {g} is not in GL22(q)")
    seen = {gl22_identity(ctx)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = gl22_mul(ctx, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return SubgroupR(ctx, seen, "Custom")


def conjugate_subgroups(A: SubgroupR, B: SubgroupR, ctx: FqCtx) -> Optional[GL22Elem]:
    """The first x of GL22(q), in enumeration order, with x A x^-1 = B, or
    None.  A and B have equal order, so conjugating A into B is enough."""
    if len(A) != len(B):
        raise ValueError("conjugate subgroups must have equal order")
    return next((x for x in enumerate_gl22(ctx)
                 if conjugates_into(ctx, x, A.elements, B.elements)), None)
