"""Exact matrix arithmetic over an unramified p-adic ring, the compact
group K with its two-factor reduction to GL22(q), the block congruence
subgroups Si(n), and the conjugation machinery that extracts from a
double-coset representative g the finite subgroup generated by reducing
g Si(n) g^-1 cap K.

The ring is o = Z_p[x]/(m), m the minimal polynomial over F_p of the
generator ``fq_gen`` of the finite-group layer's F_q, so x reduces to
fq_gen and residues are table lookups.  Scalars are stored as p^val * u
with the unit u a polynomial in x, known modulo p^rel; units multiply
through ``numerics.poly_mul_mod``, and at f = 1 on their one integer
coefficient.  Multiplication and inversion are lossless; addition can
cancel leading digits, in which case the result degrades to an "O(p^A)"
element that only certifies a valuation bound.
Membership predicates raise PrecisionExhausted instead of guessing when
a bound cannot be certified at the working precision.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import chain, product
from typing import NamedTuple, Optional

import numpy as np

from .numerics import GUARD, FqCtx, Refusal, build_field, poly_mul_mod
from .finitegrp import (
    GL2Elem,
    GL22Elem,
    SubgroupR,
    conjugates_into,
    gl2_classes,
    gl22_codes,
    gl22_rows,
    gl22_identity,
    gl22_mul,
    gl22_valid,
    subgroup_R,
    subgroup_closure,
    u_action,
)


class PrecisionExhausted(ArithmeticError, Refusal):
    """The working precision cannot decide the requested predicate."""
    short = 0  # the digits of margin a refused RgKernel lacks


class NotSymplectic(ValueError):
    """Matrix does not satisfy the similitude relation."""


class NotInK(ValueError, Refusal):
    """Element fails the K pattern or reduces non-invertibly."""


class StabilizationFailure(RuntimeError, Refusal):
    """Sampled subgroup did not stabilize within the draw budget."""


class IdentityFailure(AssertionError):
    """A matrix identity check found a certified mismatch after ``draws``
    passing draws."""
    draws = 0


def _valp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PadicCtx:
    """Unramified extension o of Z_p of residue degree f, uniformizer p,
    presented as Z_p[x]/(m) with x reducing to ``fq.fq_gen``.  ``_pw`` is
    the table of p^k for k <= prec, the moduli of every unit."""

    def __init__(self, p: int, f: int = 1, prec: int = 32):
        if prec < GUARD:
            raise ValueError("working precision below the guard margin")
        self.p, self.f, self.prec = p, f, prec
        self.q = p ** f
        self._pw = [p ** k for k in range(prec + 1)]
        self.fq: FqCtx = build_field(p, f)
        # monic defining polynomial, coeffs low to high
        self.mpoly = self.fq.fq_minpoly
        # residue code <-> coefficient tuple over [0, p): x^e reduces to
        # fq_gen^e, the e-th unit code
        decode = {0: (0,) * f}
        pol = (1,) + (0,) * (f - 1)
        for code in self.fq.fq_units:
            decode[code] = pol
            pol = poly_mul_mod(pol, (0, 1), self.mpoly, p)
        self._decode = decode
        self._encode = {cs: code for code, cs in decode.items()}
        # rand_unit draws digits uniformly below p^(prec-1): in one int64
        # draw when the bound allows, else as base-p^k chunks below 2^63
        top = p ** (prec - 1)
        if top <= 1 << 63:
            self._digit_bounds = (top,)
        else:
            k = 1
            while p ** (k + 1) <= 1 << 63:
                k += 1
            whole, rest = divmod(prec - 1, k)
            self._digit_bounds = (p ** k,) * whole + ((p ** rest,) if rest else ())
        # the powers of pi share one coefficient tuple, built here and held
        # by no other scalar, and are known to prec: a unit times one of
        # them keeps its coefficients and rel
        self._one = tuple([1] + [0] * (f - 1))
        self.zero_s = PadicScalar(self, "zero", 0, (), 0, 0)
        self.one_s = PadicScalar(self, "unit", 0, self._one, prec, 0)
        self._int_cache: dict = {0: self.zero_s, 1: self.one_s}
        self._pi_cache = {0: self.one_s}
        # RgKernel's element type and tables, shared by every kernel: the
        # modulus P of a draw scalar, p^v for v < prec, and the residue code
        # of each coefficient tuple over [0, p), by its base-p value
        self.P = p ** prec
        self.dtype = np.uint64 if (p, f) == (2, 1) and prec <= 32 else object
        self.pw = np.array(self._pw[:prec], dtype=self.dtype)
        self.radix = p ** np.arange(f)
        self.code_of = np.zeros(self.q, np.uint8)
        for cs, code in self._encode.items():
            self.code_of[np.dot(cs, self.radix)] = code

    # -- scalar constructors ---------------------------------------------

    def unit(self, val: int, coeffs, rel: Optional[int] = None) -> "PadicScalar":
        """p^val times the unit with these coefficients, known to rel <= prec
        digits (prec by default), normalised."""
        rel = self.prec if rel is None else rel
        if rel > self.prec:
            raise ValueError("relative precision beyond the working precision")
        return _normalize(self, val, coeffs, rel)

    def eps(self, aprec: int) -> "PadicScalar":
        return PadicScalar(self, "eps", 0, (), 0, aprec)

    def from_int(self, n: int) -> "PadicScalar":
        if n in self._int_cache:
            return self._int_cache[n]
        v = _valp(abs(n), self.p)
        u = n // self.p ** v
        s = self.unit(v, [u] + [0] * (self.f - 1))
        if -8 <= n <= 8:
            self._int_cache[n] = s
        return s

    def pi(self, k: int = 1) -> "PadicScalar":
        s = self._pi_cache.get(k)
        if s is None:
            s = self._pi_cache[k] = PadicScalar(self, "unit", k, self._one, self.prec, 0)
        return s

    def res_code(self, coeffs) -> int:
        return self._encode[tuple(c % self.p for c in coeffs)]

    def lift(self, code: int, val: int = 0) -> "PadicScalar":
        """Plain lift of a residue code, shifted by pi^val."""
        if code == 0:
            return self.zero_s
        if not self.fq.in_fq(code):
            raise ValueError("residue code outside F_q")
        return self.unit(val, self._decode[code])


class PadicScalar:
    """p^val * u with the unit u known modulo p^rel (kind "unit"; u's f
    coefficients are a tuple reduced below p^rel, and 1 <= rel <= prec),
    the exact zero ("zero"), or an element only known to lie in p^aprec o
    ("eps").  Scalars are never changed after construction, so results
    may be operands or cached scalars themselves."""

    __slots__ = ("ctx", "kind", "val", "coeffs", "rel", "aprec")

    def __init__(self, ctx, kind, val, coeffs: tuple, rel, aprec):
        self.ctx, self.kind = ctx, kind
        self.val, self.coeffs, self.rel = val, coeffs, rel
        self.aprec = aprec

    # -- queries -----------------------------------------------------------

    def val_exact(self) -> int:
        if self.kind == "unit":
            return self.val
        if self.kind == "zero":
            raise ValueError("exact zero has no finite valuation")
        raise PrecisionExhausted("valuation not resolved")

    def val_ge(self, c: int) -> bool:
        if self.kind == "zero":
            return True
        if self.kind == "unit":
            return self.val >= c
        if self.aprec >= c:
            return True
        raise PrecisionExhausted(f"cannot certify val >= {c} from O(p^{self.aprec})")

    def residue(self) -> int:
        """Image in F_q of an integral element, as a field code."""
        if self.kind == "zero":
            return 0
        if self.kind == "unit":
            if self.val < 0:
                raise ValueError("residue of a non-integral element")
            if self.val > 0:
                return 0
            return self.ctx.res_code(self.coeffs)
        if self.aprec >= 1:
            return 0
        raise PrecisionExhausted("residue not resolved")

    # -- arithmetic ---------------------------------------------------------
    #
    # One-coefficient units (f = 1) add, multiply and negate on their one
    # integer; f >= 2 goes through _normalize and poly_mul_mod.

    def __neg__(self):
        if self.kind != "unit":
            return self
        pk, cs = self.ctx._pw[self.rel], self.coeffs
        neg = ((-cs[0]) % pk,) if len(cs) == 1 else tuple([(-c) % pk for c in cs])
        return PadicScalar(self.ctx, "unit", self.val, neg, self.rel, 0)

    def __add__(self, other):
        a, b = self, other if type(other) is PadicScalar else _coerce(self.ctx, other)
        if a.kind != "unit" or b.kind != "unit":
            return _add_inexact(a, b)
        if a.val > b.val:
            a, b = b, a
        d = b.val - a.val
        rel = a.rel if a.rel <= b.rel + d else b.rel + d
        if d >= rel:
            return _truncate(a, rel)
        ctx = a.ctx
        pw, ca, cb = ctx._pw, a.coeffs, b.coeffs
        if len(ca) > 1:
            sh = pw[d]
            return _normalize(ctx, a.val, [x + sh * y for x, y in zip(ca, cb)], rel)
        m = (ca[0] + pw[d] * cb[0]) % pw[rel]
        if m % ctx.p:
            return PadicScalar(ctx, "unit", a.val, (m,), rel, 0)
        return _normalize(ctx, a.val, (m,), rel)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-(other if type(other) is PadicScalar
                              else _coerce(self.ctx, other)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        """Lossless product.  A factor pi^k, one_s among them, shifts the
        other factor by k, as the product would: a unit's coefficients are
        reduced mod p^rel, and rel <= prec, the rel of pi^k."""
        a, b = self, other if type(other) is PadicScalar else _coerce(self.ctx, other)
        ctx = a.ctx
        if b.coeffs is ctx._one:
            return _shift(a, b.val)
        if a.coeffs is ctx._one:
            return _shift(b, a.val)
        if a.kind != "unit" or b.kind != "unit":
            if a.kind == "zero" or b.kind == "zero":
                return ctx.zero_s
            va = a.aprec if a.kind == "eps" else a.val
            vb = b.aprec if b.kind == "eps" else b.val
            return PadicScalar(ctx, "eps", 0, (), 0, va + vb)
        rel = a.rel if a.rel <= b.rel else b.rel
        ca, cb = a.coeffs, b.coeffs
        if len(ca) == 1:
            cs = (ca[0] * cb[0] % ctx._pw[rel],)
        else:
            cs = poly_mul_mod(ca, cb, ctx.mpoly, ctx._pw[rel])
        return PadicScalar(ctx, "unit", a.val + b.val, cs, rel, 0)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self) -> "PadicScalar":
        if self.kind == "zero":
            raise ZeroDivisionError("inverse of exact zero")
        if self.kind == "eps":
            raise PrecisionExhausted("inverse of an unresolved element")
        ctx, cs = self.ctx, self.coeffs
        if len(cs) == 1:
            return PadicScalar(ctx, "unit", -self.val,
                               (pow(cs[0], -1, ctx._pw[self.rel]),), self.rel, 0)
        x = list(ctx._decode[ctx.fq.inv(ctx.res_code(cs))])
        known = 1
        while known < self.rel:
            known = min(2 * known, self.rel)
            pk = ctx._pw[known]
            ux = poly_mul_mod(cs, x, ctx.mpoly, pk)
            two_minus = [(2 if k == 0 else 0) - c for k, c in enumerate(ux)]
            x = poly_mul_mod(x, two_minus, ctx.mpoly, pk)
        return PadicScalar(ctx, "unit", -self.val, tuple(x), self.rel, 0)

    def __repr__(self):
        if self.kind == "zero":
            return "0"
        if self.kind == "eps":
            return f"O(p^{self.aprec})"
        return f"p^{self.val}*{list(self.coeffs)} (mod p^{self.rel})"


def _coerce(ctx: PadicCtx, x) -> PadicScalar:
    if type(x) is PadicScalar:
        return x
    if type(x) is int:
        return ctx.from_int(x)
    if isinstance(x, (int, np.integer)):
        return ctx.from_int(int(x))
    raise TypeError(f"cannot coerce {type(x)!r} into the ring")


def _truncate(a: PadicScalar, rel: int) -> PadicScalar:
    """The unit a known to rel <= a.rel digits only: a itself at a.rel."""
    if rel == a.rel:
        return a
    pk = a.ctx._pw[rel]
    return PadicScalar(a.ctx, "unit", a.val, tuple([c % pk for c in a.coeffs]), rel, 0)


def _add_inexact(a: PadicScalar, b: PadicScalar) -> PadicScalar:
    """a + b when a or b is an exact zero or an O(p^A)."""
    if a.kind == "zero":
        return b
    if b.kind == "zero":
        return a
    if a.kind == "eps":
        if b.kind == "eps":
            return a.ctx.eps(min(a.aprec, b.aprec))
        a, b = b, a
    # unit + O(p^A)
    if b.aprec <= a.val:
        return a.ctx.eps(b.aprec)
    return _truncate(a, min(a.rel, b.aprec - a.val))


def _shift(x: PadicScalar, k: int) -> PadicScalar:
    """x * pi^k for pi^k known to prec: x itself when k = 0."""
    if not k or x.kind == "zero":
        return x
    if x.kind == "eps":
        return PadicScalar(x.ctx, "eps", 0, (), 0, x.aprec + k)
    return PadicScalar(x.ctx, "unit", x.val + k, x.coeffs, x.rel, 0)


def _normalize(ctx: PadicCtx, val: int, coeffs, rel: int) -> PadicScalar:
    if rel <= 0:
        return ctx.eps(val)
    pk, p = ctx._pw[rel], ctx.p
    if len(coeffs) == 1:
        c, t = coeffs[0] % pk, 0
        if not c:
            return ctx.eps(val + rel)
        while not c % p:
            c //= p
            t += 1
        return PadicScalar(ctx, "unit", val + t, (c,), rel - t, 0)
    cm = [c % pk for c in coeffs]
    if any(c % p for c in cm):
        return PadicScalar(ctx, "unit", val, tuple(cm), rel, 0)
    if not any(cm):
        return ctx.eps(val + rel)
    t = 1
    while not any(c % ctx._pw[t + 1] for c in cm):
        t += 1
    sh = ctx._pw[t]
    return PadicScalar(ctx, "unit", val + t, tuple([c // sh for c in cm]), rel - t, 0)


def _decide(a: PadicScalar, b: PadicScalar) -> Optional[bool]:
    """Whether a - b vanishes to GUARD digits past the data scale: True,
    False when it is certifiably nonzero, None when an O(p^A) difference
    cannot decide.  Two units of one valuation differ by O(p^(val + rel))
    exactly when their coefficients agree mod p^rel, and by a unit
    otherwise."""
    if a.kind == "unit" and b.kind == "unit" and a.val == b.val:
        rel = a.rel if a.rel <= b.rel else b.rel
        pk, ca, cb = a.ctx._pw[rel], a.coeffs, b.coeffs
        if (ca[0] - cb[0]) % pk or (len(ca) > 1 and any(
                (x - y) % pk for x, y in zip(ca, cb))):
            return False
        return True if rel >= GUARD else None
    if a.kind == "zero" and b.kind == "zero":
        return True
    d = a - b
    if d.kind != "eps":
        return d.kind == "zero"
    base = min((x.val for x in (a, b) if x.kind == "unit"), default=0)
    return True if d.aprec >= base + GUARD else None


def _all_close(pairs) -> bool:
    """False when any pair certifiably differs, True when every pair is
    decided equal, otherwise PrecisionExhausted."""
    found = [_decide(a, b) for a, b in pairs]
    if False in found:
        return False
    if None in found:
        raise PrecisionExhausted(
            f"{found.count(None)} of {len(found)} comparisons undecided at "
            "the working precision")
    return True


def scalars_close(a: PadicScalar, b: PadicScalar) -> bool:
    """Three-valued equality: True or False when decided, otherwise
    PrecisionExhausted."""
    return _all_close([(a, b)])


# -- 4x4 matrices -----------------------------------------------------------

J_ROWS = ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0))


def mat_from(ctx: PadicCtx, rows):
    """The rows as PadicScalars: literal ints by the cached scalars."""
    ints = ctx._int_cache
    return tuple([tuple([e if type(e) is PadicScalar
                         else ints[e] if type(e) is int and e in ints
                         else _coerce(ctx, e) for e in row]) for row in rows])


# the k with bit k set, for each 4-bit mask of live terms of an entry, and
# that k alone for a mask of one bit, else -1
_TERMS = [tuple(k for k in range(4) if m >> k & 1) for m in range(16)]
_LONE = [ks[0] if len(ks) == 1 else -1 for ks in _TERMS]


def mat_mul(ctx: PadicCtx, A, B):
    """A B over the pairs of entries that are not exact zeros (always
    ``ctx.zero_s``), in the order of k: exact, since zero * x is zero_s and
    acc + zero_s is acc (the dense sum is ``tests/reference.py``'s
    ``dense_mat_mul``).  An entry with one live term is that product; one
    with more is summed by _dot, or by _dot_ints at f = 1."""
    zero, one, lone, terms, shift = ctx.zero_s, ctx._one, _LONE, _TERMS, _shift
    dot = _dot if ctx.f > 1 else _dot_ints
    cols = [(b0 is not zero) | (b1 is not zero) << 1 | (b2 is not zero) << 2
            | (b3 is not zero) << 3 for b0, b1, b2, b3 in zip(*B)]
    out = []
    for row in A:
        live = ((row[0] is not zero) | (row[1] is not zero) << 1
                | (row[2] is not zero) << 2 | (row[3] is not zero) << 3)
        r = []
        for j, col in enumerate(cols):
            m = live & col
            k = lone[m]
            if k < 0:
                r.append(dot(ctx, row, B, j, terms[m]) if m else zero)
                continue
            a, b = row[k], B[k][j]
            r.append(shift(a, b.val) if b.coeffs is one
                     else shift(b, a.val) if a.coeffs is one else a * b)
        out.append(tuple(r))
    return tuple(out)


def _dot(ctx: PadicCtx, row, B, j: int, ks, acc=None) -> PadicScalar:
    """acc (zero_s if None) plus row[k] * B[k][j] over ks, in the order of
    k.  A factor pi^k, one_s among them, shifts the other factor without a
    product, as ``__mul__`` would."""
    one, zero = ctx._one, ctx.zero_s
    if acc is None:
        acc = zero
    for k in ks:
        a, b = row[k], B[k][j]
        if b.coeffs is one:
            t = _shift(a, b.val)
        elif a.coeffs is one:
            t = _shift(b, a.val)
        else:
            t = a * b
        acc = t if acc is zero else acc + t
    return acc


def _dot_ints(ctx: PadicCtx, row, B, j: int, ks) -> PadicScalar:
    """_dot at f = 1 on the integers (val, coefficient, rel) of each unit:
    every product and partial sum as ``__mul__`` and ``__add__`` compute it,
    and only the sum built as a scalar.  From an O(p^A) term, or a partial
    sum that cancels to one, _dot goes on."""
    p, pw = ctx.p, ctx._pw
    v = None
    for i, k in enumerate(ks):
        a, b = row[k], B[k][j]
        if a.kind != "unit" or b.kind != "unit":
            acc = None if v is None else PadicScalar(ctx, "unit", v, (c,), r, 0)
            return _dot(ctx, row, B, j, ks[i:], acc)
        rel = a.rel if a.rel <= b.rel else b.rel
        tv, tc = a.val + b.val, a.coeffs[0] * b.coeffs[0] % pw[rel]
        if v is None:
            v, c, r = tv, tc, rel
            continue
        if v > tv:
            v, c, r, tv, tc, rel = tv, tc, rel, v, c, r
        d = tv - v
        if r > rel + d:
            r = rel + d
        if d >= r:
            c %= pw[r]
            continue
        c = (c + pw[d] * tc) % pw[r]
        if not c:
            return _dot(ctx, row, B, j, ks[i + 1:], ctx.eps(v + r))
        while not c % p:
            c //= p
            v += 1
            r -= 1
    return PadicScalar(ctx, "unit", v, (c,), r, 0)


def mat_transpose(A):
    return tuple(zip(*A))


def mat_scal(ctx: PadicCtx, c, A):
    c, zero = _coerce(ctx, c), ctx.zero_s
    return tuple([tuple([e if e is zero else c * e for e in row]) for row in A])


def mat_close(A, B) -> bool:
    return _all_close(zip(chain(*A), chain(*B)))


def mat_identity(ctx: PadicCtx):
    return mat_from(ctx, [[1 if i == j else 0 for j in range(4)] for i in range(4)])


def _j_times(A):
    """J A for J = J_ROWS: the rows of A reversed, the last two negated."""
    return (A[3], A[2], tuple([-e for e in A[1]]), tuple([-e for e in A[0]]))


def similitude_of(ctx: PadicCtx, A):
    """Similitude factor of A.  NotSymplectic means a certified mismatch of
    the Gram matrix; an undecidable factor or entry raises
    PrecisionExhausted."""
    T = mat_mul(ctx, mat_transpose(A), _j_times(A))
    mu = T[0][3]
    if mu.kind == "eps":
        raise PrecisionExhausted("similitude factor not resolved")
    if mu.kind == "zero" or not mat_close(T, mat_scal(ctx, mu, mat_from(ctx, J_ROWS))):
        raise NotSymplectic("Gram matrix is not a multiple of J")
    return mu


class GSp4Elem:
    """Similitude-symplectic 4x4 matrix with cached factor mu."""

    __slots__ = ("ctx", "m", "mu")

    def __init__(self, ctx: PadicCtx, m, mu: PadicScalar):
        self.ctx, self.m, self.mu = ctx, m, mu

    @classmethod
    def make(cls, ctx: PadicCtx, rows, mu=None) -> "GSp4Elem":
        m = mat_from(ctx, rows)
        if mu is None:
            mu = similitude_of(ctx, m)
        else:
            mu = _coerce(ctx, mu)
        return cls(ctx, m, mu)

    def __matmul__(self, other: "GSp4Elem") -> "GSp4Elem":
        return GSp4Elem(self.ctx, mat_mul(self.ctx, self.m, other.m),
                        self.mu * other.mu)

    def inv(self) -> "GSp4Elem":
        # g^-1 = -mu^-1 J g^T J: entry (i, j) is mu^-1 g[3-j][3-i], negated
        # where exactly one of i, j is below 2
        mi, m, zero = self.mu.inv(), self.m, self.ctx.zero_s
        rows = tuple([tuple([zero if (x := m[3 - j][3 - i]) is zero
                             else mi * x if (i < 2) == (j < 2) else -(mi * x)
                             for j in range(4)]) for i in range(4)])
        return GSp4Elem(self.ctx, rows, mi)

    def scal(self, c) -> "GSp4Elem":
        c = _coerce(self.ctx, c)
        return GSp4Elem(self.ctx, mat_scal(self.ctx, c, self.m),
                        c * c * self.mu)

    def __repr__(self):
        return f"GSp4Elem(mu={self.mu!r})"


def gsp_close(a: GSp4Elem, b: GSp4Elem) -> bool:
    return _all_close(zip((a.mu, *chain(*a.m)), (b.mu, *chain(*b.m))))


# -- element builders --------------------------------------------------------

# The builders write their rows with the cached scalars: no mat_from pass.

def t_elem(ctx: PadicCtx, i: int, j: int) -> GSp4Elem:
    """Diagonal coset core diag(pi^(2i+j), pi^(i+j), pi^i, 1)."""
    n, mu = ctx.zero_s, ctx.pi(2 * i + j)
    return GSp4Elem(ctx, ((mu, n, n, n), (n, ctx.pi(i + j), n, n),
                          (n, n, ctx.pi(i), n), (n, n, n, ctx.one_s)), mu)


def s_lower(ctx: PadicCtx, x, y, z) -> GSp4Elem:
    """Lower block unipotent with corner block ((x, y), (z, x))."""
    x, y, z = _coerce(ctx, x), _coerce(ctx, y), _coerce(ctx, z)
    o, n = ctx.one_s, ctx.zero_s
    return GSp4Elem(ctx, ((o, n, n, n), (n, o, n, n), (x, y, o, n), (z, x, n, o)), o)


def s_upper(ctx: PadicCtx, b1, b2, b3) -> GSp4Elem:
    """Upper block unipotent with block ((b1, b2), (b3, b1))."""
    b1, b2, b3 = _coerce(ctx, b1), _coerce(ctx, b2), _coerce(ctx, b3)
    o, n = ctx.one_s, ctx.zero_s
    return GSp4Elem(ctx, ((o, n, b1, b2), (n, o, b3, b1), (n, n, o, n), (n, n, n, o)), o)


def levi(ctx: PadicCtx, a1, a2, a3, a4, lam) -> GSp4Elem:
    """Block-diagonal element diag(A, lam*A') with A' the det-twisted adjoint."""
    a1, a2, a3, a4, lam = (_coerce(ctx, v) for v in (a1, a2, a3, a4, lam))
    n = ctx.zero_s
    rows = ((a1, a2, n, n),
            (a3, a4, n, n),
            (n, n, lam * a1, -(lam * a2)),
            (n, n, -(lam * a3), lam * a4))
    return GSp4Elem(ctx, rows, lam * (a1 * a4 - a2 * a3))


def u_elem(ctx: PadicCtx, n: int) -> GSp4Elem:
    """The involution-like element with square pi^n * identity."""
    o, z, m, pn = ctx.one_s, ctx.zero_s, ctx.from_int(-1), ctx.pi(n)
    return GSp4Elem(ctx, ((z, z, o, z), (z, z, z, m), (pn, z, z, z), (z, -pn, z, z)), pn)


def s2_elem(ctx: PadicCtx) -> GSp4Elem:
    o, z, m = ctx.one_s, ctx.zero_s, ctx.from_int(-1)
    return GSp4Elem(ctx, ((o, z, z, z), (z, z, o, z), (z, m, z, z), (z, z, z, o)), o)


# -- coset forms ---------------------------------------------------------------

def _one_plus_pi(ctx: PadicCtx, c: int) -> PadicScalar:
    return ctx.one_s + ctx.lift(c, 1)


def _units(ctx: PadicCtx) -> list:
    return [ctx.lift(c) for c in ctx.fq.fq_units]


def _one_plus_pi_w(ctx: PadicCtx) -> list:
    """1 + pi w over the residues w, for strata that exist at even q only."""
    if ctx.p != 2:
        raise ValueError("stratum needs even residue characteristic")
    return [_one_plus_pi(ctx, w) for w in ctx.fq.fq_elements]


# The strata of double cosets as the brute force reads them, never filled
# from support.STRATA, which it is checked against.  Per tag: the exponents
# (a, b, c) of pi^(a i + b j + c) for the x, y and z of the representative
# t(i, j) s_lower(x, y, z), None for 0; the unit unit(ctx, u) by which a
# residue code u multiplies y; and the similitudes sims(ctx) of the witness
# family (None: 1 alone).
COSET_FORMS = {
    "I": ((None, None, None), None, _units),
    "II": (((1, 1, 0), None, None), None, None),
    "IIIa": ((None, (0, 1, -1), (2, 1, 0)), PadicCtx.lift, None),
    "IIIb": ((None, (0, 1, -2), (2, 1, -1)), _one_plus_pi, _one_plus_pi_w),
    "IV": (((1, 1, -1), (0, 1, -1), (2, 1, 0)), PadicCtx.lift, _one_plus_pi_w),
}


def _coset_form(ctx: PadicCtx, tag: str, i: int, j: int, u: Optional[int]):
    """The x, y, z of the coset's representative and its tag's sims."""
    form = COSET_FORMS.get(tag)
    if form is None:
        raise ValueError(f"unknown coset tag {tag!r}")
    exps, unit, sims = form
    x, y, z = (ctx.zero_s if e is None else ctx.pi(e[0] * i + e[1] * j + e[2])
               for e in exps)
    if unit and u is not None:
        y = unit(ctx, u) * y
    return x, y, z, sims


def coset_rep(ctx: PadicCtx, tag: str, i: int, j: int,
              u: Optional[int] = None) -> GSp4Elem:
    """Canonical double-coset representative for the given stratum, with u
    the residue code of ``support.CosetParam.u`` (None: the unit 1)."""
    x, y, z, _ = _coset_form(ctx, tag, i, j, u)
    return t_elem(ctx, i, j) @ s_lower(ctx, x, y, z)


# -- membership and reduction -------------------------------------------------

_K_FLOOR = ((0, 0, 0, -1), (1, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 0))


def _meets_floor(g: GSp4Elem, floor) -> bool:
    """Whether mu is a unit and every entry's valuation reaches its floor."""
    if g.mu.kind != "unit" or g.mu.val != 0:
        return False
    for row, lows in zip(g.m, floor):
        for e, low in zip(row, lows):
            if not e.val_ge(low):
                return False
    return True


def reduce_K(g: GSp4Elem) -> GL22Elem:
    """Two-factor residue image of an element of K.

    First factor from the corner pattern (g11, pi*g14; g41/pi, g44),
    second from the central block (g22, g23; g32, g33).
    """
    if not _meets_floor(g, _K_FLOOR):
        raise NotInK("pattern violation")
    ctx, m = g.ctx, g.m
    pi1 = ctx.pi(1)
    first = GL2Elem(m[0][0].residue(), (pi1 * m[0][3]).residue(),
                    (ctx.pi(-1) * m[3][0]).residue(), m[3][3].residue())
    second = GL2Elem(m[1][1].residue(), m[1][2].residue(),
                     m[2][1].residue(), m[2][2].residue())
    r = GL22Elem(first, second)
    if not gl22_valid(ctx.fq, r):
        raise NotInK("reduction not invertible or determinant mismatch")
    return r


def in_K(g: GSp4Elem) -> bool:
    try:
        reduce_K(g)
        return True
    except NotInK:
        return False


def in_K_plus(g: GSp4Elem) -> bool:
    try:
        return reduce_K(g) == gl22_identity(g.ctx.fq)
    except NotInK:
        return False


def in_Si(g: GSp4Elem, n: int) -> bool:
    """Membership in the depth-n block congruence subgroup."""
    if n < 1:
        raise ValueError("depth must be at least 1")
    return _meets_floor(g, ((0, 0, 0, 0), (0, 0, 0, 0), (n, n, 0, 0), (n, n, 0, 0)))


# -- random sampling ----------------------------------------------------------

def _unit_coeffs(ctx: PadicCtx, rng: np.random.Generator) -> tuple:
    """Coefficients, below p^prec, of a uniformly random unit."""
    code = ctx.fq.fq_units[rng.integers(0, ctx.q - 1)]
    coeffs = []
    for b in ctx._decode[code]:
        # uniform below p^(prec-1), one mixed-radix chunk at a time
        digits = 0
        for bound in ctx._digit_bounds:
            digits = digits * bound + int(rng.integers(0, bound))
        coeffs.append(b + ctx.p * digits)
    return tuple(coeffs)


def rand_unit(ctx: PadicCtx, rng: np.random.Generator) -> PadicScalar:
    return ctx.unit(0, _unit_coeffs(ctx, rng))


def rand_elem(ctx: PadicCtx, rng: np.random.Generator, vmin: int = 0,
              zero_p: float = 0.0, geom: float = 0.5) -> PadicScalar:
    """Zero with probability zero_p, else a random unit times
    pi^(vmin + a geometric count)."""
    if zero_p and rng.random() < zero_p:
        return ctx.zero_s
    return ctx.unit(vmin + int(rng.geometric(geom)) - 1, _unit_coeffs(ctx, rng))


def rand_pow(ctx: PadicCtx, rng: np.random.Generator,
             vmin: int, vmax: int) -> PadicScalar:
    v = int(rng.integers(vmin, vmax + 1))
    return ctx.unit(v, _unit_coeffs(ctx, rng))


def rand_K(ctx: PadicCtx, rng: np.random.Generator) -> GSp4Elem:
    """Random element of K as a word in pattern-compatible generators."""
    g = None
    for _ in range(4 + int(rng.integers(0, 4))):
        pick = rng.integers(0, 4)
        if pick == 0:
            f = levi(ctx, rand_unit(ctx, rng), rand_elem(ctx, rng, 0, 0.3),
                     rand_elem(ctx, rng, 1, 0.3), rand_unit(ctx, rng),
                     rand_unit(ctx, rng))
        elif pick == 1:
            f = s_upper(ctx, rand_elem(ctx, rng, 0, 0.3),
                        rand_elem(ctx, rng, -1, 0.2), rand_elem(ctx, rng, 0, 0.3))
        elif pick == 2:
            f = s_lower(ctx, rand_elem(ctx, rng, 1, 0.2),
                        rand_elem(ctx, rng, 0, 0.3), rand_elem(ctx, rng, 1, 0.2))
        else:
            f = s2_elem(ctx)
        g = f if g is None else g @ f
    return g


# The law of each random scalar of an Si(n) draw, one row per column of a
# batch: the probability of an exact zero, the geometric parameter of the
# valuation above vmin, and whether vmin is n (else 0).  A unit is the row
# (0, 1, 0): never zero, always valuation 0.
_SI_LAW = ((0.15, 0.5, 1), (0.15, 0.5, 1), (0.15, 0.5, 1),  # x, y, z
           (0.2, 0.5, 0),                                   # lam
           (0, 1, 0), (0.25, 0.45, 0), (0.25, 0.45, 0), (0, 1, 0),  # a1..a4
           (0.25, 0.5, 0), (0.25, 0.5, 0), (0.25, 0.5, 0))  # b1, b2, b3


# A batch of draws from Si(n): per row and scalar x, y, z, lam, a1, a2, a3,
# a4, b1, b2, b3 a zero mask and a valuation (rows, 11), the unit
# coefficients below p^prec (rows, 11, f), and lam_depth (rows,): the
# similitude unit of a row is lam itself where lam_depth is 0, else
# 1 + pi^lam_depth * lam.  A row names the element s of Si(n)
# s_lower(x, y, z) levi(a1, a2, a3, a4, lam) s_upper(b1, b2, b3).
SiDraws = namedtuple("SiDraws", "zero val coeffs lam_depth")


def draw_Si(ctx: PadicCtx, rng: np.random.Generator, n: int, rows: int) -> SiDraws:
    """Parameters of ``rows`` random elements of Si(n), with value
    distributions biased toward the congruence strata that conjugation into
    K actually selects.  Each draw scalar is zero with its probability,
    else a uniformly random unit (digits as ``_unit_coeffs``) times
    pi^(vmin + a geometric count); the whole batch takes 4 + the number of
    digit chunks Generator calls."""
    zero_p, geom, at_n = np.array(_SI_LAW).T
    shape = (rows, len(_SI_LAW))
    zero = rng.random(shape) < zero_p
    val = n * at_n.astype(np.int64) - 1 + rng.geometric(geom, shape)
    mode = rng.random(rows)
    depth = (mode >= 0.4) + (mode >= 0.7).astype(np.int64)
    unit = depth == 0
    zero[unit, 3], val[unit, 3] = False, 0
    residues = np.array([ctx._decode[c] for c in ctx.fq.fq_units])
    wide = ctx.P > 1 << 63
    digits = 0
    for bound in ctx._digit_bounds:
        chunk = rng.integers(0, bound, shape + (ctx.f,))
        digits = digits * bound + (chunk.astype(object) if wide else chunk)
    coeffs = residues[rng.integers(0, ctx.q - 1, shape)] + ctx.p * digits
    return SiDraws(zero, val, coeffs, depth)


# -- fixed-point conjugation kernel --------------------------------------------

# The entries reduce_K reads, in the order of its two residue factors; each
# is read at the digit of its _K_FLOOR valuation.
_K_READS = ((0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (1, 2), (2, 1), (2, 2))
_READ_R, _READ_C = zip(*_K_READS)


def _fixed_point(ctx: PadicCtx, m):
    """m as (shift, digits, entries): entry (r, c) of m is p^shift times the
    integer polynomial entries[r][c] (a coefficient tuple, () for zero or
    an unresolved O(p^A)), known modulo p^(shift + digits)."""
    flat = list(chain(*m))
    shift = min(e.val for e in flat if e.kind == "unit")
    known = min(e.val + e.rel if e.kind == "unit" else e.aprec
                for e in flat if e.kind != "zero")
    entries = [[tuple(c * ctx.p ** (e.val - shift) for c in e.coeffs)
                if e.kind == "unit" else () for e in row] for row in m]
    return shift, known - shift, entries


class RgKernel:
    """Fixed-point evaluation of reduce_K(g s g^-1) on a batch of draws s
    of ``compute_Rg``, one array element per draw.

    g and g^-1 become p^sa G and p^sb Gi with integer matrices G and Gi.
    An element of o is one integer: its coefficients packed in slots of B
    bits (Kronecker substitution), so entries multiply and add as integers;
    draw scalars are reduced modulo p^prec first, which keeps every slot
    non-negative and below 2^B.  The element type, ``ctx.dtype``, is
    np.uint64 when f = 1, p = 2 and p^prec <= 2^32, where arithmetic modulo
    2^64 is exact modulo every p^k read; otherwise Python ints in object
    arrays, through the same code.  A kernel keeps only its coset's data;
    the tables that depend on (p, f, prec) alone are the context's.

    The similitude lam (a1 a4 - a2 a3) of h = g s g^-1 is known to p^prec,
    so a draw whose similitude is not a unit is rejected first.  The
    entries of h are known modulo p^(sa+sb+digits), uniformly, and
    reduce_K on PadicScalars knows each at least that well (its sums and
    products keep the least absolute precision of their terms, and every
    term carries p^(sa+sb+digits)), so every decision of the kernel is one
    reduce_K makes the same way.  The margin past the deepest floor or read
    digit is fixed per representative; below GUARD the kernel is not built
    and raises PrecisionExhausted, with ``short`` the missing digits.

    All 16 floor tests are needed: the anti-diagonal ones, symplecticity and
    the determinant check pass draws only the other 12 reject (see
    ``test_off_anti_diagonal_floors_decide_draws_the_others_pass``).  The 12
    overlap, so dropping one alone can go unnoticed: with the other floors,
    h10 or h20 off its floor zeroes a row of the second residue factor and
    fails the determinant check (columns 0, 1 and 0, 2 of h pair to 0 by J).
    """

    def __init__(self, g: GSp4Elem, gi: GSp4Elem):
        ctx = self.ctx = g.ctx
        p, f, dtype = ctx.p, ctx.f, ctx.dtype
        (sa, dg, G), (sb, dgi, Gi) = _fixed_point(ctx, g.m), _fixed_point(ctx, gi.m)
        s = self.shift = sa + sb
        digits = self.digits = min(dg, ctx.prec, dgi)
        # per entry of h the floor digit k = floor - (sa + sb) of the shifted
        # entry: it must vanish modulo p^max(k, 0), and a read entry's
        # residue is its digit k (0 when k < 0)
        tests = [[_K_FLOOR[r][c] - s for c in range(4)] for r in range(4)]
        reads = [tests[r][c] for r, c in _K_READS]
        short = GUARD - digits + max(max(map(max, tests)), max(reads) + 1)
        if short > 0:
            exc = PrecisionExhausted(f"kernel margin {GUARD - short} below GUARD")
            exc.short = short
            raise exc
        self.PN = p ** digits
        G, Gi = ([[[c % self.PN for c in e] for e in row] for row in M] for M in (G, Gi))
        # an entry of G S Gi sums 16 products of three polynomials, with
        # the coefficients of S below 5 f^2 (P + 1)^3
        top = max(c for M in (G, Gi) for row in M for e in row for c in e)
        self.B = (80 * f ** 4 * top ** 2 * (ctx.P + 1) ** 3).bit_length() + 1
        self.G, self.Gi = (np.array([[self._pack(e) for e in row] for row in M],
                                    dtype=dtype) for M in (G, Gi))
        self.low = np.array([[[p ** max(k, 0)] for k in row] for row in tests], dtype)
        self.read_div = np.array([[p ** max(k, 0)] for k in reads], dtype)
        self.read_live = np.array(reads) >= 0

    def _pack(self, cs):
        """Coefficients, ints or arrays, low to high, packed in B-bit slots."""
        return sum(c << self.B * i for i, c in enumerate(cs))

    def _scalars(self, d: SiDraws) -> np.ndarray:
        """The batch's x, y, z, lam, a1, a2, a3, a4, b1, b2, b3, -a2, -a3,
        packed and reduced modulo p^prec, as an array (13, rows)."""
        ctx = self.ctx
        val = d.val.copy()
        val[:, 3] += d.lam_depth
        live = ~d.zero & (val < ctx.prec)
        c = ctx.pw[np.where(live, val, 0)] * live
        c = (c[..., None] * d.coeffs.astype(ctx.dtype) % ctx.P).transpose(2, 1, 0)
        v = self._pack(np.concatenate([c, (ctx.P - c[:, [5, 6]]) % ctx.P], 1))
        v[3] += (d.lam_depth > 0).astype(ctx.dtype)
        return v

    def _coeffs(self, V: np.ndarray, modulus: int) -> np.ndarray:
        """The coefficients (..., f) of packed V, reduced modulo m and modulus."""
        f, m, B = self.ctx.f, self.ctx.mpoly, self.B
        if f == 1:
            return (V % modulus)[..., None]
        slots = [V >> B * i & (1 << B) - 1 for i in range(5 * f - 4)]
        for top in range(len(slots) - 1, f - 1, -1):
            for k in range(f):
                slots[top - f + k] = slots[top - f + k] - slots[top] * m[k]
        return np.stack(slots[:f], -1) % modulus

    def _mu(self, v) -> np.ndarray:
        """The similitude lam (a1 a4 - a2 a3) of g s g^-1, (rows, f) mod p^prec."""
        lam, a1, a3, a4, n2 = v[3], v[4], v[6], v[7], v[11]
        return self._coeffs(lam * (a1 * a4 + n2 * a3), self.ctx.P)

    def _matrix(self, v) -> np.ndarray:
        """g s g^-1 as p^shift H, H as (rows, 4, 4, f) coefficients mod p^digits."""
        x, y, z, lam, a1, a2, a3, a4, b1, b2, b3, n2, n3 = v
        # s = [[A, A B], [X A, X A B + lam A*]] for the blocks of s_lower,
        # levi and s_upper
        xa00, xa01 = x * a1 + y * a3, x * a2 + y * a4
        xa10, xa11 = z * a1 + x * a3, z * a2 + x * a4
        S = ((a1, a2, a1 * b1 + a2 * b3, a1 * b2 + a2 * b1),
             (a3, a4, a3 * b1 + a4 * b3, a3 * b2 + a4 * b1),
             (xa00, xa01, xa00 * b1 + xa01 * b3 + lam * a1,
              xa00 * b2 + xa01 * b1 + lam * n2),
             (xa10, xa11, xa10 * b1 + xa11 * b3 + lam * n3,
              xa10 * b2 + xa11 * b1 + lam * a4))
        S = np.stack([np.stack(row, -1) for row in S], -2)
        return self._coeffs(self.G @ S @ self.Gi, self.PN)

    def reduce(self, d: SiDraws):
        """reduce_K(g s g^-1) for the element s of every row of d: a
        boolean (rows,) array, whether g s g^-1 lies in K, and an (rows, 8)
        code array that holds the images on those rows."""
        ctx, p = self.ctx, self.ctx.p
        v = self._scalars(d)
        unit = (self._mu(v) % p != 0).any(-1)
        in_k = unit.copy()
        codes = np.zeros((len(unit), 8), np.uint8)
        H = self._matrix(v[:, unit])
        floor = (H % self.low == 0).all((1, 2, 3))
        digit = (H[:, _READ_R, _READ_C] // self.read_div % p).astype(np.intp)
        res = (ctx.code_of[digit @ ctx.radix] * self.read_live).astype(np.uint8)
        det1, det2 = (gl2_classes(ctx.fq, res[:, k:k + 4]) // 2 % ctx.q for k in (0, 4))
        in_k[unit] = floor & (det1 != 0) & (det1 == det2)
        codes[unit] = res
        return in_k, codes


_ctx_at = cache(PadicCtx)  # one context per precision rg_kernel builds at


def rg_kernel(ctx: PadicCtx, tag: str, i: int, j: int,
              u: Optional[int] = None) -> RgKernel:
    """The RgKernel of coset_rep(ctx, tag, i, j, u), at the least precision
    from ctx.prec up that leaves it GUARD digits of margin: the
    representative is exact, so its digits grow one for one with prec."""
    g = coset_rep(ctx, tag, i, j, u)
    try:
        return RgKernel(g, g.inv())
    except PrecisionExhausted as exc:
        g = coset_rep(_ctx_at(ctx.p, ctx.f, ctx.prec + exc.short), tag, i, j, u)
    return RgKernel(g, g.inv())


# -- the finite subgroup attached to a representative -------------------------

class RgResult(NamedTuple):
    group: SubgroupR
    draws: int
    accepted: int


STABLE_WINDOW, MAX_DRAWS = 200, 60000
# draws per call of draw_Si and RgKernel.reduce (128 to 512 timed the same)
BATCH = 256


def compute_Rg(kernel: RgKernel, n: int, seed: int = 0) -> RgResult:
    """Sampled reduction image of g Si(n) g^-1 cap K, closed as a subgroup,
    for the kernel's representative g.

    Draws come from the kernel's context in batches of BATCH, every one
    decided by the kernel, and are consumed in order.  Stops once
    STABLE_WINDOW consecutive accepted draws produce no new element,
    counting only the draws consumed; raises StabilizationFailure when
    MAX_DRAWS runs out first.  A new element is closed with the group's
    kept generators.
    """
    ctx = kernel.ctx
    fq = ctx.fq
    rng = np.random.default_rng(seed)
    grp = subgroup_closure(fq, [])
    draws = accepted = since_growth = 0
    while draws < MAX_DRAWS:
        batch = draw_Si(ctx, rng, n, min(BATCH, MAX_DRAWS - draws))
        in_k, codes = kernel.reduce(batch)
        known = grp.contains(codes)
        for row, ok in enumerate(in_k.tolist()):
            draws += 1
            if not ok:
                continue
            accepted += 1
            if known[row]:
                since_growth += 1
                if since_growth >= STABLE_WINDOW:
                    return RgResult(grp, draws, accepted)
            else:
                grp = subgroup_closure(fq, np.vstack([grp.gens, codes[row]]))
                known = grp.contains(codes)
                since_growth = 0
    raise StabilizationFailure(
        f"no stable window after {MAX_DRAWS} draws ({accepted} accepted)")


def witness_Rg(ctx: PadicCtx, tag: str, i: int, j: int, n: int,
               u: Optional[int] = None) -> SubgroupR:
    """Exhaustive residue-parameterized witness family for one stratum.

    u is the residue parameter of ``coset_rep`` and lam runs over the
    stratum's similitudes.  With y = 0 the family is levi(a1, 0, 0, a4,
    lam) over units a1, a4.  Otherwise it is the Levi element of the
    ``levi-xyz`` identity solved for g levi g^-1 in K, over units a1,
    residues t, and residues a2 where x != 0 (else a2 = 0):
        a3 = -(x a1 (1 - lam) + z lam a2) / y,
        a4 = lam a1 + (pi^j t - x a2 (1 + lam)) / y.
    Every family member is checked to lie in Si(n) and to conjugate into K;
    the returned subgroup is generated by the verified reductions.
    """
    x, y, z, sims = _coset_form(ctx, tag, i, j, u)
    g = coset_rep(ctx, tag, i, j, u)
    units, lams = _units(ctx), (sims(ctx) if sims else [ctx.one_s])
    if y.kind == "zero":
        members = [levi(ctx, a1, 0, 0, a4, lam)
                   for a1, a4, lam in product(units, units, lams)]
    else:
        one, yi, pj = ctx.one_s, y.inv(), ctx.pi(j)
        res = [ctx.lift(c) for c in ctx.fq.fq_elements]
        a2s = [ctx.zero_s] if x.kind == "zero" else res
        members = [levi(ctx, a1, a2, -(x * a1 * (one - lam) + z * lam * a2) * yi,
                        lam * a1 + (pj * t - x * a2 * (one + lam)) * yi, lam)
                   for a1, a2, lam, t in product(units, a2s, lams, res)]
    if not all(in_Si(s, n) for s in members):
        raise NotInK(f"witness family left Si({n}) for stratum {tag}")
    gi = g.inv()
    return subgroup_closure(ctx.fq, gl22_rows([reduce_K(g @ s @ gi) for s in members]))


def radical_obstruction(fq: FqCtx, grp: SubgroupR) -> bool:
    """True when grp contains a full unipotent radical line (up to GL22
    conjugacy), which forces the fixed space of any cuspidal pair to vanish."""
    if grp.contains(subgroup_R("U1", fq).rows).all():
        return True
    u2 = subgroup_R("U2", fq)
    return bool(conjugates_into(fq, gl22_codes(fq), u2.gens, grp).any())


# -- the identity suite --------------------------------------------------------

# Draw ranges: depths i in [0, I_MAX], j in [1, J_MAX], levels n in [1, N_MAX].
I_MAX, J_MAX, N_MAX = 3, 5, 10


def _expect(name: str, cond: bool, detail: str = ""):
    if not cond:
        raise IdentityFailure(f"{name}: {detail}" if detail else name)


def _draw_ij(rng):
    return int(rng.integers(0, I_MAX + 1)), int(rng.integers(1, J_MAX + 1))


def _g_of(ctx, rng, slots="xyz"):
    """Draw i, j, then g = t(i, j) s_lower(x, y, z) with each of x, y, z
    drawn when slots names it and exact zero otherwise: returns i, j, g,
    x, y, z."""
    i, j = _draw_ij(rng)
    x, y, z = (rand_pow(ctx, rng, -2, 3) if s in slots else ctx.zero_s for s in "xyz")
    return i, j, t_elem(ctx, i, j) @ s_lower(ctx, x, y, z), x, y, z


def _id_shear(ctx, rng):
    i, j = _draw_ij(rng)
    x, y, z = (rand_pow(ctx, rng, -1, 3) for _ in range(3))
    c = rand_pow(ctx, rng, i + 1, i + 4)
    A = levi(ctx, 1, 0, c, 1, 1)
    S = s_lower(ctx, x, y, z)
    lhs = A.inv() @ S @ A
    rhs = s_lower(ctx, x + c * y, y, z + 2 * c * x + c * c * y)
    _expect("shear", gsp_close(lhs, rhs), f"i={i} j={j}")
    t = t_elem(ctx, i, j)
    _expect("shear-depth", in_K_plus(t @ A @ t.inv()), f"i={i} j={j}")


def _id_scale(tag, slot, slots, lo, hi):
    """g s_lower(.., v, ..) g^-1 with v = pi^[lo, hi] * unit in the given
    slot of (x, y, z) is s_lower with v scaled by t(i, j) alone, for g as
    in _g_of(slots)."""
    def run(ctx, rng):
        i, j, g, *_ = _g_of(ctx, rng, slots)
        v = rand_pow(ctx, rng, lo, hi)
        args = [ctx.zero_s] * 3
        args[slot] = v
        lhs = g @ s_lower(ctx, *args) @ g.inv()
        args[slot] = v * ctx.pi((-i - j, -j, -2 * i - j)[slot])
        _expect(tag, gsp_close(lhs, s_lower(ctx, *args)), f"i={i} j={j}")
    return run


def _id_row_shear(ctx, rng):
    i, j, g, x, y, z = _g_of(ctx, rng)
    b = rand_pow(ctx, rng, -1, 3)
    lhs = g @ levi(ctx, 1, b, 0, 1, 1) @ g.inv()
    rows = [[1, b * ctx.pi(i), 0, 0],
            [0, 1, 0, 0],
            [b * z * ctx.pi(-i - j), 2 * b * x * ctx.pi(-j), 1, -(b * ctx.pi(i))],
            [0, b * z * ctx.pi(-i - j), 0, 1]]
    _expect("row-shear", mat_close(lhs.m, mat_from(ctx, rows)), f"i={i} j={j}")


def _id_upper_shear(ctx, rng):
    i, j, g, x, y, z = _g_of(ctx, rng)
    b = rand_pow(ctx, rng, -1, 3)
    lhs = g @ s_upper(ctx, 0, 0, b) @ g.inv()
    rows = [[1, 0, 0, 0],
            [-(x * b * ctx.pi(-i)), 1 - y * b, b * ctx.pi(j), 0],
            [-(x * y * b * ctx.pi(-i - j)), -(y * y * b * ctx.pi(-j)), 1 + y * b, 0],
            [-(x * x * b * ctx.pi(-2 * i - j)), -(x * y * b * ctx.pi(-i - j)),
             x * b * ctx.pi(-i), 1]]
    _expect("upper-shear", mat_close(lhs.m, mat_from(ctx, rows)), f"i={i} j={j}")


def _id_u1_cert(ctx, rng):
    u = u_elem(ctx, 1)
    sq = u @ u
    _expect("u1-cert-square", mat_close(sq.m, mat_scal(ctx, ctx.pi(1), mat_identity(ctx))))
    _expect("u1-cert-mu", scalars_close(similitude_of(ctx, u.m), ctx.pi(1)))
    _expect("u1-cert-inv", mat_close(mat_mul(ctx, u.m, u.inv().m), mat_identity(ctx)))


def _id_levi(tag, slots, params):
    """g levi(a1, a2, a3, a4, lam) g^-1 for g as in _g_of(slots) and
    (a1, a2, a3, a4, lam) = params(ctx, rng), against the conjugated Levi
    block layout with its radical block in x, y, z.  row-shear and levi-lower
    keep their own layouts: with x drawn and lam = 1 this one has O(p^prec)
    for one - lam, not an exact zero, and at p = 2 one + lam is one digit
    less precise than the literal 2, so their scalars and exits would move."""
    def run(ctx, rng):
        i, j, g, x, y, z = _g_of(ctx, rng, slots)
        a1, a2, a3, a4, lam = params(ctx, rng)
        lhs = g @ levi(ctx, a1, a2, a3, a4, lam) @ g.inv()
        one, pi = ctx.one_s, ctx.pi
        rhs = mat_from(ctx, [
            [a1, a2 * pi(i), 0, 0],
            [a3 * pi(-i), a4, 0, 0],
            [(x * a1 * (one - lam) + y * a3 + z * lam * a2) * pi(-i - j),
             (x * a2 * (one + lam) + y * (a4 - lam * a1)) * pi(-j),
             lam * a1, -(lam * a2 * pi(i))],
            [(x * a3 * (one + lam) + z * (a1 - lam * a4)) * pi(-2 * i - j),
             (x * a4 * (one - lam) + lam * y * a3 + z * a2) * pi(-i - j),
             -(lam * a3 * pi(-i)), lam * a4]])
        _expect(tag, mat_close(lhs.m, rhs), f"i={i} j={j}")
    return run


def _det_torus_params(ctx, rng):
    return ctx.one_s, ctx.zero_s, ctx.zero_s, rand_unit(ctx, rng), ctx.one_s


def _torus_params(ctx, rng):
    a1, a4, lam = (rand_unit(ctx, rng) for _ in range(3))
    return a1, ctx.zero_s, ctx.zero_s, a4, lam


def _levi_params(ctx, rng):
    a1, a4, lam = (rand_unit(ctx, rng) for _ in range(3))
    return a1, rand_pow(ctx, rng, 0, 3), rand_pow(ctx, rng, 0, 3), a4, lam


def _id_levi_lower(ctx, rng):
    i, j, g, x, y, z = _g_of(ctx, rng)
    b = rand_pow(ctx, rng, 0, 3)
    lhs = g @ levi(ctx, 1, 0, b, 1, 1) @ g.inv()
    rows = [[1, 0, 0, 0],
            [b * ctx.pi(-i), 1, 0, 0],
            [y * b * ctx.pi(-i - j), 0, 1, 0],
            [2 * b * x * ctx.pi(-2 * i - j), y * b * ctx.pi(-i - j),
             -(b * ctx.pi(-i)), 1]]
    _expect("levi-lower", mat_close(lhs.m, mat_from(ctx, rows)), f"i={i} j={j}")


def _id_al_diag(ctx, rng):
    i, j = _draw_ij(rng)
    n = int(rng.integers(1, N_MAX + 1))
    lhs = t_elem(ctx, i, j) @ u_elem(ctx, n)
    rhs = (u_elem(ctx, 1) @ t_elem(ctx, i, n - 2 * i - j - 1)).scal(ctx.pi(i + j))
    _expect("al-diag", gsp_close(lhs, rhs), f"i={i} j={j} n={n}")


def _id_al_x(ctx, rng):
    i, j = _draw_ij(rng)
    n = int(rng.integers(1, N_MAX + 1))
    k = i + j if rng.random() < 0.5 else int(rng.integers(0, n + 1))
    lhs = t_elem(ctx, i, j) @ s_lower(ctx, ctx.pi(k), 0, 0) @ u_elem(ctx, n)
    W = GSp4Elem.make(ctx, [[-1, 0, ctx.pi(i + j - k), 0],
                            [0, 1, 0, -ctx.pi(i + j - k)],
                            [0, 0, 1, 0],
                            [0, 0, 0, -1]], mu=1)
    rhs = (W @ t_elem(ctx, i, j + n - 2 * k)
           @ s_lower(ctx, ctx.pi(n - k), 0, 0)).scal(ctx.pi(k))
    _expect("al-x", gsp_close(lhs, rhs), f"i={i} j={j} n={n} k={k}")
    if k == i + j:
        r = reduce_K(W)
        fq = ctx.fq
        want = GL22Elem(GL2Elem(fq.neg(fq.one), 0, 0, fq.neg(fq.one)),
                        GL2Elem(fq.one, 0, 0, fq.one))
        _expect("al-x-reduce", r == want, f"got {r}")


def _id_al_yz(ctx, rng):
    i, j = _draw_ij(rng)
    n = int(rng.integers(1, N_MAX + 1))
    y, z = rand_pow(ctx, rng, -1, 3), rand_pow(ctx, rng, -1, 3)
    lhs = t_elem(ctx, i, j) @ s_lower(ctx, 0, y, z) @ u_elem(ctx, n)
    yi, zi = y.inv(), z.inv()
    F = GSp4Elem.make(ctx, [[0, 0, 0, ctx.pi(-1)],
                            [0, 0, 1, 0],
                            [0, 1, -(ctx.pi(2 * i + j + 1) * zi), 0],
                            [ctx.pi(1), 0, 0, -(ctx.pi(j) * yi)]])
    D = GSp4Elem.make(ctx, [[ctx.pi(n + j - 1) * yi * yi, 0, 0, 0],
                            [0, ctx.pi(n + i + j) * yi * zi, 0, 0],
                            [0, 0, z * yi * ctx.pi(-i - 1), 0],
                            [0, 0, 0, 1]])
    sgn = GSp4Elem.make(ctx, [[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, -1, 0], [0, 0, 0, -1]], mu=-1)
    rhs = (u_elem(ctx, 1) @ F @ D
           @ s_lower(ctx, 0, ctx.pi(n) * zi, ctx.pi(n) * yi) @ sgn).scal(ctx.pi(i) * y)
    _expect("al-yz", gsp_close(lhs, rhs), f"i={i} j={j} n={n}")


def _id_al_xyz(ctx, rng):
    i, j = _draw_ij(rng)
    n = int(rng.integers(1, N_MAX + 1))
    x = rand_pow(ctx, rng, -1, 2)
    vx = x.val_exact()
    y = rand_pow(ctx, rng, vx, vx + 2)
    z = rand_pow(ctx, rng, vx + 1, vx + 3)
    lhs = t_elem(ctx, i, j) @ s_lower(ctx, x, y, z) @ u_elem(ctx, n)
    xi = x.inv()
    lam = ctx.one_s - y * z * xi * xi
    li = lam.inv()
    V = GSp4Elem.make(ctx, [[-1, ctx.pi(i) * y * xi, ctx.pi(i + j) * xi * li, 0],
                            [0, -1, -(ctx.pi(j) * z * xi * xi * li), ctx.pi(i + j) * xi],
                            [0, 0, 1, ctx.pi(i) * y * xi],
                            [0, 0, 0, 1]])
    B = GSp4Elem.make(ctx, [[1, 0, 0, 0],
                            [-(z * li * ctx.pi(-i) * xi), -1, 0, 0],
                            [0, 0, li, 0],
                            [0, 0, z * li * li * ctx.pi(-i) * xi, -li]])
    h = GSp4Elem.make(ctx, [[ctx.pi(2 * i + j + n) * xi * xi, 0, 0, 0],
                            [0, ctx.pi(i + j + n) * xi * xi * li, 0, 0],
                            [0, 0, lam * ctx.pi(i), 0],
                            [0, 0, 0, 1]])
    sgn = GSp4Elem.make(ctx, [[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, lam, 0], [0, 0, 0, lam]], mu=lam)
    rhs = (V @ B @ h
           @ s_lower(ctx, ctx.pi(n) * xi, ctx.pi(n) * y * xi * xi,
                     ctx.pi(n) * z * xi * xi) @ sgn).scal(x)
    _expect("al-xyz", gsp_close(lhs, rhs), f"i={i} j={j} n={n}")


def _id_al_square(ctx, rng):
    n = int(rng.integers(1, N_MAX + 1))
    u = u_elem(ctx, n)
    sq = u @ u
    _expect("al-square", mat_close(sq.m, mat_scal(ctx, ctx.pi(n), mat_identity(ctx)))
            and scalars_close(u.mu, ctx.pi(n)), f"n={n}")


def _id_al_normalizes(ctx, rng):
    u = u_elem(ctx, 1)
    ui = u.inv()
    k = rand_K(ctx, rng)
    _expect("al-normalizes", in_K(u @ k @ ui) and in_K(ui @ k @ u))


def _id_reduce_hom(ctx, rng):
    k1, k2 = rand_K(ctx, rng), rand_K(ctx, rng)
    lhs = reduce_K(k1 @ k2)
    rhs = gl22_mul(ctx.fq, reduce_K(k1), reduce_K(k2))
    _expect("reduce-hom", lhs == rhs)


def _id_u1_conj(ctx, rng):
    u = u_elem(ctx, 1)
    k = rand_K(ctx, rng)
    lhs = reduce_K(u @ k @ u.inv())
    rhs = u_action(ctx.fq, reduce_K(k))
    _expect("u1-conj", lhs == rhs)


IDENTITY_TAGS = {
    "shear": _id_shear,
    "scale-x": _id_scale("scale-x", 0, "", -2, 4),
    "scale-y": _id_scale("scale-y", 1, "", -2, 4),
    "scale-z": _id_scale("scale-z", 2, "", -2, 4),
    "lower-corner": _id_scale("lower-corner", 2, "xyz", 0, 4),
    "row-shear": _id_row_shear,
    "upper-shear": _id_upper_shear,
    "det-torus": _id_levi("det-torus", "yz", _det_torus_params),
    "torus-unit": _id_levi("torus-unit", "yz", _torus_params),
    "u1-cert": _id_u1_cert,
    "levi-x": _id_levi("levi-x", "x", _levi_params),
    "levi-yz": _id_levi("levi-yz", "yz", _levi_params),
    "levi-xyz": _id_levi("levi-xyz", "xyz", _levi_params),
    "levi-lower": _id_levi_lower,
    "al-diag": _id_al_diag,
    "al-x": _id_al_x,
    "al-yz": _id_al_yz,
    "al-xyz": _id_al_xyz,
    "al-square": _id_al_square,
    "al-normalizes": _id_al_normalizes,
    "reduce-hom": _id_reduce_hom,
    "u1-conj": _id_u1_conj,
}


def run_identity(ctx: PadicCtx, tag: str, draws: int = 100, seed: int = 0) -> int:
    """Run one identity tag for the given number of random draws.

    Returns the number of draws performed; raises IdentityFailure with the
    offending parameters, and the count of draws that passed, on the first
    certified mismatch, and PrecisionExhausted, naming the tag, the draw
    and the seed, when the working precision cannot decide an entry.
    """
    if tag not in IDENTITY_TAGS:
        raise ValueError(f"unknown identity tag {tag!r}")
    rng = np.random.default_rng(seed)
    fn = IDENTITY_TAGS[tag]
    for done in range(draws):
        try:
            fn(ctx, rng)
        except IdentityFailure as exc:
            exc.draws = done
            raise
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"{tag} draw {done} (seed {seed}): {exc}") from exc
    return draws
