"""Slow references shared by the tests: one inverse, one character
value (from the eigenvalues, found by a root search over F_{q^2}) or one
sampler draw at a time, the dense exact 4x4 product, the
label key by a search over its orbit, and the commutant of a tensor model
as one kernel over all its generators.
The package computes the first three in batches on integer code arrays
(``finitegrp.conjugates_into``, ``chars.char_values`` with
``SubgroupR.class_pairs``) and on arrays of
draws (``padic.RgKernel``, against ``build_Si``'s PadicScalar reading of
one draw), and ``padic.mat_mul`` skips exact zeros where
``dense_mat_mul`` multiplies all 64 pairs; the tests compare the fast
paths with these, and ``chars.sigma_key`` writes the orbit that
``sigma_key_search`` walks in closed form, and ``models.commutant_dim``
solves factor by factor where ``full_gram_commutant`` builds one Gram of
side (q-1)^4, and ``induced_projector_ref`` sums the induced pair's
2n x 2n matrices one element at a time where ``cli._induced_projector``
places the tensor model's two averages on the diagonal, and
``tensor_average_ref`` sums one Kronecker product per element where
``models.pair_averages`` averages many pairs in one matrix product.
``ref_add``, ``ref_mul``, ``ref_neg``, ``ref_inv``, ``ref_normalize`` and
``ref_decide`` are the exact scalar operations of ``padic.PadicScalar``
without its shortcuts.  ``PairwiseFqCtx`` builds F_{q^2}'s addition table
by adding every pair of polynomials, where ``numerics.FqCtx`` reads it from
one Zech column, and ``per_coset_counts`` counts the cosets of each
stratum one coset at a time, over the list ``enumerate_support_ref``
materializes, where ``cli`` counts them by lattice block."""

import collections
import functools

import numpy as np

from siegelvec.chars import theta_eval
from siegelvec.finitegrp import (GL2Elem, GL22Elem, gl2_det, gl22_identity,
                                 gl22_mul, gl22_valid, poly_mul_mod, u_action)
from siegelvec.models import _gl22_generators, _nullspace, cuspidal_model
from siegelvec.numerics import (FqCtx, UnsupportedSize, _find_primitive_poly,
                                _is_prime, root_of_unity)
from siegelvec.padic import (_K_FLOOR, _K_READS, GUARD, PadicScalar,
                             PrecisionExhausted, RgKernel, levi, s_lower, s_upper)
from siegelvec.support import STRATA, CosetParam, al_partner


def gl2_inv(ctx, m: GL2Elem) -> GL2Elem:
    di = ctx.inv(gl2_det(ctx, m))
    return GL2Elem(ctx.mul(di, m.d), ctx.mul(di, ctx.neg(m.b)),
                   ctx.mul(di, ctx.neg(m.c)), ctx.mul(di, m.a))


def gl22_inv(ctx, x: GL22Elem) -> GL22Elem:
    return GL22Elem(gl2_inv(ctx, x.first), gl2_inv(ctx, x.second))


def gl2_class(ctx, m: GL2Elem) -> tuple[int, int, bool]:
    """Class key (trace, det, is_scalar) of m, one element at a time: the
    reference for ``finitegrp.gl2_classes``."""
    return (ctx.add(m.a, m.d), gl2_det(ctx, m),
            m.b == 0 and m.c == 0 and m.a == m.d)


def artin_schreier_set(ctx) -> list[int]:
    """Image of b -> b^2 + b on F_q (q even), a subgroup of size q/2."""
    return sorted({ctx.add(ctx.mul(b, b), b) for b in ctx.fq_elements})


def subgroup_elements_ref(kind: str, ctx) -> set:
    """The elements of a standard subgroup kind by their formulas, the
    reference for ``finitegrp.subgroup_R``, which closes the generators."""
    one, i = ctx.one, GL2Elem(ctx.one, 0, 0, ctx.one)
    units, els = ctx.fq_units, ctx.fq_elements
    if kind == "Torus":
        return {GL22Elem(GL2Elem(a, 0, 0, b),
                         GL2Elem(c, 0, 0, ctx.mul(ctx.mul(a, b), ctx.inv(c))))
                for a in units for b in units for c in units}
    if kind == "Unip":
        return {GL22Elem(GL2Elem(a, 0, u, a), GL2Elem(a, 0, u, a))
                for a in units for u in els}
    if kind == "ArtinUnip":
        return {GL22Elem(GL2Elem(a, 0, ctx.add(u, ctx.mul(a, s)), a),
                         GL2Elem(a, 0, u, a))
                for a in units for u in els for s in artin_schreier_set(ctx)}
    if kind == "U1":
        return {GL22Elem(GL2Elem(one, 0, u, one), i) for u in els}
    assert kind == "U2"
    return {GL22Elem(i, GL2Elem(one, 0, u, one)) for u in els}


def subgroup_closure_ref(ctx, gens) -> set:
    """The elements of the subgroup generated by a list of GL22Elem, by a
    breadth-first search on tuples from the identity, every generator
    applied to every new element."""
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
    return seen


@functools.cache
def _quadratic_roots(ctx, tr, det):
    """Roots of t^2 - tr t + det in F_{q^2}, a double root listed twice."""
    roots = [t for t in range(ctx.q2)
             if ctx.add(ctx.sub(ctx.mul(t, t), ctx.mul(tr, t)), det) == 0]
    return (roots * 2)[:2]


def classify_gl2(ctx, g):
    """Conjugacy type of g: ('scalar', a), ('nonss', a), ('split', (a, b)),
    or ('elliptic', t) with t one of the two eigenvalues outside F_q."""
    if g.b == 0 and g.c == 0 and g.a == g.d:
        return ("scalar", g.a)
    r1, r2 = _quadratic_roots(ctx, ctx.add(g.a, g.d), gl2_det(ctx, g))
    if r1 == r2:
        return ("nonss", r1)
    if ctx.in_fq(r1):
        return ("split", (min(r1, r2), max(r1, r2)))
    return ("elliptic", min(r1, r2))


@functools.cache
def cuspidal_char_reference(ctx, k, kind, data):
    """Character value on a conjugacy type, from the eigenvalues."""
    if kind == "scalar":
        return (ctx.q - 1) * theta_eval(ctx, k, data)
    if kind == "nonss":
        return -theta_eval(ctx, k, data)
    if kind == "elliptic":
        return -(theta_eval(ctx, k, data) + theta_eval(ctx, k, ctx.frob_q(data)))
    return 0j


def cuspidal_char(ctx, k: int, g: GL2Elem) -> complex:
    """Character of the cuspidal representation labeled by k at g, from
    the conjugacy type of g: the reference for ``chars.char_values``,
    with which it shares no table."""
    return cuspidal_char_reference(ctx, k, *classify_gl2(ctx, g))


def build_Si(ctx, d, row):
    """The element s_lower(x, y, z) levi(a1, a2, a3, a4, lam) s_upper(b1, b2, b3)
    of Si(n) named by one row of a batch of ``padic.draw_Si``, built from
    PadicScalars: the reference for the rows ``padic.RgKernel`` packs."""
    x, y, z, lam, a1, a2, a3, a4, b1, b2, b3 = (
        ctx.zero_s if zero else ctx.unit(val, cs) for zero, val, cs in
        zip(d.zero[row].tolist(), d.val[row].tolist(), d.coeffs[row].tolist()))
    depth = int(d.lam_depth[row])
    if depth:
        lam = ctx.one_s + ctx.pi(depth) * lam
    return (s_lower(ctx, x, y, z) @ levi(ctx, a1, a2, a3, a4, lam)
            @ s_upper(ctx, b1, b2, b3))


class ScalarRgKernel(RgKernel):
    """RgKernel's evaluation one draw at a time in Python ints, as
    ``compute_Rg`` ran before draws came in batches: the slow reference for
    the batched arrays, with the same G, Gi and slot width, and its own
    floor digits from _K_FLOOR."""

    def _lift_row(self, d, row, k, neg=False, depth=0) -> int:
        """Draw scalar k of one row (column k of the batch) times (-1 if
        neg) pi^depth, packed."""
        v = int(d.val[row, k]) + depth
        if d.zero[row, k] or v >= self.ctx.prec:
            return 0
        t = -self.ctx.p ** v if neg else self.ctx.p ** v
        P = self.ctx.p ** self.ctx.prec
        return self._pack([t * int(c) % P for c in d.coeffs[row, k]])

    def _unpack(self, v: int, modulus: int) -> tuple:
        if self.ctx.f == 1:
            return (v % modulus,)
        B = self.B
        slots = [(v >> (B * i)) & ((1 << B) - 1) for i in range(5 * self.ctx.f - 4)]
        return poly_mul_mod(slots, (1,), self.ctx.mpoly, modulus)

    def reduce_row(self, d, row):
        """reduce_K(g s g^-1) for s = build_Si(d, row): a GL22Elem, or None
        when g s g^-1 is not in K."""
        ctx, p = self.ctx, self.ctx.p
        x, y, z, lam, a1, a2, a3, a4, b1, b2, b3 = (
            self._lift_row(d, row, k) for k in range(11))
        n2, n3 = self._lift_row(d, row, 5, True), self._lift_row(d, row, 6, True)
        depth = int(d.lam_depth[row])
        if depth:
            lam = 1 + self._lift_row(d, row, 3, depth=depth)
        if not any(c % p for c in self._unpack(lam * (a1 * a4 + n2 * a3),
                                               p ** ctx.prec)):
            return None
        xa00, xa01 = x * a1 + y * a3, x * a2 + y * a4
        xa10, xa11 = z * a1 + x * a3, z * a2 + x * a4
        S = ((a1, a2, a1 * b1 + a2 * b3, a1 * b2 + a2 * b1),
             (a3, a4, a3 * b1 + a4 * b3, a3 * b2 + a4 * b1),
             (xa00, xa01, xa00 * b1 + xa01 * b3 + lam * a1,
              xa00 * b2 + xa01 * b1 + lam * n2),
             (xa10, xa11, xa10 * b1 + xa11 * b3 + lam * n3,
              xa10 * b2 + xa11 * b1 + lam * a4))
        G, Gi = self.G.tolist(), self.Gi.tolist()
        res = [0] * 8
        for r in range(4):
            for c in range(4):
                h = self._unpack(sum(G[r][k] * S[k][l] * Gi[l][c]
                                     for k in range(4) for l in range(4)), self.PN)
                k = _K_FLOOR[r][c] - self.shift
                if any(e % p ** max(k, 0) for e in h):
                    return None
                if (r, c) in _K_READS and k >= 0:
                    res[_K_READS.index((r, c))] = ctx._encode[
                        tuple(e // p ** k % p for e in h)]
        out = GL22Elem(GL2Elem(*res[:4]), GL2Elem(*res[4:]))
        return out if gl22_valid(ctx.fq, out) else None


def dense_mat_mul(ctx, A, B):
    """The 4x4 product of PadicScalar matrices over all 64 pairs of
    entries, each entry summed from ``ctx.zero_s`` in the order of k."""
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            acc = ctx.zero_s
            for k in range(4):
                acc = acc + A[i][k] * B[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def sigma_key_search(ctx, sigma):
    """The least pair reachable from (k1, k2) by the label moves, with the
    constituent: relabel either factor by Frobenius (k -> qk), and shift a
    determinant twist between the factors (k1 + l(q+1), k2 - l(q+1))."""
    m = ctx.q2 - 1
    seen = set()
    frontier = [(sigma.k1 % m, sigma.k2 % m)]
    while frontier:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        a, b = cur
        for nxt in (((ctx.q * a) % m, b), (a, (ctx.q * b) % m),
                    ((a + ctx.q + 1) % m, (b - ctx.q - 1) % m),
                    ((a - ctx.q - 1) % m, (b + ctx.q + 1) % m)):
            if nxt not in seen:
                frontier.append(nxt)
    return (min(seen), sigma.constituent)


def full_gram_commutant(tm):
    """(dimension, basis) of the algebra commuting with the det-matched
    restriction of a tensor model: the gap-certified kernel of X A = A X
    over every generator of the det-matched group at once."""
    n = tm.dim
    null = _nullspace([(A, A) for A in map(tm.mat, _gl22_generators(tm.ctx))])
    return len(null), [v.reshape((n, n), order="F") for v in null]


def tensor_average_ref(ctx, R, k1, k2, lam_exp=0):
    """Mean over x in R of det(x1)^lam m_k1(x1) (x) m_k2(x2), one element
    at a time, with det(x1) = fq_gen^j giving the phase
    exp(2 pi i lam j / (q-1))."""
    m1, m2 = cuspidal_model(ctx, k1), cuspidal_model(ctx, k2)
    total = np.zeros((m1.dim * m2.dim,) * 2, dtype=np.complex128)
    for x in R:
        j = ctx.dlog(gl2_det(ctx, x.first)) // (ctx.q + 1)
        total += root_of_unity(ctx.q - 1, lam_exp * j) * np.kron(
            m1.mat(x.first), m2.mat(x.second))
    return total / len(R)


def induced_projector_ref(tm, R):
    """Mean over r in R of blockdiag(tm(r), tm(u_action(r))), the
    projector onto the R-fixed space of the pair induced from tm."""
    n = tm.dim
    total = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for r in R:
        total[:n, :n] += tm.mat(r)
        total[n:, n:] += tm.mat(u_action(tm.ctx, r))
    return total / len(R)


# -- the exact p-adic scalar core, one operation at a time ------------------
#
# PadicScalar's arithmetic as it was before the one-coefficient paths, the
# power table and the direct construction of results: every operation goes
# through the general polynomial code, recomputes p^rel, and builds its
# result with the constructor.  The package's core must return scalars equal
# to these field by field.

def _ref_scalar(ctx, kind, val, coeffs, rel, aprec):
    return PadicScalar(ctx, kind, val, tuple(coeffs), rel, aprec)


def ref_neg(a):
    if a.kind != "unit":
        return a
    pk = a.ctx.p ** a.rel
    return _ref_scalar(a.ctx, "unit", a.val, ((-c) % pk for c in a.coeffs), a.rel, 0)


def ref_add(a, b):
    ctx = a.ctx
    if a.kind == "zero":
        return b
    if b.kind == "zero":
        return a
    if a.kind == "eps" and b.kind == "eps":
        return _ref_scalar(ctx, "eps", 0, (), 0, min(a.aprec, b.aprec))
    if a.kind == "eps":
        a, b = b, a
    if b.kind == "eps":
        # unit + O(p^A)
        if b.aprec <= a.val:
            return _ref_scalar(ctx, "eps", 0, (), 0, b.aprec)
        nrel = min(a.rel, b.aprec - a.val)
        pk = ctx.p ** nrel
        return _ref_scalar(ctx, "unit", a.val, (c % pk for c in a.coeffs), nrel, 0)
    if a.val > b.val:
        a, b = b, a
    d = b.val - a.val
    rel = min(a.rel, b.rel + d)
    if d >= rel:
        pk = ctx.p ** rel
        return _ref_scalar(ctx, "unit", a.val, (c % pk for c in a.coeffs), rel, 0)
    sh = ctx.p ** d
    merged = [ca + sh * cb for ca, cb in zip(a.coeffs, b.coeffs)]
    return ref_normalize(ctx, a.val, merged, rel)


def ref_mul(a, b):
    ctx = a.ctx
    if b is ctx.one_s:
        return a
    if a is ctx.one_s:
        return b
    if a.kind == "zero" or b.kind == "zero":
        return ctx.zero_s
    if a.kind == "eps" or b.kind == "eps":
        va = a.aprec if a.kind == "eps" else a.val
        vb = b.aprec if b.kind == "eps" else b.val
        return _ref_scalar(ctx, "eps", 0, (), 0, va + vb)
    rel = min(a.rel, b.rel)
    coeffs = poly_mul_mod(a.coeffs, b.coeffs, ctx.mpoly, ctx.p ** rel)
    return _ref_scalar(ctx, "unit", a.val + b.val, coeffs, rel, 0)


def ref_inv(a):
    if a.kind == "zero":
        raise ZeroDivisionError("inverse of exact zero")
    if a.kind == "eps":
        raise PrecisionExhausted("inverse of an unresolved element")
    ctx = a.ctx
    rescode = ctx._encode[tuple(c % ctx.p for c in a.coeffs)]
    x = list(ctx._decode[ctx.fq.inv(rescode)])
    known = 1
    while known < a.rel:
        known = min(2 * known, a.rel)
        pk = ctx.p ** known
        ux = poly_mul_mod(a.coeffs, x, ctx.mpoly, pk)
        two_minus = [(2 if k == 0 else 0) - c for k, c in enumerate(ux)]
        x = list(poly_mul_mod(x, two_minus, ctx.mpoly, pk))
    return _ref_scalar(ctx, "unit", -a.val, x, a.rel, 0)


def _ref_valp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ref_normalize(ctx, val, coeffs, rel):
    if rel <= 0:
        return _ref_scalar(ctx, "eps", 0, (), 0, val)
    pk = ctx.p ** rel
    cm = [c % pk for c in coeffs]
    if all(c == 0 for c in cm):
        return _ref_scalar(ctx, "eps", 0, (), 0, val + rel)
    t = min(_ref_valp(c, ctx.p) for c in cm if c)
    if t == 0:
        return _ref_scalar(ctx, "unit", val, cm, rel, 0)
    sh = ctx.p ** t
    pk2 = ctx.p ** (rel - t)
    return _ref_scalar(ctx, "unit", val + t, ((c // sh) % pk2 for c in cm), rel - t, 0)


def ref_decide(a, b):
    """Whether a - b vanishes to GUARD digits past the data scale: True,
    False when certifiably nonzero, None when an O(p^A) cannot decide."""
    d = ref_add(a, ref_neg(b))
    if d.kind != "eps":
        return d.kind == "zero"
    base = min((x.val for x in (a, b) if x.kind == "unit"), default=0)
    return True if d.aprec >= base + GUARD else None


# -- F_q by pairwise polynomial sums ------------------------------------------

class PairwiseFqCtx(FqCtx):
    """FqCtx as it was built before the Zech column: every pair of
    polynomials added, O(q^4) additions, and the rest derived from that
    table as before."""

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
        one = tuple([1] + [0] * (d - 1))
        x = tuple([0, 1] + [0] * (d - 2))
        exp = [one]
        for _ in range(self.q2 - 2):
            exp.append(poly_mul_mod(exp[-1], x, modpoly, p))
        log = {pol: e for e, pol in enumerate(exp)}
        zero_poly = tuple([0] * d)

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
        self._fp_value = {0: 0}
        acc = 0
        for i in range(1, p):
            acc = self._add[acc][1]
            self._fp_value[acc] = i
        mp = [self.one]
        for k in range(f):
            r = self.neg(self.power(self.fq_gen, p ** k))
            mp = [self.add(self.mul(r, c), prev) for c, prev in zip(mp + [0], [0] + mp)]
        self.fq_minpoly = tuple(self._fp_value[c] for c in mp)
        self._psi = {a: root_of_unity(p, self.trace_to_fp(a))
                     for a in self.fq_elements}


# -- the coset support, one coset at a time -----------------------------------

def enumerate_support_ref(fq, n):
    """Every coset (tag, i, j, u) at level n, jmin <= j <= n - 2 - 2i, in
    the order of ``support.enumerate_support``: stratum, i, j, then u."""
    codes = {"zero": [0], "one": [fq.one], "units": fq.fq_units,
             "all": fq.fq_elements}
    return [CosetParam(tag, i, j, u) for tag, row in STRATA.items()
            if fq.q % 2 == 0 or tag == "I"
            for i in range((n - 2 - row.jmin) // 2 + 1)
            for j in range(row.jmin, n - 1 - 2 * i) for u in codes[row.residues]]


def per_coset_counts(fq, n):
    """(cosets, involution-fixed cosets) per stratum tag at level n, as
    Counters over the materialized list, a coset fixed when it equals its
    partner."""
    params = enumerate_support_ref(fq, n)
    return (collections.Counter(p.tag for p in params),
            collections.Counter(p.tag for p in params if al_partner(p, n) == p))
