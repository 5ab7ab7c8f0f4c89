"""Slow references shared by the tests: one inverse, one character
value or one sampler draw at a time, the dense exact 4x4 product, the
label key by a search over its orbit, and the commutant of a tensor model
as one kernel over all its generators.
The package computes the first three in batches on integer code arrays
(``finitegrp.conjugates_into``, ``chars.char_values``) and on arrays of
draws (``padic.RgKernel``), and ``padic.mat_mul`` skips exact zeros where
``dense_mat_mul`` multiplies all 64 pairs; the tests compare the fast
paths with these, and ``chars.sigma_key`` writes the orbit that
``sigma_key_search`` walks in closed form, and ``models.commutant_dim``
solves factor by factor where ``full_gram_commutant`` builds one Gram of
side (q-1)^4, and ``induced_projector_ref`` sums the induced pair's
2n x 2n matrices one element at a time where ``cli._induced_projector``
places the tensor model's two averages on the diagonal.  ``ref_add``,
``ref_mul``, ``ref_neg``, ``ref_inv``, ``ref_normalize`` and
``ref_decide`` are the exact scalar operations of ``padic.PadicScalar``
without its shortcuts."""

import numpy as np

from siegelvec.chars import _char_table
from siegelvec.finitegrp import (GL2Elem, GL22Elem, gl2_det, gl22_identity,
                                 gl22_mul, gl22_valid, poly_mul_mod, u_action)
from siegelvec.models import _gl22_generators, _nullspace
from siegelvec.padic import (_K_READS, GUARD, UNDECIDED, PadicScalar,
                             PrecisionExhausted, RgKernel)


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


def cuspidal_char(ctx, k: int, g: GL2Elem) -> complex:
    """Character of the cuspidal representation labeled by k at g, read
    from the table by the class key of g."""
    return _char_table(ctx, k % (ctx.q2 - 1)).get(gl2_class(ctx, g), 0j)


class ScalarRgKernel(RgKernel):
    """RgKernel's evaluation one draw at a time in Python ints, as
    ``compute_Rg`` ran before draws came in batches: the slow reference for
    the batched arrays, with the same G, Gi, slot width and floor digits."""

    def _lift_row(self, s, row, neg=False, depth=0) -> int:
        """One row of a draw scalar times (-1 if neg) pi^depth, packed."""
        v = int(s.val[row]) + depth
        if s.zero[row] or v >= self.ctx.prec:
            return 0
        t = -self.ctx.p ** v if neg else self.ctx.p ** v
        return self._pack([t * int(c) % self.P for c in s.coeffs[row]])

    def _unpack(self, v: int, modulus: int) -> tuple:
        if self.ctx.f == 1:
            return (v % modulus,)
        B = self.B
        slots = [(v >> (B * i)) & ((1 << B) - 1) for i in range(5 * self.ctx.f - 4)]
        return poly_mul_mod(slots, (1,), self.ctx.mpoly, modulus)

    def reduce_row(self, d, row):
        """reduce_K(g s g^-1) for s = build_Si(d, row): a GL22Elem, None when
        g s g^-1 is certainly not in K, or UNDECIDED."""
        ctx, p = self.ctx, self.ctx.p
        x, y, z, lam, a1, a2, a3, a4, b1, b2, b3 = (
            self._lift_row(s, row) for s in d[:3] + d[4:])
        n2, n3 = self._lift_row(d.a2, row, True), self._lift_row(d.a3, row, True)
        depth = int(d.lam_depth[row])
        if depth:
            lam = 1 + self._lift_row(d.lam, row, depth=depth)
        if not any(c % p for c in self._unpack(lam * (a1 * a4 + n2 * a3), self.P)):
            return None
        if not self.decides:
            return UNDECIDED
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
                k = self.tests[r][c]
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
