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
side (q-1)^4."""

from siegelvec.chars import _char_table
from siegelvec.finitegrp import (GL2Elem, GL22Elem, gl2_class, gl2_det, gl22_valid,
                                 poly_mul_mod)
from siegelvec.models import _gl22_generators, _nullspace
from siegelvec.padic import _K_READS, UNDECIDED, RgKernel


def gl2_inv(ctx, m: GL2Elem) -> GL2Elem:
    di = ctx.inv(gl2_det(ctx, m))
    return GL2Elem(ctx.mul(di, m.d), ctx.mul(di, ctx.neg(m.b)),
                   ctx.mul(di, ctx.neg(m.c)), ctx.mul(di, m.a))


def gl22_inv(ctx, x: GL22Elem) -> GL22Elem:
    return GL22Elem(gl2_inv(ctx, x.first), gl2_inv(ctx, x.second))


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
