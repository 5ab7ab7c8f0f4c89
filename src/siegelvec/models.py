"""Matrix models for cuspidal representations and their det-matched tensors.

A cuspidal model is the Kirillov model of the representation labeled by
k: functions on F_q^x, indexed by the log base ``fq_gen``, built from the
multiplicative character theta_k (``chars.theta_eval``) and the additive
character psi (``FqCtx.psi``) alone.  With n(t) = [[1, t], [0, 1]] and
w = [[0, 1], [-1, 0]]:

* rho([[a, b], [0, d]]) f(x) = theta(d) psi(bx/d) f(ax/d);
* rho(w) = W with W[x, y] = J(xy) theta(y)^-1, where the Bessel function
  J(u) = -(1/q) sum_{N(t) = u} theta(t) psi(tr t) runs over F_{q^2}^x;
* for c != 0, g = n(a/c) diag(-det/c, -c) w n(d/c).

So every matrix is a row phase times a row-reindexed W (for c != 0) or
identity (for c = 0) times a column phase, and ``CuspidalModel.mats``
builds a whole batch by index arithmetic on unit logs.  Each build
checks its traces on all of GL2(q) (``finitegrp.gl2_table``) against
the character values per class (``chars.char_values``): the
character table is what the matrices are compared with, never an input
to them (Piatetski-Shapiro, Complex Representations of GL(2, K) for
Finite Fields K, 1983; Bushnell-Henniart, The Local Langlands Conjecture
for GL(2), 2006).

``WhittakerSpace``, the induced signed-permutation model of dimension
(q^2-1)(q-1) that the Kirillov model replaced, stays as the reference
the tests project onto the cuspidal isotypic part and compare with, and
as a constructor the benchmark tracer (``perfbench/tracer.py``) wraps;
no production path builds it.

Tensor models pair two cuspidal models, optionally twisted by a power of
the determinant character on the first factor; they serve as the oracle
for everything the character formulas cannot see: constituent splitting,
twist intertwiners, and traces of twist operators on fixed subspaces.
The average of a model over a subgroup R is the projector onto its fixed
subspace.  ``pair_averages`` forms it for many factor pairs at once: it
builds each factor's stack of matrices over R once, and the averages of
one first factor against every second factor are one matrix product of
shapes (n, |R|) and (|R|, K n), n = (q-1)^2.  Every average is certified
as an orthogonal projector (``projector_residual`` below PROJECTOR_TOL)
before a trace is read, so a model whose traces are right but which is
not a representation is refused, and a fixed rank is the certified trace
of a certified projector.  Tensor and constituent matrices are computed
on demand and never stored (only the small cuspidal matrices of single
elements, which every model of a field shares, are cached); a tensor model
keeps each average it forms, read-only, for its constituents to compress.

Commutants and intertwiners are kernels of linear systems X A = B X over
a generating set.  The stacked system is never formed: its Hermitian Gram
matrix is accumulated one generator at a time (one Kronecker product
each, valid because every generator matrix is checked to be unitary) and
its kernel is read from an eigendecomposition.  The commutant of a tensor
model is built factorwise: End_{SL2 x SL2}(V1 (x) V2) = End_{SL2}(V1) (x)
End_{SL2}(V2) (Serre, Linear Representations of Finite Groups, 3.2), each
factor a kernel of Gram side (q-1)^2 over the unipotent generators of
SL2, and the det-matched group adds one condition, for t = (diag(e, 1),
diag(e, 1)), on at most four coefficients.  Every nullity is certified
twice: by one spectral-gap rule shared by all kernels (an eigenvalue
between the null ones and the rest raises UncertifiedNullity instead of
being guessed), and, for the commutant behind a constituent split,
against the character norm <chi, chi> computed from the cuspidal models'
own traces.

The two constituents of a split are named intrinsically by a certified
rank: Plus has q-1 vectors fixed by the diagonal unipotent pairs
(v(u), v(u)), v(u) = [[1, 0], [u, 1]], and Minus has none.  The oracle
reads the character layer, never the reverse.
"""

from __future__ import annotations

import itertools

import numpy as np

from .finitegrp import (
    FqCtx, GL2Elem, GL22Elem, SubgroupR, gl2_classes, gl2_det, gl2_mul, gl2_table,
    gl22_rows, u_action, u_image,
)
from .chars import char_values, sigma_is_reducible, theta_eval
from .numerics import Refusal, certify_integer


class ProjectorRankMismatch(ArithmeticError, Refusal):
    """A cuspidal model's traces disagree with the cuspidal character."""


class NoIntertwiner(ArithmeticError, Refusal):
    """The twist equation has no nonzero solution."""


class NotNormalizing(ValueError):
    """The operator does not preserve the averaged subgroup projector."""


class UncertifiedNullity(ArithmeticError, Refusal):
    """A kernel dimension could not be certified: a generator matrix is not
    unitary, no spectral gap separates the null eigenvalues from the rest,
    the nullity disagrees with the character norm, or an average over a
    subgroup is not an orthogonal projector."""


_TOL = 1e-8

# The largest projector_residual an average may have.  The averages of the
# real models at q <= 9 stay below 1e-12.  Each eigenvalue of a Hermitian P
# with ||P^2 - P|| below it lies within about it of 0 or 1, so for n <= 64
# the trace is within the 1e-6 that _projector_rank allows of the rank.
PROJECTOR_TOL = 1e-8


def _require_unitary(U: np.ndarray, what: str) -> None:
    n = U.shape[0]
    if np.linalg.norm(U.conj().T @ U - np.eye(n)) > _TOL * n:
        raise UncertifiedNullity(f"{what} is not unitary")


def _gap_kernel(G: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the kernel of a positive semidefinite
    Hermitian G, certified by a spectral gap.

    With s = max(1, lambda_max), the eigenvectors with eigenvalue below
    _TOL * s span the kernel.  Any eigenvalue between that cut and
    sqrt(_TOL) * s leaves the nullity ambiguous and raises
    UncertifiedNullity."""
    vals, vecs = np.linalg.eigh(G)
    scale = max(1.0, vals[-1])
    null = vals < _TOL * scale
    if np.any(~null & (vals < np.sqrt(_TOL) * scale)):
        raise UncertifiedNullity(
            f"no spectral gap above the cut {_TOL * scale:.3g}: eigenvalues "
            f"{vals[~null][:3]} against lambda_max {vals[-1]:.3g}")
    return vecs[:, null]


def _nullspace(pairs) -> list[np.ndarray]:
    """Orthonormal basis of {vec(X) : X A = B X for every (A, B) in pairs},
    with vec stacking columns.

    The system stacks the blocks A^T (x) I - I (x) B.  For unitary A and B
    each block has block^H block = 2I - K - K^H with K = kron(conj(A), B),
    so the Gram matrix G of the stack costs one kron per pair and no
    matmul; the stack itself is never built.  Its kernel is certified by
    _gap_kernel; a non-unitary A or B raises UncertifiedNullity."""
    G = None
    for A, B in pairs:
        _require_unitary(A, "generator matrix")
        _require_unitary(B, "generator matrix")
        K = np.kron(A.conj(), B)
        if G is None:
            G = np.zeros_like(K)
        G -= K
        G -= K.conj().T
        G[np.diag_indices_from(G)] += 2.0
    return list(_gap_kernel(G).T)


def _frobenius(D: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each complex matrix of a stack, summed on its
    float view."""
    v = D.view(np.float64).reshape(*D.shape[:-2], -1)
    return np.sqrt(np.einsum("...i,...i->...", v, v))


def projector_residual(P: np.ndarray) -> np.ndarray:
    """max(||P - P^H||, ||P^2 - P||) in the Frobenius norm, per matrix of
    a stack of shape (..., n, n): zero exactly for orthogonal projectors."""
    return np.maximum(_frobenius(P - np.swapaxes(P, -1, -2).conj()),
                      _frobenius(P @ P - P))


def _certified(P: np.ndarray) -> np.ndarray:
    """P itself, a matrix or a stack of them, once each is certified as an
    orthogonal projector; otherwise UncertifiedNullity."""
    worst = float(np.max(projector_residual(P)))
    if not worst < PROJECTOR_TOL:
        raise UncertifiedNullity(
            f"an average is not an orthogonal projector: residual {worst:.3g} "
            f"above {PROJECTOR_TOL:g}")
    return P


def _projector_rank(P: np.ndarray) -> int:
    """The rank of a certified projector: its trace, certified to an
    integer."""
    return certify_integer(np.trace(P), tol=1e-6)


def _fixed_rank(model, R: SubgroupR) -> int:
    """dim of the R-fixed subspace of a model: the rank of its certified
    average over R."""
    return _projector_rank(model.average(R))


# -- the induced signed-permutation model (test reference) ------------------

class WhittakerSpace:
    """Function model induced from an additive character of the upper
    unitriangular subgroup, with right translation as signed permutations.

    The reference the tests compare the Kirillov model with; no production
    path builds it."""

    def __init__(self, ctx: FqCtx):
        self.ctx = ctx
        reps = []
        index = {}
        for c in ctx.fq_elements:
            for d in ctx.fq_elements:
                if c == 0 and d == 0:
                    continue
                for delta in ctx.fq_units:
                    if c != 0:
                        rep = GL2Elem(0, ctx.neg(ctx.mul(delta, ctx.inv(c))), c, d)
                    else:
                        rep = GL2Elem(ctx.mul(delta, ctx.inv(d)), 0, 0, d)
                    index[(c, d, delta)] = len(reps)
                    reps.append(rep)
        self.reps = reps
        self.index = index
        self.dim = len(reps)
        self._action_cache: dict[GL2Elem, tuple[np.ndarray, np.ndarray]] = {}

    def _coset_key(self, g: GL2Elem):
        return (g.c, g.d, gl2_det(self.ctx, g))

    def action(self, g: GL2Elem) -> tuple[np.ndarray, np.ndarray]:
        """Right translation by g: (perm, phase) with
        (M v)[r] = phase[r] * v[perm[r]].

        Row r goes to the coset of x = r g, and x = [[1, t], [0, 1]] reps[j]
        with phase psi(t).  A representative with c != 0 has a = 0 and one
        with c = 0 has b = 0, so t = x.a / x.c, or x.b / x.d when x.c = 0."""
        hit = self._action_cache.get(g)
        if hit is not None:
            return hit
        ctx = self.ctx
        perm = np.empty(self.dim, dtype=np.int64)
        phase = np.empty(self.dim, dtype=np.complex128)
        for i, r in enumerate(self.reps):
            x = gl2_mul(ctx, r, g)
            perm[i] = self.index[self._coset_key(x)]
            if x.c:
                t = ctx.mul(x.a, ctx.inv(x.c))
            else:
                t = ctx.mul(x.b, ctx.inv(x.d))
            phase[i] = ctx.psi(t)
        out = (perm, phase)
        self._action_cache[g] = out
        return out

    def apply(self, g: GL2Elem, v: np.ndarray) -> np.ndarray:
        """Right translation by g applied to the columns of v."""
        perm, phase = self.action(g)
        return phase[:, None] * v[perm]


def _unit_log(ctx: FqCtx, codes: np.ndarray) -> np.ndarray:
    """log base fq_gen of F_q codes; zero codes give -1 and must be masked."""
    return (codes - 1) // (ctx.q + 1)


def _weyl(ctx: FqCtx, k: int) -> np.ndarray:
    """rho(w) in the Kirillov model: W[x, y] = J(xy) theta(y)^-1 on unit
    logs x, y, with J the Bessel function of theta over F_{q^2}^x."""
    m = ctx.q - 1
    J = np.zeros(m, dtype=np.complex128)
    for t in range(1, ctx.q2):
        norm = ctx.power(t, ctx.q + 1)
        J[_unit_log(ctx, norm)] += (theta_eval(ctx, k, t)
                                    * ctx.psi(ctx.add(t, ctx.frob_q(t))))
    J /= -ctx.q
    theta = np.array([theta_eval(ctx, k, u) for u in ctx.fq_units])
    x = np.arange(m)
    return J[(x[:, None] + x) % m] * theta.conj()


class CuspidalModel:
    """Unitary (q-1) x (q-1) matrices for one cuspidal exponent: the
    Kirillov model on functions on F_q^x, in the basis of point masses."""

    def __init__(self, ctx: FqCtx, k: int):
        self.ctx = ctx
        self.k = k % (ctx.q2 - 1)
        self.dim = m = ctx.q - 1
        self.basis = np.eye(m)
        self._theta = np.array([theta_eval(ctx, self.k, u) for u in ctx.fq_units])
        # psi on the unit logs, and psi(0) = 1 at index m
        self._psi = np.array([ctx.psi(u) for u in ctx.fq_units] + [1.0])
        # c = 0 elements re-index the identity, c != 0 ones re-index W
        self._cores = np.stack([np.eye(m), _weyl(ctx, self.k)])
        self._neg_one = int(_unit_log(ctx, ctx.neg(ctx.one)))
        # Zech logs log(1 + x); the entry at x = -1 is never read
        self._zech = np.array([_unit_log(ctx, ctx.add(ctx.one, u)) % m
                               for u in ctx.fq_units])
        self._cache: dict[GL2Elem, np.ndarray] = {}
        self.verify_character()

    def _psi_rows(self, zero: np.ndarray, log: np.ndarray) -> np.ndarray:
        """psi(t x) for every unit x, one row per t given by its log, or by
        its zero flag."""
        m = self.dim
        idx = (log[:, None] + np.arange(m)) % m
        idx[zero] = m
        return self._psi[idx]

    def _factors(self, elems) -> tuple:
        """(rows, pick, cols) of a batch of GL2 elements, or of an (N, 4)
        code array: the matrix of element r is rows[r, :, None] *
        self._cores[pick][r] * cols[r, None, :].

        [[a, b], [0, d]] maps row x to column x + log(a/d) with phase
        theta(d) psi(bx/d).  For c != 0 row x of W[x + log(det/c^2)] is
        scaled by theta(-c) psi(ax/c) and column y by psi(dy/c)."""
        ctx, m = self.ctx, self.dim
        n = len(elems)
        codes = (elems if isinstance(elems, np.ndarray) else
                 np.fromiter(itertools.chain.from_iterable(elems), np.int64, 4 * n))
        a, b, c, d = codes.reshape(n, 4).T.astype(np.int64)
        la, lb, lc, ld = (_unit_log(ctx, v) for v in (a, b, c, d))
        # det = ad + (-bc) = ad (1 + (-bc)/ad) when neither product is zero
        lad, lbc = la + ld, lb + lc + self._neg_one
        ldet = np.where((b == 0) | (c == 0), lad,
                        np.where((a == 0) | (d == 0), lbc,
                                 lad + self._zech[(lbc - lad) % m]))
        up = c == 0
        row_theta = self._theta[np.where(up, ld, lc + self._neg_one) % m]
        rows = row_theta[:, None] * self._psi_rows(
            np.where(up, b == 0, a == 0), np.where(up, lb - ld, la - lc))
        cols = self._psi_rows(up | (d == 0), ld - lc)
        shift = np.where(up, la - ld, ldet - 2 * lc)
        pick = (np.where(up, 0, 1)[:, None], (shift[:, None] + np.arange(m)) % m)
        return rows, pick, cols

    def mats(self, elems) -> np.ndarray:
        """The matrices of a batch, shape (N, q-1, q-1)."""
        rows, pick, cols = self._factors(elems)
        return rows[:, :, None] * self._cores[pick] * cols[:, None, :]

    def traces(self, elems) -> np.ndarray:
        """The traces of a batch, read from the diagonals alone."""
        rows, pick, cols = self._factors(elems)
        return (rows * self._cores[pick + (np.arange(self.dim),)] * cols).sum(axis=1)

    def mat(self, g: GL2Elem) -> np.ndarray:
        hit = self._cache.get(g)
        if hit is None:
            hit = self._cache[g] = self.mats([g])[0]
        return hit

    def char(self, g: GL2Elem) -> complex:
        return complex(np.trace(self.mat(g)))

    def verify_character(self) -> None:
        """Compare the traces of the whole of GL2(q) with the character
        table, read per class; the batch is not cached."""
        table = gl2_table(self.ctx)
        got = self.traces(table.codes)
        want = char_values(self.ctx, self.k)[table.cls]
        err = np.abs(got - want)
        if err.max() > 1e-7:
            i = int(np.argmax(err))
            raise ProjectorRankMismatch(
                f"character mismatch at {GL2Elem(*table.codes[i].tolist())}: "
                f"{got[i]} vs {want[i]}")


# The Whittaker-space cache of the projector build this module no longer
# has; kept, always empty, for callers that clear it before a cold build.
_SPACE_CACHE: dict[tuple, WhittakerSpace] = {}
_MODEL_CACHE: dict[tuple, CuspidalModel] = {}


def cuspidal_model(ctx: FqCtx, k: int) -> CuspidalModel:
    key = (ctx.p, ctx.f, k % (ctx.q2 - 1))
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = CuspidalModel(ctx, k)
    return _MODEL_CACHE[key]


# -- tensor models -----------------------------------------------------------

def _det_phase(ctx: FqCtx, codes: np.ndarray, lam_exp: int) -> np.ndarray:
    """det^lam of each (N, 4) code row: the determinant fq_gen^j has the
    gl2_classes det digit 1 + j."""
    q = ctx.q
    j = gl2_classes(ctx, codes) // 2 % q - 1
    return np.exp(2j * np.pi * lam_exp * j / (q - 1))


def pair_averages(ctx: FqCtx, R: SubgroupR, ks1, ks2, lam_exp: int = 0):
    """Yield ((k1, k2), P) for every k1 in ks1 (outermost) and k2 in ks2:
    P is the mean over x in R of det^lam(x1) m_k1(x1) (x) m_k2(x2), each
    certified as an orthogonal projector before it is yielded.

    The second factors' stacks over R are built once and held together;
    the first factors' are built one at a time, each scaled row by row by
    det^lam / |R|.  With A the (|R|, n) flattened first stack and B the
    (|R|, K n) second stacks, C = A^T B holds in row (i, j) and column
    (k2, k, l) the (i, k), (j, l) entry of the average for (k1, k2)."""
    m = ctx.q - 1
    n, first, second = m * m, R.rows[:, :4], R.rows[:, 4:]
    weight = _det_phase(ctx, first, lam_exp) / len(R)
    B = np.empty((len(R), len(ks2), m, m), dtype=np.complex128)
    for i, k2 in enumerate(ks2):
        B[:, i] = cuspidal_model(ctx, k2).mats(second)
    B = B.reshape(len(R), -1)
    for k1 in ks1:
        A = weight[:, None, None] * cuspidal_model(ctx, k1).mats(first)
        C = A.reshape(len(R), n).T @ B
        P = C.reshape(m, m, len(ks2), m, m).transpose(2, 0, 3, 1, 4)
        yield from zip(((k1, k2) for k2 in ks2),
                       _certified(P.reshape(len(ks2), n, n)))


def fixed_ranks(ctx: FqCtx, R: SubgroupR, ks) -> dict:
    """dim of the R-fixed subspace of the tensor model (k1, k2) for every
    pair of exponents in ks, from one pass of pair_averages."""
    return {pair: _projector_rank(P) for pair, P in pair_averages(ctx, R, ks, ks)}


class TensorModel:
    """Matrices for a pair of cuspidal models twisted by det^lam on the
    first factor.  Defined on arbitrary GL2 pairs; restriction to the
    det-matched subgroup is what the labels in chars describe."""

    def __init__(self, ctx: FqCtx, k1: int, k2: int, lam_exp: int = 0):
        self.ctx = ctx
        self.k1 = k1 % (ctx.q2 - 1)
        self.k2 = k2 % (ctx.q2 - 1)
        self.lam_exp = lam_exp % (ctx.q - 1) if ctx.q > 2 else 0
        self.m1 = cuspidal_model(ctx, k1)
        self.m2 = cuspidal_model(ctx, k2)
        self.dim = self.m1.dim * self.m2.dim
        self._averages: dict[SubgroupR, np.ndarray] = {}

    def mat(self, x: GL22Elem) -> np.ndarray:
        phase = _det_phase(self.ctx, np.array([x.first]), self.lam_exp)[0]
        return phase * np.kron(self.m1.mat(x.first), self.m2.mat(x.second))

    def average(self, R: SubgroupR) -> np.ndarray:
        """Mean of the matrices over R, the certified projector onto the
        R-fixed subspace: the one-pair case of pair_averages, formed once
        per group."""
        if R not in self._averages:
            [(_, P)] = pair_averages(self.ctx, R, [self.k1], [self.k2], self.lam_exp)
            P.flags.writeable = False
            self._averages[R] = P
        return self._averages[R]

    def char(self, x: GL22Elem) -> complex:
        return complex(np.trace(self.mat(x)))

    def fixed_rank(self, R: SubgroupR) -> int:
        return _fixed_rank(self, R)

    def fixed_rank_twisted(self, R: SubgroupR) -> int:
        return _fixed_rank(self, u_image(self.ctx, R))


def _sl2_generators(ctx: FqCtx) -> list[GL2Elem]:
    """n(u) and v(u) for every unit u, which generate SL2(q)."""
    one = ctx.one
    return [g for u in ctx.fq_units
            for g in (GL2Elem(one, u, 0, one), GL2Elem(one, 0, u, one))]


def _t_generator(ctx: FqCtx) -> GL2Elem:
    """diag(e, 1) for the field generator e: the pair (t, t) and SL2 x SL2
    generate the det-matched group."""
    return GL2Elem(ctx.fq_gen, 0, 0, ctx.one)


def _gl22_generators(ctx: FqCtx) -> list[GL22Elem]:
    ident = GL2Elem(ctx.one, 0, 0, ctx.one)
    sl2 = _sl2_generators(ctx)
    t = _t_generator(ctx)
    return ([GL22Elem(g, ident) for g in sl2] + [GL22Elem(ident, g) for g in sl2]
            + [GL22Elem(t, t)])


def _factor_commutant(m: CuspidalModel) -> np.ndarray:
    """Orthonormal basis of End_{SL2}(m), shape (d, q-1, q-1), d = 1 or 2:
    the gap-certified kernel over the unipotent generators of SL2."""
    n = m.dim
    null = _nullspace([(A, A) for A in m.mats(_sl2_generators(m.ctx))])
    return np.array([v.reshape((n, n), order="F") for v in null]).reshape(-1, n, n)


def _conjugation_action(basis: np.ndarray, T: np.ndarray) -> np.ndarray:
    """M[k, i] = <basis_k, T basis_i T^H>: conjugation by the unitary T on
    the span of an orthonormal stack of matrices.  M is unitary exactly
    when T preserves the span."""
    return np.einsum("kab,iab->ki", basis.conj(), T @ basis @ T.conj().T)


def commutant_dim(tm: TensorModel) -> tuple[int, list[np.ndarray]]:
    """Dimension and orthonormal basis of the algebra commuting with the
    det-matched restriction.

    The SL2 x SL2 commutant is C1 (x) C2 with C_i = End_{SL2}(m_i).
    Conjugation by t = (diag(e, 1), diag(e, 1)) acts on it by M1 (x) M2,
    and the commutant is its fixed space: the gap-certified kernel of
    (M - I)^H (M - I), on at most four coefficients."""
    t = _t_generator(tm.ctx)
    C1, C2 = (_factor_commutant(m) for m in (tm.m1, tm.m2))
    M = np.kron(_conjugation_action(C1, tm.m1.mat(t)),
                _conjugation_action(C2, tm.m2.mat(t)))
    _require_unitary(M, "conjugation by t on the factor commutants")
    G = 2 * np.eye(len(M)) - M - M.conj().T
    coeffs = _gap_kernel(G).T.reshape(-1, len(C1), len(C2))
    n = tm.dim
    mats = [np.einsum("ij,iab,jcd->acbd", c, C1, C2).reshape(n, n)
            for c in coeffs]
    return len(mats), mats


def _character_norm(tm: TensorModel) -> int:
    """<chi, chi> of the det-matched restriction, read from the cuspidal
    models' own traces: sum_d S1(d) S2(d) / |H| with S_i(d) the sum of
    |tr m_i(g)|^2 over g in GL2(q) with det g = d.  The det twist has
    modulus one and drops out."""
    ctx = tm.ctx
    table = gl2_table(ctx)
    S1, S2 = (np.bincount(table.det, weights=abs(m.traces(table.codes)) ** 2)
              for m in (tm.m1, tm.m2))
    total = float(S1 @ S2)
    q = ctx.q
    order = ((q * q - 1) * (q * q - q)) ** 2 // (q - 1)
    return certify_integer(total / order, tol=1e-6)


class ConstituentModel:
    """One irreducible summand of a reducible tensor model, carried by an
    orthonormal basis of an isotypic eigenspace of the commutant."""

    def __init__(self, tm: TensorModel, basis: np.ndarray, tag: str):
        self.tm = tm
        self.ctx = tm.ctx
        self.basis = basis
        self.tag = tag
        self.dim = basis.shape[1]

    def mat(self, x: GL22Elem) -> np.ndarray:
        return self.basis.conj().T @ self.tm.mat(x) @ self.basis

    def average(self, R: SubgroupR) -> np.ndarray:
        return _certified(self.basis.conj().T @ self.tm.average(R) @ self.basis)

    def char(self, x: GL22Elem) -> complex:
        return complex(np.trace(self.mat(x)))

    def fixed_rank(self, R: SubgroupR) -> int:
        return _fixed_rank(self, R)


# Generic coefficients of the two commutant basis elements in the Hermitian
# H whose eigenspaces are the constituents: the first four standard normal
# draws of numpy's default_rng(0), written out so no process imports
# numpy.random for them.
_COMMUTANT_COEFFS = (0.1257302210933933 - 0.1321048632913019j,
                     0.6404226504432821 + 0.10490011715303971j)


def decompose(tm: TensorModel) -> list[ConstituentModel]:
    """Split a reducible det-matched restriction into its two constituents.

    Requires a two-dimensional commutant (q odd, both factors with split
    restriction); raises ValueError otherwise.  The commutant nullity must
    equal the character norm <chi, chi>, or UncertifiedNullity is raised.
    Plus and Minus are named by their certified ranks q-1 and 0 on the
    diagonal unipotents N = {(n(u), n(u))}; other ranks raise
    UncertifiedNullity."""
    ctx = tm.ctx
    dim_c, mats = commutant_dim(tm)
    norm = _character_norm(tm)
    if dim_c != norm:
        raise UncertifiedNullity(
            f"commutant nullity {dim_c} disagrees with <chi, chi> = {norm}")
    if dim_c == 1:
        raise ValueError("restriction is irreducible")
    if dim_c != 2:
        raise ValueError(f"unexpected commutant dimension {dim_c}")
    H = np.zeros((tm.dim, tm.dim), dtype=np.complex128)
    for c, X in zip(_COMMUTANT_COEFFS, mats):
        H += c * X + np.conj(c) * X.conj().T
    vals, vecs = np.linalg.eigh(H)
    gaps = np.diff(vals)
    cut = int(np.argmax(gaps)) + 1
    if cut == 0 or cut == tm.dim:
        raise ValueError("eigenvalue clustering failed")
    parts = [vecs[:, :cut], vecs[:, cut:]]
    if parts[0].shape[1] != parts[1].shape[1]:
        raise ValueError("constituents are not equidimensional")
    projs = [B @ B.conj().T for B in parts]
    for A in map(tm.mat, _gl22_generators(ctx)):
        if any(np.linalg.norm(P @ A - A @ P) > 1e-6 * tm.dim for P in projs):
            raise ValueError("cluster projector fails to commute")
    # the swap element with unequal determinants exchanges the two summands:
    # D P0 D^-1 = P1, certified as D P0 = P1 D (D is unitary, so the norms
    # agree) without an inverse
    sw = GL22Elem(GL2Elem(ctx.fq_gen, 0, 0, ctx.one),
                  GL2Elem(ctx.one, 0, 0, ctx.one))
    D = tm.mat(sw)
    if np.linalg.norm(D @ projs[0] - projs[1] @ D) > 1e-6 * tm.dim:
        raise ValueError("outer element does not swap the constituents")
    n = [GL2Elem(ctx.one, 0, u, ctx.one) for u in ctx.fq_elements]
    N = SubgroupR(ctx, gl22_rows([GL22Elem(x, x) for x in n]), "DiagUnip")
    out = [ConstituentModel(tm, B, "") for B in parts]
    ranks = [c.fixed_rank(N) for c in out]
    if sorted(ranks) != [0, ctx.q - 1]:
        raise UncertifiedNullity(
            f"constituent ranks {ranks} on the diagonal unipotents, "
            f"expected q-1 = {ctx.q - 1} and 0")
    if ranks[0] == 0:
        out.reverse()
    out[0].tag, out[1].tag = "Plus", "Minus"
    return out


def model_for_sigma(ctx: FqCtx, sigma):
    """Oracle handle for a label: the tensor model for Full, or the matching
    constituent of a fresh decomposition for Plus/Minus."""
    tm = TensorModel(ctx, sigma.k1, sigma.k2)
    if sigma.constituent == "Full":
        return tm
    if not sigma_is_reducible(ctx, sigma):
        raise ValueError("label has no constituents")
    return {c.tag: c for c in decompose(tm)}[sigma.constituent]


# -- twist operators ----------------------------------------------------------

def swap_operator(tm: TensorModel) -> np.ndarray:
    """Perfect shuffle exchanging the tensor factors (equal dims required)."""
    m, n = tm.m1.dim, tm.m2.dim
    if m != n:
        raise ValueError("swap needs equidimensional factors")
    S = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            S[j * m + i, i * n + j] = 1.0
    return S


def ww_operator(tm: TensorModel) -> np.ndarray:
    """The doubled Weyl element acting through both factors."""
    ctx = tm.ctx
    w = GL2Elem(0, ctx.one, ctx.neg(ctx.one), 0)
    return np.kron(tm.m1.mat(w), tm.m2.mat(w))


def u_intertwiner(tm: TensorModel) -> tuple[int, list[np.ndarray]]:
    """Solve T rep(x) = rep(u(x)) T over the det-matched generators.

    Returns (nullity, basis).  Nullity 0 raises NoIntertwiner; nullity 1
    returns the involutive normalization (T^2 = 1, sign a convention);
    nullity 2 signals a reducible self-twisted restriction and returns the
    raw basis."""
    ctx = tm.ctx
    n = tm.dim
    null = _nullspace([(tm.mat(x), tm.mat(u_action(ctx, x)))
                       for x in _gl22_generators(ctx)])
    if not null:
        raise NoIntertwiner("no twist intertwiner: label is not self-twisted")
    mats = [v.reshape((n, n), order="F") for v in null]
    if len(mats) == 1:
        T = mats[0]
        c = np.trace(T @ T) / n
        if abs(c) < _TOL:
            raise NoIntertwiner("intertwiner squares to zero")
        if np.linalg.norm(T @ T - c * np.eye(n)) > 1e-6 * n:
            raise NoIntertwiner("intertwiner square is not scalar")
        T = T / np.sqrt(c)
        # fix the sign so the first sizable entry has positive real part
        flat = T.ravel()
        idx = int(np.argmax(np.abs(flat)))
        if flat[idx].real < 0 or (abs(flat[idx].real) < _TOL and flat[idx].imag < 0):
            T = -T
        return 1, [T]
    return len(mats), mats


def twisted_trace(P: np.ndarray, operator: np.ndarray) -> int:
    """Trace of a twist operator compressed to the R-fixed subspace of a
    tensor or constituent model, given its projector P = model.average(R).

    The operator S must normalize P: ||S P - P S||, which equals ||S P S^-1
    - P|| for the unitary S every caller passes, within the bound; else the
    compression is meaningless and NotNormalizing is raised."""
    if np.linalg.norm(operator @ P - P @ operator) > 1e-6 * max(1, P.shape[0]):
        raise NotNormalizing("operator does not normalize the fixed projector")
    return certify_integer(np.trace(operator @ P), tol=1e-6)
