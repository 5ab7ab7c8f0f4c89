"""Matrix models for cuspidal representations and their det-matched tensors.

The cuspidal model lives inside the space of functions on GL2(q)
transforming under the upper unitriangular group by a fixed nontrivial
additive character.  Right translation acts there by signed permutations
(a coset permutation plus a root-of-unity phase per row), the isotypic
projector for a cuspidal character has rank q-1, and compressing right
translation to its range gives explicit (q-1) x (q-1) unitary matrices.

Tensor models pair two cuspidal models, optionally twisted by a power of
the determinant character on the first factor; they serve as the oracle
for everything the character formulas cannot see: constituent splitting,
twist intertwiners, and traces of twist operators on fixed subspaces.
Their characters, and so their fixed ranks, are products of the two
factors' traces.  Tensor and constituent matrices are computed on demand
and never stored: only the Whittaker actions of the elements used and the
small cuspidal matrices, which every model of a field shares, are cached.

Commutants and intertwiners are kernels of linear systems X A = B X over
a generating set.  The stacked system is never formed: its Hermitian Gram
matrix is accumulated one generator at a time (one Kronecker product
each, valid because every generator matrix is checked to be unitary) and
its kernel is read from an eigendecomposition.  The nullity is certified
twice: by a spectral gap between the null eigenvalues and the rest (an
ambiguous eigenvalue raises UncertifiedNullity instead of being guessed),
and, for the commutant behind a constituent split, against the character
norm <chi, chi> computed from the cuspidal models' own traces.

The two constituents of a split are named intrinsically by a certified
rank: Plus has q-1 vectors fixed by the diagonal unipotent pairs
(n(u), n(u)), n(u) = [[1, 0], [u, 1]], and Minus has none.  The oracle
reads the character layer, never the reverse.
"""

from __future__ import annotations

import numpy as np

from .finitegrp import (
    FqCtx, GL2Elem, GL22Elem, SubgroupR, enumerate_gl2, gl2_det, gl2_mul,
    u_action,
)
from .chars import cuspidal_char, sigma_is_reducible
from .numerics import certify_integer


class ProjectorRankMismatch(ArithmeticError):
    """Isotypic projector trace disagrees with the multiplicity-one rank."""


class NoIntertwiner(ArithmeticError):
    """The twist equation has no nonzero solution."""


class NotNormalizing(ValueError):
    """The operator does not preserve the averaged subgroup projector."""


class UncertifiedNullity(ArithmeticError):
    """A kernel dimension could not be certified: a generator matrix is not
    unitary, no spectral gap separates the null eigenvalues from the rest,
    or the nullity disagrees with the character norm."""


_TOL = 1e-8


def _nullspace(pairs) -> list[np.ndarray]:
    """Orthonormal basis of {vec(X) : X A = B X for every (A, B) in pairs},
    with vec stacking columns.

    The system stacks the blocks A^T (x) I - I (x) B.  For unitary A and B
    each block has block^H block = 2I - K - K^H with K = kron(conj(A), B),
    so the Gram matrix G of the stack costs one kron per pair and no
    matmul; the stack itself is never built.  With s = max(1, lambda_max),
    the eigenvectors of G with eigenvalue below _TOL * s span the kernel.
    Any eigenvalue between that cut and sqrt(_TOL) * s leaves the nullity
    ambiguous and raises UncertifiedNullity, as does a non-unitary A or B."""
    G = None
    for A, B in pairs:
        n = A.shape[0]
        for U in (A, B):
            if np.linalg.norm(U.conj().T @ U - np.eye(n)) > _TOL * n:
                raise UncertifiedNullity("generator matrix is not unitary")
        K = np.kron(A.conj(), B)
        if G is None:
            G = np.zeros_like(K)
        G -= K
        G -= K.conj().T
        G[np.diag_indices_from(G)] += 2.0
    vals, vecs = np.linalg.eigh(G)
    scale = max(1.0, vals[-1])
    null = vals < _TOL * scale
    if np.any(~null & (vals < np.sqrt(_TOL) * scale)):
        raise UncertifiedNullity(
            f"no spectral gap above the cut {_TOL * scale:.3g}: eigenvalues "
            f"{vals[~null][:3]} against lambda_max {vals[-1]:.3g}")
    return list(vecs[:, null].T)


def _fixed_rank(model, R: SubgroupR, twisted: bool = False) -> int:
    """dim of the R-fixed (or u-twisted R-fixed) subspace of a model: the
    average of its character over R, certified to an integer."""
    elems = [u_action(model.ctx, r) for r in R] if twisted else R
    return certify_integer(sum(model.char(x) for x in elems) / len(R), tol=1e-6)


# -- the induced signed-permutation model -----------------------------------

class WhittakerSpace:
    """Function model induced from an additive character of the upper
    unitriangular subgroup, with right translation as signed permutations."""

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


class CuspidalModel:
    """Unitary (q-1) x (q-1) matrices for one cuspidal exponent."""

    def __init__(self, ctx: FqCtx, k: int):
        self.ctx = ctx
        self.k = k % (ctx.q2 - 1)
        self.space = _whittaker_space(ctx)
        self.dim = ctx.q - 1
        elems = enumerate_gl2(ctx)
        N = self.space.dim
        P = np.zeros((N, N), dtype=np.complex128)
        rows = np.arange(N)
        scale = (ctx.q - 1) / len(elems)
        for g in elems:
            coeff = scale * np.conj(cuspidal_char(ctx, self.k, g))
            if coeff != 0:
                perm, phase = self.space.action(g)
                np.add.at(P, (rows, perm), coeff * phase)
        if np.linalg.norm(P - P.conj().T) > _TOL * N:
            raise ProjectorRankMismatch("projector is not Hermitian")
        if np.linalg.norm(P @ P - P) > _TOL * N:
            raise ProjectorRankMismatch("projector is not idempotent")
        tr = certify_integer(np.trace(P), tol=1e-6)
        if tr != ctx.q - 1:
            raise ProjectorRankMismatch(
                f"isotypic rank {tr}, expected {ctx.q - 1}")
        vals, vecs = np.linalg.eigh(P)
        self.basis = vecs[:, vals > 0.5]
        self._cache: dict[GL2Elem, np.ndarray] = {}

    def mat(self, g: GL2Elem) -> np.ndarray:
        hit = self._cache.get(g)
        if hit is None:
            hit = self.basis.conj().T @ self.space.apply(g, self.basis)
            self._cache[g] = hit
        return hit

    def char(self, g: GL2Elem) -> complex:
        return complex(np.trace(self.mat(g)))

    def verify_character(self) -> None:
        for g in enumerate_gl2(self.ctx):
            want = cuspidal_char(self.ctx, self.k, g)
            if abs(self.char(g) - want) > 1e-7:
                raise ProjectorRankMismatch(
                    f"character mismatch at {g}: {self.char(g)} vs {want}")


_SPACE_CACHE: dict[tuple, WhittakerSpace] = {}
_MODEL_CACHE: dict[tuple, CuspidalModel] = {}


def _whittaker_space(ctx: FqCtx) -> WhittakerSpace:
    key = (ctx.p, ctx.f)
    if key not in _SPACE_CACHE:
        _SPACE_CACHE[key] = WhittakerSpace(ctx)
    return _SPACE_CACHE[key]


def cuspidal_model(ctx: FqCtx, k: int) -> CuspidalModel:
    key = (ctx.p, ctx.f, k % (ctx.q2 - 1))
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = CuspidalModel(ctx, k)
    return _MODEL_CACHE[key]


# -- tensor models -----------------------------------------------------------

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

    def _det_phase(self, g: GL2Elem) -> complex:
        if self.lam_exp == 0:
            return 1.0
        ctx = self.ctx
        det = ctx.sub(ctx.mul(g.a, g.d), ctx.mul(g.b, g.c))
        j = ctx.dlog(det) // (ctx.q + 1)
        return np.exp(2j * np.pi * self.lam_exp * j / (ctx.q - 1))

    def mat(self, x: GL22Elem) -> np.ndarray:
        return self._det_phase(x.first) * np.kron(
            self.m1.mat(x.first), self.m2.mat(x.second))

    def char(self, x: GL22Elem) -> complex:
        return complex(self._det_phase(x.first) * self.m1.char(x.first)
                       * self.m2.char(x.second))

    def fixed_rank(self, R: SubgroupR) -> int:
        return _fixed_rank(self, R)

    def fixed_rank_twisted(self, R: SubgroupR) -> int:
        return _fixed_rank(self, R, twisted=True)


def _gl22_generators(ctx: FqCtx) -> list[GL22Elem]:
    one = ctx.one
    ident = GL2Elem(one, 0, 0, one)
    gens = []
    for u in ctx.fq_units:
        gens.append(GL22Elem(GL2Elem(one, u, 0, one), ident))
        gens.append(GL22Elem(GL2Elem(one, 0, u, one), ident))
        gens.append(GL22Elem(ident, GL2Elem(one, u, 0, one)))
        gens.append(GL22Elem(ident, GL2Elem(one, 0, u, one)))
    g = ctx.fq_gen
    gens.append(GL22Elem(GL2Elem(g, 0, 0, one), GL2Elem(g, 0, 0, one)))
    return gens


def commutant_dim(tm: TensorModel) -> tuple[int, list[np.ndarray]]:
    """Dimension and basis of the algebra commuting with the det-matched
    restriction, from the gap-certified kernel over a generating set."""
    n = tm.dim
    null = _nullspace([(A, A) for A in map(tm.mat, _gl22_generators(tm.ctx))])
    mats = [v.reshape((n, n), order="F") for v in null]
    return len(mats), mats


def _character_norm(tm: TensorModel) -> int:
    """<chi, chi> of the det-matched restriction, read from the cuspidal
    models' own traces: sum_d S1(d) S2(d) / |H| with S_i(d) the sum of
    |tr m_i(g)|^2 over g in GL2(q) with det g = d.  The det twist has
    modulus one and drops out."""
    ctx = tm.ctx
    sums = []
    for m in (tm.m1, tm.m2):
        S: dict[int, float] = {}
        for g in enumerate_gl2(ctx):
            d = gl2_det(ctx, g)
            S[d] = S.get(d, 0.0) + abs(m.char(g)) ** 2
        sums.append(S)
    total = sum(s1 * sums[1][d] for d, s1 in sums[0].items())
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

    def char(self, x: GL22Elem) -> complex:
        return complex(np.trace(self.mat(x)))

    def fixed_rank(self, R: SubgroupR) -> int:
        return _fixed_rank(self, R)


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
    rng = np.random.default_rng(0)
    H = np.zeros((tm.dim, tm.dim), dtype=np.complex128)
    for X in mats:
        c = rng.standard_normal() + 1j * rng.standard_normal()
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
    # the swap element with unequal determinants exchanges the two summands
    sw = GL22Elem(GL2Elem(ctx.fq_gen, 0, 0, ctx.one),
                  GL2Elem(ctx.one, 0, 0, ctx.one))
    D = tm.mat(sw)
    if np.linalg.norm(D @ projs[0] @ np.linalg.inv(D) - projs[1]) > 1e-6 * tm.dim:
        raise ValueError("outer element does not swap the constituents")
    n = [GL2Elem(ctx.one, 0, u, ctx.one) for u in ctx.fq_elements]
    N = SubgroupR(ctx, [GL22Elem(x, x) for x in n], "DiagUnip")
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


def twisted_trace(model, operator: np.ndarray, R: SubgroupR) -> int:
    """Trace of a twist operator compressed to the R-fixed subspace of a
    tensor or constituent model.

    The projector onto that subspace is the average of the model's matrices
    over R.  The operator must normalize it; otherwise the compression is
    meaningless and NotNormalizing is raised."""
    P = np.zeros((model.dim, model.dim), dtype=np.complex128)
    for r in R:
        P += model.mat(r)
    P /= len(R)
    conj = operator @ P @ np.linalg.inv(operator)
    if np.linalg.norm(conj - P) > 1e-6 * max(1, P.shape[0]):
        raise NotNormalizing("operator does not normalize the fixed projector")
    return certify_integer(np.trace(operator @ P), tol=1e-6)
