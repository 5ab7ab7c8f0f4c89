"""Matrix-model oracle: the Kirillov model against the Whittaker-space
reference, tensors, constituents, intertwiners."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelvec.finitegrp import (
    GL2Elem, GL22Elem, build_field, enumerate_gl2, enumerate_gl22, gl2_det,
    gl2_mul, gl2_table, gl22_mul, gl22_rows, SubgroupR, subgroup_R, u_action,
)
from siegelvec.chars import (
    OracleRequired, SigmaLabel, cuspidal_classes, fixed_dim,
    sigma_is_reducible, split_restriction, theta_eval, twisted_trace_closed,
)
from siegelvec import models
from siegelvec.models import (
    ConstituentModel, CuspidalModel, NoIntertwiner, NotNormalizing,
    ProjectorRankMismatch, TensorModel, UncertifiedNullity, WhittakerSpace,
    commutant_dim, cuspidal_model, decompose, model_for_sigma, swap_operator,
    twisted_trace, u_intertwiner, ww_operator,
)
from siegelvec.cli import _standard_groups

from reference import cuspidal_char, full_gram_commutant, gl2_inv, tensor_average_ref

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
          9: (3, 2)}


def _dense(space, g):
    perm, phase = space.action(g)
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    M[np.arange(space.dim), perm] = phase
    return M


@pytest.mark.parametrize("p,f,dim", [(2, 1, 3), (3, 1, 16), (2, 2, 45), (5, 1, 96)])
def test_whittaker_dim(p, f, dim):
    ctx = build_field(p, f)
    assert WhittakerSpace(ctx).dim == dim == (ctx.q ** 2 - 1) * (ctx.q - 1)


def _action_reference(space, g):
    """Right translation by g the long way: u = (r g) reps[j]^-1 is upper
    unitriangular and the row's phase is psi of its corner."""
    ctx = space.ctx
    perm = np.empty(space.dim, dtype=np.int64)
    phase = np.empty(space.dim, dtype=np.complex128)
    for i, r in enumerate(space.reps):
        x = gl2_mul(ctx, r, g)
        j = space.index[space._coset_key(x)]
        u = gl2_mul(ctx, x, gl2_inv(ctx, space.reps[j]))
        assert (u.a, u.c, u.d) == (ctx.one, 0, ctx.one)
        perm[i] = j
        phase[i] = ctx.psi(u.b)
    return perm, phase


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_whittaker_action_matches_reference_bit_for_bit(p, f):
    ctx = build_field(p, f)
    space = WhittakerSpace(ctx)
    for g in enumerate_gl2(ctx):
        perm, phase = space.action(g)
        ref_perm, ref_phase = _action_reference(space, g)
        assert np.array_equal(perm, ref_perm)
        assert phase.tobytes() == ref_phase.tobytes()


def test_whittaker_action_is_homomorphism():
    ctx = build_field(3, 1)
    space = WhittakerSpace(ctx)
    elems = enumerate_gl2(ctx)
    for g in elems[5::17]:
        for h in elems[3::13]:
            gh = gl2_mul(ctx, g, h)
            assert np.allclose(_dense(space, g) @ _dense(space, h),
                               _dense(space, gh), atol=1e-10)


# -- the Whittaker-space reference ---------------------------------------------

@functools.cache
def _space(ctx):
    return WhittakerSpace(ctx)


def _whittaker_model(ctx, k):
    """The cuspidal model the long way: the isotypic projector of the
    character on the Whittaker space, built from cuspidal_char, and an
    orthonormal basis of its rank-(q-1) range by eigh.  Returns the space
    and the basis; g acts by basis^H space.apply(g, basis)."""
    space = _space(ctx)
    elems = enumerate_gl2(ctx)
    N = space.dim
    P = np.zeros((N, N), dtype=np.complex128)
    rows = np.arange(N)
    scale = (ctx.q - 1) / len(elems)
    for g in elems:
        coeff = scale * np.conj(cuspidal_char(ctx, k, g))
        if coeff != 0:
            perm, phase = space.action(g)
            np.add.at(P, (rows, perm), coeff * phase)
    assert np.linalg.norm(P - P.conj().T) < 1e-8 * N
    assert np.linalg.norm(P @ P - P) < 1e-8 * N
    assert abs(np.trace(P) - (ctx.q - 1)) < 1e-6
    vals, vecs = np.linalg.eigh(P)
    return space, vecs[:, vals > 0.5]


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_kirillov_traces_match_the_whittaker_reference(q):
    ctx = build_field(*FIELDS[q])
    elems = enumerate_gl2(ctx)
    for k in cuspidal_classes(ctx):
        space, B = _whittaker_model(ctx, k)
        assert B.shape == (space.dim, ctx.q - 1)
        want = np.array([np.vdot(B, space.apply(g, B)) for g in elems])
        got = np.trace(CuspidalModel(ctx, k).mats(elems), axis1=1, axis2=2)
        assert np.abs(got - want).max() < 1e-9


# -- the Kirillov model ------------------------------------------------------

def _gl2_in_cell(ctx, lower: bool):
    """Elements of one Bruhat cell: the Borel (c = 0) or B w B (c != 0)."""
    field = st.sampled_from(ctx.fq_elements)
    units = st.sampled_from(ctx.fq_units)
    if not lower:
        return st.builds(lambda a, b, d: GL2Elem(a, b, 0, d), units, field, units)
    return st.builds(GL2Elem, field, field, units, field).filter(
        lambda g: gl2_det(ctx, g) != 0)


@pytest.mark.parametrize("cells", [(False, False), (False, True),
                                   (True, False), (True, True)],
                         ids=["BB", "BW", "WB", "WW"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), q=st.sampled_from([3, 4, 5, 7, 8, 9]))
def test_mats_is_multiplicative_and_unitary(cells, data, q):
    ctx = build_field(*FIELDS[q])
    m = cuspidal_model(ctx, data.draw(st.sampled_from(cuspidal_classes(ctx))))
    g, h = (data.draw(_gl2_in_cell(ctx, lower)) for lower in cells)
    G, H, GH = m.mats([g, h, gl2_mul(ctx, g, h)])
    assert np.allclose(G @ H, GH, atol=1e-9)
    for X in (G, H):
        assert np.allclose(X.conj().T @ X, np.eye(m.dim), atol=1e-9)
    assert np.array_equal(m.mat(g), G)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_weyl_with_theta_in_place_of_its_inverse_is_refused(monkeypatch, q):
    # J(xy) theta(y) in place of J(xy) theta(y)^-1 differs exactly when
    # theta is not real on F_q^x, that is when q-1 does not divide 2k: never
    # at q = 2 or 3, for some classes at every larger q
    ctx = build_field(*FIELDS[q])
    real = models._weyl

    def wrong(ctx, k):
        theta = np.array([theta_eval(ctx, k, u) for u in ctx.fq_units])
        return real(ctx, k) * theta ** 2

    monkeypatch.setattr(models, "_weyl", wrong)
    refused = []
    for k in cuspidal_classes(ctx):
        if 2 * k % (ctx.q - 1):
            with pytest.raises(ProjectorRankMismatch):
                CuspidalModel(ctx, k)
            refused.append(k)
        else:
            CuspidalModel(ctx, k)
    assert bool(refused) == (q > 3)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_diagonal_traces_match_the_full_matrices(q):
    # verify_character reads only the diagonals; they must trace what mats
    # multiplies out, on every element of GL2(q)
    ctx = build_field(*FIELDS[q])
    codes = gl2_table(ctx).codes
    for k in cuspidal_classes(ctx):
        m = cuspidal_model(ctx, k)
        want = np.trace(m.mats(codes), axis1=1, axis2=2)
        assert np.abs(m.traces(codes) - want).max() < 1e-12


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2)])
def test_cuspidal_model_characters(p, f):
    ctx = build_field(p, f)
    for k in cuspidal_classes(ctx):
        m = cuspidal_model(ctx, k)
        assert m.basis.shape[1] == ctx.q - 1
        m.verify_character()


def test_cuspidal_model_q5_single_class():
    ctx = build_field(5, 1)
    m = cuspidal_model(ctx, 2)
    m.verify_character()


def test_model_homomorphism_and_unitarity():
    ctx = build_field(3, 1)
    m = cuspidal_model(ctx, 1)
    elems = enumerate_gl2(ctx)
    for g in elems[::9]:
        Mg = m.mat(g)
        assert np.allclose(Mg.conj().T @ Mg, np.eye(2), atol=1e-9)
        for h in elems[::15]:
            assert np.allclose(Mg @ m.mat(h), m.mat(gl2_mul(ctx, g, h)),
                               atol=1e-9)


# -- tensor models ------------------------------------------------------------

def test_tensor_char_multiplicativity():
    ctx = build_field(3, 1)
    tm = TensorModel(ctx, 1, 2)
    for x in enumerate_gl22(ctx)[::41]:
        want = cuspidal_char(ctx, 1, x.first) * \
            cuspidal_char(ctx, 2, x.second)
        assert abs(np.trace(tm.mat(x)) - want) < 1e-8


def test_det_twist_matches_exponent_shift():
    # det^2-twisted doubled model has the character of the shifted label
    ctx = build_field(2, 2)
    tm = TensorModel(ctx, 1, 1, lam_exp=2)
    for x in enumerate_gl22(ctx)[::67]:
        want = cuspidal_char(ctx, 11, x.first) * \
            cuspidal_char(ctx, 1, x.second)
        assert abs(np.trace(tm.mat(x)) - want) < 1e-8


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2)])
def test_fixed_rank_matches_character_average(p, f):
    ctx = build_field(p, f)
    subs = [subgroup_R("Torus", ctx), subgroup_R("Unip", ctx),
            subgroup_R("U1", ctx), subgroup_R("U2", ctx)]
    if ctx.q % 2 == 0:
        subs.append(subgroup_R("ArtinUnip", ctx))
    ks = cuspidal_classes(ctx)
    for k1 in ks:
        for k2 in ks[:2]:
            s = SigmaLabel(k1, k2, "Full")
            tm = TensorModel(ctx, k1, k2)
            for R in subs:
                assert tm.fixed_rank(R) == fixed_dim(ctx, s, R)
                assert tm.fixed_rank_twisted(R) >= 0


def test_commutant_dimensions():
    ctx = build_field(3, 1)
    assert commutant_dim(TensorModel(ctx, 1, 2))[0] == 1
    assert commutant_dim(TensorModel(ctx, 2, 6))[0] == 2


# -- differential checks against the stacked-SVD reference -------------------

def _nullspace_svd(M, tol=1e-8):
    """Reference kernel of a stacked system M: right singular vectors whose
    singular value falls below tol * sigma_max.  For a tall M the reduced
    SVD has the same right factor as the full one."""
    assert M.shape[0] >= M.shape[1]
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    cut = tol * max(1.0, s[0])
    return [vh[i].conj() for i in range(len(vh)) if s[i] < cut]


def _stacked_system(tm, twisted):
    n = tm.dim
    eye = np.eye(n)
    blocks = []
    for x in models._gl22_generators(tm.ctx):
        A = tm.mat(x)
        B = tm.mat(u_action(tm.ctx, x)) if twisted else A
        blocks.append(np.kron(A.T, eye) - np.kron(eye, B))
    return np.vstack(blocks)


def _projector(vecs):
    Q, _ = np.linalg.qr(np.column_stack(vecs))
    return Q @ Q.conj().T


def _vec(mats):
    return [X.reshape(-1, order="F") for X in mats]


def _differential_pairs():
    q3 = build_field(3, 1)
    q5 = build_field(5, 1)
    pairs = [(q3, k1, k2) for k1 in cuspidal_classes(q3)
             for k2 in cuspidal_classes(q3)]
    return pairs + [(q5, 3, 3), (q5, 1, 2)]


@pytest.mark.parametrize("ctx,k1,k2", _differential_pairs(),
                         ids=lambda v: str(getattr(v, "q", v)))
def test_kernels_match_stacked_svd_reference(ctx, k1, k2):
    tm = TensorModel(ctx, k1, k2)
    ref = _nullspace_svd(_stacked_system(tm, twisted=False))
    dim, mats = commutant_dim(tm)
    assert dim == len(ref) == models._character_norm(tm)
    assert np.allclose(_projector(_vec(mats)), _projector(ref), atol=1e-8)

    ref = _nullspace_svd(_stacked_system(tm, twisted=True))
    if not ref:
        with pytest.raises(NoIntertwiner):
            u_intertwiner(tm)
        return
    nullity, mats = u_intertwiner(tm)
    assert nullity == len(ref)
    assert np.allclose(_projector(_vec(mats)), _projector(ref), atol=1e-8)


def _factorwise_pairs():
    q5, q7 = build_field(5, 1), build_field(7, 1)
    ks = cuspidal_classes(q5)
    reducible = [(q5, k1, k2) for k1 in ks for k2 in ks
                 if sigma_is_reducible(q5, SigmaLabel(k1, k2, "Full"))]
    # (3, 1) and (4, 1): a split factor against a non-split one, where the
    # t-condition cuts the factor commutants from 2 dimensions to 1
    return reducible + [(q5, 3, 1), (q7, 4, 12), (q7, 4, 1)]


@pytest.mark.parametrize("ctx,k1,k2", _factorwise_pairs(),
                         ids=lambda v: str(getattr(v, "q", v)))
def test_factorwise_commutant_matches_the_full_gram_reference(ctx, k1, k2):
    tm = TensorModel(ctx, k1, k2)
    ref_dim, ref = full_gram_commutant(tm)
    dim, mats = commutant_dim(tm)
    reducible = sigma_is_reducible(ctx, SigmaLabel(k1, k2, "Full"))
    assert dim == ref_dim == (2 if reducible else 1)
    V = np.column_stack(_vec(mats))
    assert np.allclose(V.conj().T @ V, np.eye(dim), atol=1e-8)
    assert np.allclose(_projector(_vec(mats)), _projector(_vec(ref)), atol=1e-8)


def test_nullspace_refuses_an_ambiguous_gap():
    # X A = X has a two-dimensional kernel, but A - I is only 1e-3 away
    # from zero, so the next Gram eigenvalue (about 1e-6) sits in the band
    A = np.diag([1.0, np.exp(1e-3j)])
    with pytest.raises(UncertifiedNullity):
        models._nullspace([(A, np.eye(2))])
    assert len(models._nullspace([(np.diag([1.0, 1j]), np.eye(2))])) == 2


def test_nullspace_refuses_a_non_unitary_generator():
    with pytest.raises(UncertifiedNullity):
        models._nullspace([(np.diag([1.0, 2.0]), np.eye(2))])


def test_decompose_refuses_a_nullity_off_the_character_norm(monkeypatch):
    real = models._nullspace
    monkeypatch.setattr(models, "_nullspace", lambda *a: real(*a)[:1])
    with pytest.raises(UncertifiedNullity):
        decompose(TensorModel(build_field(3, 1), 2, 6))


@pytest.mark.parametrize("p,f,labels", [
    (3, 1, [(1, 2, 0), (2, 6, 0), (6, 2, 1)]),
    (2, 2, [(1, 1, 2), (1, 2, 0), (3, 1, 1)]),
])
def test_fixed_rank_matches_trace_of_kron_average(p, f, labels):
    ctx = build_field(p, f)
    for k1, k2, lam in labels:
        tm = TensorModel(ctx, k1, k2, lam_exp=lam)
        for kind in ("Torus", "Unip", "U1"):
            R = subgroup_R(kind, ctx)
            plain = sum(np.trace(tm.mat(r)) for r in R) / len(R)
            twisted = sum(np.trace(tm.mat(u_action(ctx, r))) for r in R) / len(R)
            assert tm.fixed_rank(R) == round(plain.real)
            assert tm.fixed_rank_twisted(R) == round(twisted.real)
            assert abs(plain - round(plain.real)) < 1e-6
            assert abs(twisted - round(twisted.real)) < 1e-6


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_pair_averages_match_the_per_element_reference(q):
    ctx = build_field(*FIELDS[q])
    ks = cuspidal_classes(ctx)
    for R in _standard_groups(ctx):
        seen = 0
        for (k1, k2), P in models.pair_averages(ctx, R, ks, ks):
            assert np.abs(P - tensor_average_ref(ctx, R, k1, k2)).max() < 1e-12
            seen += 1
        assert seen == len(ks) ** 2


def test_twisted_average_matches_the_per_element_reference():
    # the det^lam weight on the first factor, as twists and induced use it
    ctx = build_field(5, 1)
    k1, k2 = cuspidal_classes(ctx)[:2]
    tm = TensorModel(ctx, k1, k2, lam_exp=1)
    for R in _standard_groups(ctx):
        want = tensor_average_ref(ctx, R, k1, k2, lam_exp=1)
        assert np.abs(tm.average(R) - want).max() < 1e-12


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_real_averages_are_projectors_well_inside_the_bound(q):
    ctx = build_field(*FIELDS[q])
    ks = cuspidal_classes(ctx)
    worst = max(float(models.projector_residual(P))
                for R in _standard_groups(ctx)
                for _, P in models.pair_averages(ctx, R, ks, ks))
    assert worst < 1e-4 * models.PROJECTOR_TOL


def test_projector_residual_sees_both_defects():
    idempotent = np.array([[1, 1], [0, 0]], dtype=np.complex128)  # not Hermitian
    hermitian = np.diag([1, 0.5]).astype(np.complex128)  # not idempotent
    projector = np.full((2, 2), 0.5, dtype=np.complex128)
    got = models.projector_residual(np.stack([idempotent, hermitian, projector]))
    assert got[0] > 1 and got[1] > 0.2 and got[2] < 1e-15
    with pytest.raises(UncertifiedNullity, match="not an orthogonal projector"):
        models._certified(hermitian)


def test_decompose_split_pair():
    ctx = build_field(3, 1)
    tm = TensorModel(ctx, 2, 6)
    plus, minus = decompose(tm)
    assert plus.tag == "Plus" and minus.tag == "Minus"
    assert plus.dim == minus.dim == 2
    for x in enumerate_gl22(ctx)[::31]:
        split = np.trace(plus.mat(x)) + np.trace(minus.mat(x))
        assert abs(split - np.trace(tm.mat(x))) < 1e-8
    T = subgroup_R("Torus", ctx)
    U = subgroup_R("Unip", ctx)
    for c in (plus, minus):
        assert c.fixed_rank(T) == 1
        assert c.fixed_rank(subgroup_R("U1", ctx)) == 0
    # the unipotent fixed space lands entirely in one constituent
    assert sorted(c.fixed_rank(U) for c in (plus, minus)) == [0, 2]


def test_decompose_constituents_are_subreps():
    ctx = build_field(3, 1)
    tm = TensorModel(ctx, 2, 2)
    plus, minus = decompose(tm)
    for c in (plus, minus):
        for x in enumerate_gl22(ctx)[::53]:
            for y in enumerate_gl22(ctx)[::71]:
                xy = gl22_mul(ctx, x, y)
                assert np.allclose(c.mat(x) @ c.mat(y), c.mat(xy), atol=1e-8)


def test_decompose_refuses_an_outer_element_that_does_not_swap(monkeypatch):
    # the swap element sw = (diag(e, 1), 1) acting as the identity keeps
    # each constituent in place
    ctx = build_field(3, 1)
    sw = GL22Elem(GL2Elem(ctx.fq_gen, 0, 0, ctx.one), GL2Elem(ctx.one, 0, 0, ctx.one))
    real = TensorModel.mat
    monkeypatch.setattr(TensorModel, "mat", lambda self, x: (
        np.eye(self.dim) if x == sw else real(self, x)))
    with pytest.raises(ValueError, match="outer element does not swap the constituents"):
        decompose(TensorModel(ctx, 2, 6))


def test_decompose_certifies_the_swap_without_an_inverse(monkeypatch):
    def no_inverse(*_):
        raise AssertionError("np.linalg.inv called")
    monkeypatch.setattr(np.linalg, "inv", no_inverse)
    assert [c.tag for c in decompose(TensorModel(build_field(3, 1), 2, 6))] == \
        ["Plus", "Minus"]


def test_decompose_irreducible_raises():
    ctx = build_field(3, 1)
    with pytest.raises(ValueError):
        decompose(TensorModel(ctx, 1, 2))


def test_model_for_sigma_dispatch():
    ctx = build_field(3, 1)
    assert isinstance(model_for_sigma(ctx, SigmaLabel(1, 2, "Full")), TensorModel)
    c = model_for_sigma(ctx, SigmaLabel(2, 6, "Minus"))
    assert isinstance(c, ConstituentModel) and c.tag == "Minus"
    with pytest.raises(ValueError):
        model_for_sigma(ctx, SigmaLabel(1, 2, "Plus"))


def test_constituent_rank_where_the_character_layer_refuses():
    ctx = build_field(5, 1)
    # subgroup not stable under the nonsquare diagonal conjugation
    from siegelvec.finitegrp import subgroup_closure
    w = GL2Elem(0, ctx.one, ctx.neg(ctx.one), 0)
    R = subgroup_closure(ctx, gl22_rows([GL22Elem(w, w)]))
    plus = SigmaLabel(3, 3, "Plus")
    with pytest.raises(OracleRequired):
        fixed_dim(ctx, plus, R)
    parts = decompose(TensorModel(ctx, 3, 3))
    for c in parts:
        P = sum(c.mat(r) for r in R) / len(R)
        assert c.fixed_rank(R) == np.linalg.matrix_rank(P, tol=1e-6)
    full = fixed_dim(ctx, SigmaLabel(3, 3, "Full"), R)
    assert sum(c.fixed_rank(R) for c in parts) == full


def _probe_trace_naming(tm, parts):
    """The earlier Plus/Minus convention, kept as a reference: compare the
    two parts' compressed traces, rounded to 6 decimals, over a growing
    prefix of GL22 until they differ; the larger tuple is Plus."""
    elems = enumerate_gl22(tm.ctx)
    width = 24
    while True:
        traces = []
        for c in parts:
            traces.append(tuple(
                (round(t.real, 6), round(t.imag, 6))
                for t in (np.trace(c.mat(x)) for x in elems[:width])))
        if traces[0] != traces[1] or width >= len(elems):
            break
        width *= 4
    assert traces[0] != traces[1]
    return ("Plus", "Minus") if traces[0] >= traces[1] else ("Minus", "Plus")


@pytest.mark.parametrize("p", [3, 5])
def test_rank_naming_agrees_with_probe_trace_reference(p):
    ctx = build_field(p, 1)
    split = [k for k in cuspidal_classes(ctx) if split_restriction(ctx, k)]
    n = [GL2Elem(ctx.one, 0, u, ctx.one) for u in ctx.fq_elements]
    N = SubgroupR(ctx, gl22_rows([GL22Elem(x, x) for x in n]), "Custom")
    for k1 in split:
        for k2 in split:
            parts = decompose(TensorModel(ctx, k1, k2))
            assert [c.tag for c in parts] == ["Plus", "Minus"]
            assert _probe_trace_naming(parts[0].tm, parts) == ("Plus", "Minus")
            assert [c.fixed_rank(N) for c in parts] == [ctx.q - 1, 0]


def test_decompose_refuses_uncertified_ranks(monkeypatch):
    ctx = build_field(3, 1)
    monkeypatch.setattr(ConstituentModel, "fixed_rank", lambda self, R: 1)
    with pytest.raises(UncertifiedNullity):
        decompose(TensorModel(ctx, 2, 2))


# -- intertwiners and twisted traces ------------------------------------------

def test_u_intertwiner_irreducible_self_twisted():
    ctx = build_field(3, 1)
    tm = TensorModel(ctx, 5, 1)
    nullity, mats = u_intertwiner(tm)
    assert nullity == 1
    T = mats[0]
    assert np.allclose(T @ T, np.eye(tm.dim), atol=1e-8)
    for x in enumerate_gl22(ctx)[::37]:
        assert np.allclose(T @ tm.mat(x), tm.mat(u_action(ctx, x)) @ T,
                           atol=1e-8)


def test_u_intertwiner_absent_and_doubled():
    ctx = build_field(3, 1)
    with pytest.raises(NoIntertwiner):
        u_intertwiner(TensorModel(ctx, 1, 2))
    nullity, _ = u_intertwiner(TensorModel(ctx, 2, 6))
    assert nullity == 2


def test_swap_and_ww_intertwine_the_twist():
    ctx = build_field(3, 1)
    tm = TensorModel(ctx, 2, 2)  # doubled presentation, lam = 0
    S = swap_operator(tm)
    W = ww_operator(tm)
    O = W @ S
    for x in enumerate_gl22(ctx)[::43]:
        assert np.allclose(O @ tm.mat(x), tm.mat(u_action(ctx, x)) @ O,
                           atol=1e-8)


def test_twisted_traces_match_closed_q2():
    ctx = build_field(2, 1)
    tm = TensorModel(ctx, 1, 1)
    s = SigmaLabel(1, 1, "Full")
    S = swap_operator(tm)
    W = ww_operator(tm)
    for R_name in ("Torus", "Unip", "ArtinUnip"):
        R = subgroup_R(R_name, ctx)
        assert twisted_trace(tm.average(R), S) == twisted_trace_closed(ctx, s, "swap", R)
    T = subgroup_R("Torus", ctx)
    assert twisted_trace(tm.average(T), W) == twisted_trace_closed(ctx, s, "ww", T)
    assert twisted_trace(tm.average(T), S @ W) == \
        twisted_trace_closed(ctx, s, "swap_ww", T)


def test_twisted_traces_match_closed_q3_both_presentations():
    ctx = build_field(3, 1)
    T = subgroup_R("Torus", ctx)
    s = SigmaLabel(2, 6, "Full")
    for pres in ((2, 0), (6, 1)):
        k_rho, l = pres
        tm = TensorModel(ctx, k_rho, k_rho, lam_exp=l)
        S = swap_operator(tm)
        W = ww_operator(tm)
        assert twisted_trace(tm.average(T), S) == \
            twisted_trace_closed(ctx, s, "swap", T, presentation=pres)
        assert twisted_trace(tm.average(T), W) == \
            twisted_trace_closed(ctx, s, "ww", T, presentation=pres)
        assert twisted_trace(tm.average(T), S @ W) == \
            twisted_trace_closed(ctx, s, "swap_ww", T, presentation=pres)


def test_twisted_traces_match_closed_q4():
    ctx = build_field(2, 2)
    s = SigmaLabel(11, 1, "Full")
    tm = TensorModel(ctx, 1, 1, lam_exp=2)
    S = swap_operator(tm)
    for R_name in ("Torus", "Unip", "ArtinUnip"):
        R = subgroup_R(R_name, ctx)
        assert twisted_trace(tm.average(R), S) == twisted_trace_closed(ctx, s, "swap", R)
    T = subgroup_R("Torus", ctx)
    W = ww_operator(tm)
    assert twisted_trace(tm.average(T), W) == twisted_trace_closed(ctx, s, "ww", T)


def test_twisted_trace_not_normalizing():
    # at q = 4 the doubled Weyl operator moves the unipotent-fixed space
    ctx = build_field(2, 2)
    tm = TensorModel(ctx, 1, 1, lam_exp=2)
    W = ww_operator(tm)
    with pytest.raises(NotNormalizing):
        twisted_trace(tm.average(subgroup_R("Unip", ctx)), W)
    with pytest.raises(NotNormalizing):
        twisted_trace(tm.average(subgroup_R("ArtinUnip", ctx)), W)
