"""Scalar precision semantics, symplectic matrix layer, K membership and
reduction, the identity suite, and the subgroup extraction machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelvec import padic
from siegelvec.finitegrp import (
    GL2Elem,
    GL22Elem,
    build_field,
    conjugate_subgroups,
    gl22_elems,
    gl22_identity,
    poly_mul_mod,
    subgroup_R,
)
from siegelvec.padic import (
    _K_FLOOR,
    _K_READS,
    GUARD,
    IDENTITY_TAGS,
    GSp4Elem,
    NotInK,
    NotSymplectic,
    PadicCtx,
    PrecisionExhausted,
    RgKernel,
    StabilizationFailure,
    compute_Rg,
    coset_rep,
    draw_Si,
    in_K,
    in_K_plus,
    in_Si,
    levi,
    mat_close,
    mat_identity,
    mat_mul,
    radical_obstruction,
    rand_K,
    rand_unit,
    reduce_K,
    rg_kernel,
    run_identity,
    s2_elem,
    s_lower,
    s_upper,
    scalars_close,
    similitude_of,
    t_elem,
    u_elem,
    witness_Rg,
)
from siegelvec.support import COSET_TAGS, enumerate_support

from reference import (ScalarRgKernel, build_Si, dense_mat_mul, ref_add, ref_decide,
                       ref_inv, ref_mul, ref_neg, ref_normalize, subgroup_closure_ref)


def s1_elem(ctx):
    """The permutation matrix swapping e1 with e2 and e3 with e4."""
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    return GSp4Elem.make(ctx, rows, mu=1)


# -- scalars -----------------------------------------------------------------


def test_int_normalization_extracts_valuation():
    ctx = PadicCtx(2, 1)
    s = ctx.from_int(12)
    assert s.val_exact() == 2 and s.coeffs[0] % 2 == 1
    assert ctx.from_int(-8).val_exact() == 3
    assert ctx.from_int(0).kind == "zero"


def test_addition_cancellation_degrades_to_bound():
    ctx = PadicCtx(3, 1, prec=6)
    a = ctx.from_int(5)
    d = a - a
    assert d.kind == "eps" and d.aprec == 6
    assert d.val_ge(6)
    with pytest.raises(PrecisionExhausted):
        d.val_ge(7)


def test_scalar_comparison_is_three_valued():
    ctx = PadicCtx(3, 1, prec=6)
    a = ctx.from_int(5)
    assert scalars_close(a, ctx.from_int(5))          # decided equal
    assert not scalars_close(a, ctx.from_int(2))      # certified difference
    rough = a + ctx.eps(2)                             # 5 known mod 3^2 only
    with pytest.raises(PrecisionExhausted):
        scalars_close(rough, a)
    with pytest.raises(PrecisionExhausted):
        scalars_close(ctx.eps(2), ctx.zero_s)


def test_matrix_comparison_prefers_a_certified_mismatch():
    ctx = PadicCtx(3, 1, prec=6)
    ident = mat_identity(ctx)
    rough = [list(row) for row in ident]
    rough[0][0] = ctx.one_s + ctx.eps(2)
    with pytest.raises(PrecisionExhausted):
        mat_close(rough, ident)
    rough[3][3] = ctx.from_int(2)
    assert not mat_close(rough, ident)


def test_unresolved_similitude_factor_is_a_precision_shortfall():
    ctx = PadicCtx(3, 1, prec=6)
    rows = [list(row) for row in mat_identity(ctx)]
    rows[0][0] = ctx.eps(2)
    with pytest.raises(PrecisionExhausted):
        similitude_of(ctx, rows)


def test_multiplication_and_inverse_are_lossless():
    ctx = PadicCtx(3, 1, prec=10)
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 3 ** 8))
        s = ctx.from_int(n)
        if s.kind != "unit" or s.val != 0:
            continue
        prod = s * s.inv()
        assert scalars_close(prod, ctx.one_s)
        assert prod.rel == 10


def test_valuation_arithmetic_under_products():
    ctx = PadicCtx(2, 1)
    a = ctx.pi(3) * ctx.from_int(5)
    b = ctx.pi(-2) * ctx.from_int(7)
    assert (a * b).val_exact() == 1
    assert (a + b).val_exact() == -2
    assert (-a).val_exact() == 3


# residue degree f >= 2, where the presentation of o matters
EXTENSIONS = [(2, 2), (2, 3), (3, 2)]


def test_quadratic_extension_residues_are_multiplicative():
    for p, f in EXTENSIONS:
        ctx = PadicCtx(p, f)
        fq = ctx.fq
        rng = np.random.default_rng(1)
        for _ in range(25):
            ca = fq.fq_elements[rng.integers(0, ctx.q)]
            cb = fq.fq_elements[rng.integers(0, ctx.q)]
            a, b = ctx.lift(ca), ctx.lift(cb)
            assert (a * b).residue() == fq.mul(ca, cb)
            assert (a + b).residue() == fq.add(ca, cb)


def test_lift_residue_roundtrip():
    for p, f in EXTENSIONS:
        ctx = PadicCtx(p, f)
        # the ring generator x reduces to the field generator; a
        # Frobenius-conjugate root would pass the other checks here
        assert ctx.unit(0, (0, 1) + (0,) * (f - 2)).residue() == ctx.fq.fq_gen
        for code in ctx.fq.fq_elements:
            s = ctx.lift(code)
            assert s.residue() == code
            if code:
                assert scalars_close(s * s.inv(), ctx.one_s)


# every (p, f) with q = p^f inside the field layer's cap of 16
SUPPORTED = [(p, f) for p in (2, 3, 5, 7, 11, 13) for f in range(1, 5)
             if p ** f <= 16]


def pmulmod_reference(ctx, a, b, rel):
    """Reference unit product, written for residue degree f and any lengths
    of a and b: reduce by the defining polynomial over the integers, then
    modulo p^rel."""
    f = ctx.f
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    m = ctx.mpoly
    for k in range(len(out) - 1, f - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for j in range(f):
                out[k - f + j] -= c * m[j]
    pk = ctx.p ** rel
    return tuple(c % pk for c in out[:f])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_poly_mul_mod_matches_reference_kernel(data):
    p, f = data.draw(st.sampled_from(SUPPORTED))
    rel = data.draw(st.integers(1, 40))
    ctx = PadicCtx(p, f)
    pk = p ** rel
    # Newton inversion feeds the kernel negative coefficients too
    coeffs = st.lists(st.integers(-pk, pk - 1), min_size=f, max_size=f)
    a, b = data.draw(coeffs), data.draw(coeffs)
    assert poly_mul_mod(a, b, ctx.mpoly, pk) == pmulmod_reference(ctx, a, b, rel)


def _fields(s):
    return s.kind, s.val, s.coeffs, s.rel, s.aprec


def _sparse_scalar(data, ctx):
    """Mostly exact zeros, as in t_elem, s_lower, levi and u_elem; else the
    shared one_s, a cached pi(k) or small integer, an O(p^A), or a unit of
    negative, zero or positive valuation known to a random rel, alone or
    times a cached pi(k) (mat_mul shifts it, where a copy would multiply)."""
    kind = data.draw(st.sampled_from(["zero"] * 4 + ["one", "pi", "pi", "int", "eps",
                                                     "unit", "pi-unit"]))
    if kind == "zero":
        return ctx.zero_s
    if kind == "one":
        return ctx.one_s
    if kind == "pi":
        return ctx.pi(data.draw(st.integers(-3, 5)))
    if kind == "int":
        return ctx.from_int(data.draw(st.integers(-8, 8)))
    if kind == "eps":
        return ctx.eps(data.draw(st.integers(0, ctx.prec)))
    rel = data.draw(st.integers(1, ctx.prec))
    pk = ctx.p ** rel
    coeffs = data.draw(st.lists(st.integers(0, pk - 1), min_size=ctx.f, max_size=ctx.f))
    u = ctx.unit(data.draw(st.integers(-3, 3)), coeffs, rel)
    return ctx.pi(data.draw(st.integers(-3, 5))) * u if kind == "pi-unit" else u


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_products_match_the_dense_reference(data):
    p, f = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    ctx = PadicCtx(p, f, prec=data.draw(st.integers(GUARD, 80)))
    A, B = ([[_sparse_scalar(data, ctx) for _ in range(4)] for _ in range(4)]
            for _ in range(2))
    # M^T J M is antisymmetric: its diagonal sums cancel to O(p^A) exactly,
    # and the sums go on from there
    pairs = [(A, B)] + [(padic.mat_transpose(M), padic._j_times(M)) for M in (A, B)]
    for X, Y in pairs:
        for got, want in zip(mat_mul(ctx, X, Y), dense_mat_mul(ctx, X, Y)):
            assert list(map(_fields, got)) == list(map(_fields, want))
    # a copy of one_s with its own coefficient tuple is not a cached power
    # of pi, so products with it take the general path the shortcut skips
    one = padic.PadicScalar(ctx, "unit", 0, tuple(list(ctx.one_s.coeffs)),
                            ctx.one_s.rel, 0)
    assert one.coeffs is not ctx.one_s.coeffs
    for x in A[0] + B[0]:
        assert _fields(x * ctx.one_s) == _fields(x * one) == _fields(x)
        assert _fields(ctx.one_s * x) == _fields(one * x) == _fields(x)
    # constant factors take poly_mul_mod's one-coefficient shortcut
    rel = data.draw(st.integers(1, ctx.prec))
    a, b = (data.draw(st.integers(-p ** rel, p ** rel - 1)) for _ in range(2))
    assert poly_mul_mod((a,), (b,), ctx.mpoly, p ** rel) == pmulmod_reference(
        ctx, (a,), (b,), rel)


def _any_scalar(data, ctx):
    """One scalar of any kind: the exact zero, an O(p^A), the shared one_s,
    a cached pi(k) or small integer, or a unit of valuation -3..3 known to
    a random rel, its coefficients drawn below p^rel, multiples of p too
    (ctx.unit then moves their common factor into the valuation)."""
    kind = data.draw(st.sampled_from(["zero", "eps", "one", "pi", "int", "unit", "unit"]))
    if kind == "zero":
        return ctx.zero_s
    if kind == "eps":
        return ctx.eps(data.draw(st.integers(0, ctx.prec)))
    if kind == "one":
        return ctx.one_s
    if kind == "pi":
        return ctx.pi(data.draw(st.integers(-3, 5)))
    if kind == "int":
        return ctx.from_int(data.draw(st.integers(-8, 8)))
    rel = data.draw(st.integers(1, ctx.prec))
    pk = ctx.p ** rel
    digit = st.integers(0, pk - 1) | st.integers(0, pk // ctx.p - 1).map(ctx.p.__mul__)
    coeffs = data.draw(st.lists(digit, min_size=ctx.f, max_size=ctx.f))
    return ctx.unit(data.draw(st.integers(-3, 3)), coeffs, rel)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_scalar_core_matches_the_frozen_reference(data):
    # every result of the core equals, field by field, the reference's
    # general polynomial path, and every comparison gets the same verdict
    p, f = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]))
    ctx = PadicCtx(p, f, prec=data.draw(st.integers(GUARD, 80)))
    a, b = _any_scalar(data, ctx), _any_scalar(data, ctx)
    for x, y in ((a, b), (b, a)):
        assert _fields(x + y) == _fields(ref_add(x, y))
        assert _fields(x * y) == _fields(ref_mul(x, y))
        assert _fields(x - y) == _fields(ref_add(x, ref_neg(y)))
        assert padic._decide(x, y) == ref_decide(x, y)
        assert _fields(-x) == _fields(ref_neg(x))
        if x.kind == "unit":
            assert _fields(x.inv()) == _fields(ref_inv(x))
    assert padic._decide(a, a) == ref_decide(a, a)
    bound = p ** (ctx.prec + 2)
    coeffs = data.draw(st.lists(st.integers(-bound, bound), min_size=f, max_size=f))
    val, rel = data.draw(st.integers(-3, 3)), data.draw(st.integers(-1, ctx.prec))
    assert (_fields(padic._normalize(ctx, val, coeffs, rel))
            == _fields(ref_normalize(ctx, val, coeffs, rel)))


def test_unresolved_elements_refuse_inversion():
    ctx = PadicCtx(2, 1)
    with pytest.raises(ZeroDivisionError):
        ctx.zero_s.inv()
    with pytest.raises(PrecisionExhausted):
        ctx.eps(3).inv()


# -- matrices ----------------------------------------------------------------


def test_builders_pass_independent_similitude_check():
    for p, f in ((2, 1), (3, 1), (2, 2)):
        ctx = PadicCtx(p, f)
        for g in (t_elem(ctx, 1, 2), s_lower(ctx, 3, 5, 7), s_upper(ctx, 2, 3, 1),
                  levi(ctx, 1, 2, 3, 7, 5), u_elem(ctx, 4), s1_elem(ctx), s2_elem(ctx)):
            mu = similitude_of(ctx, g.m)
            assert scalars_close(mu, g.mu)


def test_non_symplectic_matrix_is_rejected():
    ctx = PadicCtx(2, 1)
    with pytest.raises(NotSymplectic):
        GSp4Elem.make(ctx, [[1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 1, 0, 1]])


def test_group_inverse_matches_identity():
    for p, f in [(3, 1), (2, 3), (3, 2)]:
        ctx = PadicCtx(p, f)
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = rand_K(ctx, rng)
            assert mat_close(mat_mul(ctx, g.m, g.inv().m), mat_identity(ctx))
            assert scalars_close(g.mu * g.inv().mu, ctx.one_s)


# -- membership and reduction --------------------------------------------------


def test_pattern_examples_in_and_out():
    ctx = PadicCtx(2, 1)
    assert not in_K(t_elem(ctx, 0, 1))
    assert not in_K(u_elem(ctx, 1))
    assert in_K(s2_elem(ctx))
    assert in_Si(s1_elem(ctx), 3)
    assert not in_K(s1_elem(ctx))
    assert in_K(s_upper(ctx, 1, ctx.pi(-1), 1))
    assert not in_Si(s_upper(ctx, 1, ctx.pi(-1), 1), 1)


def test_reduction_of_known_elements():
    ctx = PadicCtx(2, 2)
    fq = ctx.fq
    r = reduce_K(s2_elem(ctx))
    w = GL2Elem(0, fq.one, fq.neg(fq.one), 0)
    assert r == GL22Elem(gl22_identity(fq).first, w)
    a1, a4, lam = fq.fq_units[0], fq.fq_units[1], fq.fq_units[2]
    g = levi(ctx, ctx.lift(a1), 0, ctx.pi(1), ctx.lift(a4), ctx.lift(lam))
    r = reduce_K(g)
    assert r.first == GL2Elem(a1, 0, 0, fq.mul(lam, a4))
    assert r.second == GL2Elem(a4, 0, 0, fq.mul(lam, a1))


def test_depth_kernel_detection():
    ctx = PadicCtx(2, 1)
    assert in_K_plus(s_lower(ctx, ctx.pi(1), ctx.pi(1), ctx.pi(2)))
    assert not in_K_plus(s_lower(ctx, ctx.pi(1), 1, ctx.pi(2)))
    assert not in_K_plus(s_lower(ctx, ctx.pi(1), ctx.pi(1), ctx.pi(1)))


def test_reduction_determinants_must_match():
    ctx = PadicCtx(2, 1)
    # valid pattern but the two residue factors get different determinants
    g = GSp4Elem.make(ctx, [[1, 0, 0, 0], [0, 1, 0, 0],
                            [ctx.pi(1), 0, 1, 0], [0, ctx.pi(1), 0, 1]], mu=1)
    reduce_K(g)  # fine: both factors reduce to the identity
    bad = s1_elem(ctx)
    with pytest.raises(NotInK):
        reduce_K(bad)


# -- identity suite -------------------------------------------------------------


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1)] + EXTENSIONS)
def test_identity_suite_small_draws(p, f):
    ctx = PadicCtx(p, f)
    for tag in IDENTITY_TAGS:
        assert run_identity(ctx, tag, draws=6, seed=11) == 6


def test_shared_cached_scalars_are_never_changed():
    # pi(k), from_int(n) and one_s hand every caller the same object, and
    # products return a factor itself when the other is one_s: an in-place
    # update anywhere would corrupt every later use
    ctx = PadicCtx(2, 2)
    for tag in IDENTITY_TAGS:
        assert run_identity(ctx, tag, draws=20, seed=3) == 20
    fresh = PadicCtx(2, 2)
    assert len(ctx._pi_cache) > 10 and {-1, 1, 2} <= set(ctx._int_cache)
    for k, s in ctx._pi_cache.items():
        assert _fields(s) == _fields(fresh.pi(k))
    for n, s in ctx._int_cache.items():
        assert _fields(s) == _fields(fresh.from_int(n))
    assert ctx.one_s is ctx.pi(0) is ctx.from_int(1)
    assert _fields(ctx.one_s) == _fields(fresh.one_s)
    assert _fields(ctx.zero_s) == _fields(fresh.zero_s)


def test_literal_matrix_entries_are_the_cached_scalars():
    # mat_from sends literal 0, 1 and -1 to the cached scalars (numpy and
    # bool integers too) and passes PadicScalar entries through unchanged
    ctx = PadicCtx(3, 2)
    cached = {0: ctx.zero_s, 1: ctx.one_s, -1: ctx.from_int(-1)}
    s2_rows = [[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]]
    for got, want in zip(s2_elem(ctx).m, s2_rows):
        assert all(g is cached[w] for g, w in zip(got, want))
    u = u_elem(ctx, 3).m
    assert u[0][2] is ctx.one_s and u[1][3] is cached[-1] and u[2][0] is ctx.pi(3)
    assert sum(e is ctx.zero_s for row in u for e in row) == 12
    x = ctx.unit(1, [2, 1])
    (row,) = padic.mat_from(ctx, [[x, np.int64(-1), True, 0]])
    assert all(g is w for g, w in zip(row, (x, cached[-1], ctx.one_s, ctx.zero_s)))
    assert _fields(x - 1) == _fields(x + cached[-1])
    assert _fields(1 - x) == _fields(-x + ctx.one_s)
    assert _fields(x - x) == _fields(x + (-x))


# one precision exit per tag that _id_levi or _id_scale builds, at q = 4: a
# change to a tag's draws or to the order of its arithmetic passes every
# identity check but moves its exit.  The scale tags never run out, since
# conjugating by the diagonal t only scales entries
FACTORY_EXITS = [
    ("lower-corner", 12, 0, "draw 24 (seed 0): 2 of 17"),
    ("det-torus", 8, 1, "draw 17 (seed 1): 2 of 16"),
    ("torus-unit", 8, 0, "draw 54 (seed 0): 1 of 16"),
    ("levi-x", 8, 0, "draw 55 (seed 0): 2 of 16"),
    ("levi-yz", 8, 0, "draw 38 (seed 0): 1 of 16"),
    ("levi-xyz", 8, 2, "draw 30 (seed 2): 1 of 16"),
]


@pytest.mark.parametrize("tag,prec,seed,where", FACTORY_EXITS)
def test_factory_tags_keep_their_precision_exit(tag, prec, seed, where):
    with pytest.raises(PrecisionExhausted) as exc:
        run_identity(PadicCtx(2, 2, prec), tag, draws=100, seed=seed)
    assert str(exc.value) == (
        f"{tag} {where} comparisons undecided at the working precision")


def test_identity_rejects_unknown_tag():
    ctx = PadicCtx(2, 1)
    with pytest.raises(ValueError):
        run_identity(ctx, "no-such-tag", draws=1)


@pytest.mark.parametrize("p,prec", [(3, 48), (2, 80)])
def test_rand_unit_beyond_int64(p, prec):
    # p^(prec-1) exceeds the int64 range of a single numpy draw
    ctx = PadicCtx(p, 1, prec=prec)
    assert ctx.p ** (prec - 1) > 1 << 63
    assert math.prod(ctx._digit_bounds) == p ** (prec - 1)
    rng = np.random.default_rng(5)
    tops = []
    for _ in range(20):
        u = rand_unit(ctx, rng)
        assert u.val_exact() == 0 and u.residue() != 0
        assert 0 < u.coeffs[0] < p ** prec
        tops.append(u.coeffs[0])
    assert max(tops) > 1 << 63
    for tag in IDENTITY_TAGS:
        assert run_identity(ctx, tag, draws=3, seed=11) == 3


@pytest.mark.parametrize("p,f,prec", [(2, 1, 32), (3, 1, 32), (2, 2, 40), (2, 1, 64)])
def test_rand_unit_stream_unchanged_within_int64(p, f, prec):
    # one draw per digit block, exactly as before the chunked path existed
    ctx = PadicCtx(p, f, prec=prec)
    assert ctx._digit_bounds == (p ** (prec - 1),)
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(50):
        got = rand_unit(ctx, rng).coeffs
        base = ctx._decode[ctx.fq.fq_units[ref.integers(0, ctx.q - 1)]]
        want = ctx.unit(0, [b + p * int(ref.integers(0, p ** (prec - 1)))
                            for b in base]).coeffs
        assert got == want


# -- subgroup extraction ---------------------------------------------------------


WITNESS_CASES = [
    ("I", 0, 1, 3, "Torus"),
    ("I", 1, 1, 5, "Torus"),
    ("II", 0, 2, 4, "Torus"),
    ("IIIa", 0, 3, 5, "Unip"),
    ("IIIb", 0, 5, 7, "ArtinUnip"),
    ("IV", 0, 4, 6, "ArtinUnip"),
]


@pytest.mark.parametrize("tag,i,j,n,kind", WITNESS_CASES)
def test_witness_families_land_on_table_subgroups(tag, i, j, n, kind):
    ctx = PadicCtx(2, 1)
    wit = witness_Rg(ctx, tag, i, j, n)
    table = subgroup_R(kind, ctx.fq)
    assert conjugate_subgroups(wit, table, ctx.fq) is not None


@pytest.mark.parametrize("tag,i,j,n,kind", WITNESS_CASES[:4])
def test_sampled_subgroups_match_witnesses(tag, i, j, n, kind):
    ctx = PadicCtx(2, 1)
    res = compute_Rg(rg_kernel(ctx, tag, i, j), n, seed=5)
    table = subgroup_R(kind, ctx.fq)
    assert conjugate_subgroups(res.group, table, ctx.fq) is not None
    assert res.accepted >= 200


def test_deeper_strata_sampled_against_witnesses():
    ctx = PadicCtx(2, 1)
    for tag, i, j, n, kind in WITNESS_CASES[4:]:
        samp = compute_Rg(rg_kernel(ctx, tag, i, j), n, seed=5)
        wit = witness_Rg(ctx, tag, i, j, n)
        assert set(samp.group) == set(wit)


def test_depth_one_refinement_classes_share_a_subgroup():
    # the depth-refined unit classes of the second elliptic stratum all
    # produce the same subgroup as the base class
    ctx = PadicCtx(2, 1)
    base = witness_Rg(ctx, "IIIb", 0, 5, 7, u=0)
    refined = witness_Rg(ctx, "IIIb", 0, 5, 7, u=ctx.fq.one)
    assert set(base) == set(refined)


def test_unknown_coset_tag_is_refused():
    ctx = PadicCtx(2, 1)
    with pytest.raises(ValueError, match="unknown coset tag 'V'"):
        coset_rep(ctx, "V", 0, 2)
    with pytest.raises(ValueError, match="unknown coset tag 'V'"):
        witness_Rg(ctx, "V", 0, 2, 4)


@pytest.mark.parametrize("tag,i,j,n", [("IIIb", 0, 5, 7), ("IV", 0, 4, 6)])
def test_even_q_witness_families_refuse_odd_residue_characteristic(tag, i, j, n):
    with pytest.raises(ValueError, match="needs even residue characteristic"):
        witness_Rg(PadicCtx(3, 1), tag, i, j, n)


def test_swap_torus_image_of_corner_stratum_when_q_is_four():
    # at q=4 the second stratum reduces onto the det-matched swap torus
    # {(diag(a,d), diag(d,a))} of order (q-1)^2, a proper subgroup of the
    # full torus; the two coincide only at q=2
    ctx = PadicCtx(2, 2)
    fq = ctx.fq
    wit = witness_Rg(ctx, "II", 0, 2, 4)
    samp = compute_Rg(rg_kernel(ctx, "II", 0, 2), 4, seed=7)
    swap = {GL22Elem(GL2Elem(a, 0, 0, d), GL2Elem(d, 0, 0, a))
            for a in fq.fq_units for d in fq.fq_units}
    assert set(wit) == swap
    assert set(samp.group) == swap


def test_unipotent_stratum_at_q_four():
    ctx = PadicCtx(2, 2)
    wit = witness_Rg(ctx, "IIIa", 0, 3, 5)
    assert set(wit) == set(subgroup_R("Unip", ctx.fq))


def test_sampled_subgroups_equal_witnesses_on_the_q4_level5_support():
    # the rg suite runs at q=2 only; in process, at q=4, sampling and the
    # witness families give the same subgroup on every coset of level 5
    ctx = PadicCtx(2, 2)
    params = enumerate_support(ctx.fq, 5)
    assert params
    for prm in params:
        wit = witness_Rg(ctx, prm.tag, prm.i, prm.j, 5, prm.u)
        samp = compute_Rg(rg_kernel(ctx, *prm), 5).group
        assert np.array_equal(samp.rows, wit.rows), prm


def test_out_of_range_parameters_trigger_radical_obstruction():
    ctx = PadicCtx(2, 1)
    fq = ctx.fq
    for (i, j, n) in [(0, 2, 3), (0, 3, 3), (1, 1, 4), (0, 4, 4)]:
        grp = compute_Rg(rg_kernel(ctx, "I", i, j), n, seed=3).group
        assert radical_obstruction(fq, grp)
    # in-range groups carry no obstruction
    assert not radical_obstruction(fq, subgroup_R("Torus", fq))
    assert not radical_obstruction(fq, subgroup_R("Unip", fq))
    assert not radical_obstruction(fq, subgroup_R("ArtinUnip", fq))


def test_sampler_budget_failure_is_reported(monkeypatch):
    # the last batch is capped at MAX_DRAWS - draws, so a budget smaller
    # than one batch draws exactly that many rows
    monkeypatch.setattr(padic, "STABLE_WINDOW", 10)
    monkeypatch.setattr(padic, "MAX_DRAWS", 5)
    asked = []

    def spy(ctx, rng, n, rows):
        asked.append(rows)
        return draw_Si(ctx, rng, n, rows)

    monkeypatch.setattr(padic, "draw_Si", spy)
    ctx = PadicCtx(2, 1)
    with pytest.raises(StabilizationFailure, match="after 5 draws"):
        compute_Rg(rg_kernel(ctx, "I", 0, 1), 3, seed=0)
    assert asked == [5]


# -- the batched draw stream ----------------------------------------------------


@pytest.mark.parametrize("p,f,prec", [(2, 1, 32), (3, 1, 48), (2, 2, 80)])
def test_draw_stream_scalars_have_their_documented_ranges(p, f, prec):
    ctx = PadicCtx(p, f, prec=prec)
    rows, n = 4000, 3
    d = draw_Si(ctx, np.random.default_rng(11), n, rows)

    def near(share, want):
        # five standard deviations of a share over `rows` draws
        return abs(share - want) < 5 * math.sqrt(want * (1 - want) / rows)

    assert d.zero.shape == d.val.shape == (rows, 11)
    assert d.coeffs.shape == (rows, 11, f) and d.lam_depth.shape == (rows,)
    names = ("x", "y", "z", "lam", "a1", "a2", "a3", "a4", "b1", "b2", "b3")
    zero, val, coeffs = ({s: a[:, k] for k, s in enumerate(names)}
                         for a in (d.zero, d.val, d.coeffs))
    for s, vmin, zero_p in [("x", n, 0.15), ("y", n, 0.15), ("z", n, 0.15),
                            ("a1", 0, 0), ("a2", 0, 0.25), ("a3", 0, 0.25),
                            ("a4", 0, 0), ("b1", 0, 0.25), ("b2", 0, 0.25),
                            ("b3", 0, 0.25)]:
        assert (val[s][~zero[s]] >= vmin).all()
        assert near(zero[s].mean(), zero_p) if zero_p else not zero[s].any()
        if not zero_p:
            assert (val[s] == 0).all()
        for cs in coeffs[s][:200].tolist():
            assert all(0 <= c < p ** prec for c in cs)
            assert ctx.res_code(cs) in ctx.fq.fq_units
    # geometric(0.5) above vmin has mean 1, geometric(0.45) mean 1/0.45 - 1
    assert abs(val["b1"][~zero["b1"]].mean() - 1) < 0.1
    assert abs(val["a2"][~zero["a2"]].mean() - (1 / 0.45 - 1)) < 0.12
    depth = d.lam_depth
    assert set(depth.tolist()) == {0, 1, 2}
    assert near((depth == 0).mean(), 0.4) and near((depth == 1).mean(), 0.3)
    unit = depth == 0
    assert not zero["lam"][unit].any() and (val["lam"][unit] == 0).all()
    assert (val["lam"][~zero["lam"]] >= 0).all()
    assert all(ctx.res_code(cs) in ctx.fq.fq_units for cs in coeffs["lam"][:200].tolist())
    assert abs(zero["lam"][~unit].mean() - 0.2) < 5 * math.sqrt(0.16 / (~unit).sum())


@pytest.mark.parametrize("p,f,prec", [(2, 1, 32), (3, 1, 48), (2, 2, 80)])
def test_draw_Si_draws_a_batch_in_a_few_generator_calls(p, f, prec):
    # the zero masks, the valuations, the lam depths, the residues and one
    # call per digit chunk, whatever the number of rows
    ctx = PadicCtx(p, f, prec=prec)

    class Counting:
        calls = 0

        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def counted(*args, **kwargs):
                Counting.calls += 1
                return method(*args, **kwargs)
            return counted

    rng = Counting(np.random.default_rng(0))
    for rows in (1, 256):
        Counting.calls = 0
        draw_Si(ctx, rng, 3, rows)
        assert Counting.calls <= 4 + len(ctx._digit_bounds)


def test_kernel_element_type_is_uint64_only_where_exact():
    for (p, f, prec), want in [((2, 1, 32), np.uint64), ((2, 1, 33), object),
                               ((2, 2, 16), object), ((3, 1, 16), object)]:
        ctx = PadicCtx(p, f, prec=prec)
        assert ctx.dtype is want
        kernel = rg_kernel(ctx, "I", 0, 2)
        assert kernel.ctx is ctx
        assert kernel.G.dtype == kernel.Gi.dtype == kernel.low.dtype == want


# -- the fixed-point kernel against reduce_K on PadicScalars --------------------


def reference_Rg(g, n, seed=0):
    """The sampling loop on PadicScalars alone: the batches of draw_Si, every
    row built by build_Si, g s g^-1 and reduce_K, with no kernel, and the
    tuple closure.  Returns (elements, draws, accepted), or the
    StabilizationFailure text.  Only NotInK rejects a draw: a draw reduce_K
    cannot decide fails the test."""
    ctx, fq = g.ctx, g.ctx.fq
    rng = np.random.default_rng(seed)
    gi = g.inv()
    grp = {gl22_identity(fq)}
    draws = accepted = since_growth = 0
    while draws < padic.MAX_DRAWS:
        rows = min(padic.BATCH, padic.MAX_DRAWS - draws)
        batch = draw_Si(ctx, rng, n, rows)
        for row in range(rows):
            draws += 1
            try:
                r = reduce_K(g @ build_Si(ctx, batch, row) @ gi)
            except NotInK:
                continue
            accepted += 1
            if r in grp:
                since_growth += 1
                if since_growth >= padic.STABLE_WINDOW:
                    return grp, draws, accepted
            else:
                grp = subgroup_closure_ref(fq, list(grp) + [r])
                since_growth = 0
    return f"no stable window after {padic.MAX_DRAWS} draws ({accepted} accepted)"


def kernel_Rg(kernel, n, seed=0):
    """compute_Rg in the shape of reference_Rg."""
    try:
        res = compute_Rg(kernel, n, seed=seed)
    except StabilizationFailure as exc:
        return str(exc)
    return set(res.group), res.draws, res.accepted


ON_SUPPORT = [(prm.tag, prm.i, prm.j, prm.u, n) for n in range(3, 6)
              for prm in enumerate_support(build_field(2, 1), n)]
# the first four off-support triples (n, i, j) that `rg` samples
OFF_SUPPORT = [("I", i, j, None, n) for n, i, j in
               [(3, 0, 2), (3, 0, 3), (3, 0, 4), (3, 1, 1)]]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("tag,i,j,u,n", ON_SUPPORT + OFF_SUPPORT)
def test_compute_Rg_equals_the_reference_loop(tag, i, j, u, n, seed):
    ctx = PadicCtx(2, 1)
    kernel = rg_kernel(ctx, tag, i, j, u)
    assert kernel.ctx is ctx
    g = coset_rep(ctx, tag, i, j, u)
    assert kernel_Rg(kernel, n, seed) == reference_Rg(g, n, seed)


def test_compute_Rg_equals_the_reference_loop_at_q4():
    ctx = PadicCtx(2, 2)
    kernel = rg_kernel(ctx, "II", 0, 2)
    assert kernel.ctx is ctx
    g = coset_rep(ctx, "II", 0, 2)
    assert kernel_Rg(kernel, 4, seed=7) == reference_Rg(g, 4, seed=7)


def test_short_margin_kernel_is_built_at_the_precision_it_needs(monkeypatch):
    # t(1, 1) has shift -3 on g^-1: at precision 8 the deepest digit read,
    # p^1 of g41, leaves 3 < GUARD digits of margin, so RgKernel refuses
    # the representative and rg_kernel builds it at precision 9, the least
    # that leaves GUARD; a smaller budget keeps a failure of both loops quick
    monkeypatch.setattr(padic, "MAX_DRAWS", 3000)
    ctx = PadicCtx(2, 1, prec=8)
    g = coset_rep(ctx, "I", 1, 1)
    with pytest.raises(PrecisionExhausted) as exc:
        RgKernel(g, g.inv())
    assert exc.value.short == 1
    kernel = rg_kernel(ctx, "I", 1, 1)
    assert kernel.ctx.prec == 9
    # one context per precision, whatever the precision a coset starts from
    assert rg_kernel(PadicCtx(2, 1, prec=6), "I", 1, 1).ctx is kernel.ctx
    got = kernel_Rg(kernel, 5, seed=0)
    assert got == reference_Rg(coset_rep(kernel.ctx, "I", 1, 1), 5, seed=0)
    assert got[2] > 0


def _coset_params(data, fq):
    tag = data.draw(st.sampled_from(COSET_TAGS))
    u = None
    if tag in ("IIIa", "IV"):
        u = data.draw(st.sampled_from(fq.fq_units))
    elif tag == "IIIb":
        u = data.draw(st.sampled_from(fq.fq_elements))
    return tag, data.draw(st.integers(0, 2)), data.draw(st.integers(1, 5)), u


def _kernel_margin(g, gi):
    """The digits to which g s g^-1 is known past the deepest digit
    reduce_K tests or reads: g and g^-1 are known to their least absolute
    precision, shifted by their least unit valuation, and to prec."""
    shift, digits = 0, g.ctx.prec
    for m in (g.m, gi.m):
        entries = [e for row in m for e in row if e.kind != "zero"]
        low = min(e.val for e in entries if e.kind == "unit")
        known = min(e.val + e.rel if e.kind == "unit" else e.aprec for e in entries)
        shift, digits = shift + low, min(digits, known - low)
    deepest = max(max(map(max, _K_FLOOR)), max(_K_FLOOR[r][c] + 1 for r, c in _K_READS))
    return digits - (deepest - shift)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_exact_product_and_reduction(data):
    p, f = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    # 32 and 33 straddle the uint64 element type at p = 2, f = 1
    prec = data.draw(st.one_of(st.integers(GUARD, 80), st.sampled_from([32, 33])))
    ctx = PadicCtx(p, f, prec=prec)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    g = coset_rep(ctx, *_coset_params(data, ctx.fq))
    if data.draw(st.booleans()):
        g = g.inv()  # negative shift on the kernel's g
    if data.draw(st.booleans()):
        # conjugates the image by the reduction of a random element of K,
        # so that every residue reduce_K reads, p g14 included, varies
        g = rand_K(ctx, rng) @ g
    gi = g.inv()
    short = GUARD - _kernel_margin(g, gi)
    if short > 0:
        with pytest.raises(PrecisionExhausted) as exc:
            RgKernel(g, gi)
        assert exc.value.short == short
        return
    kernel = RgKernel(g, gi)
    n = data.draw(st.integers(1, 7))
    d = draw_Si(ctx, rng, n, 8)
    v = kernel._scalars(d)
    mu = kernel._mu(v)
    H = kernel._matrix(v)
    in_k, codes = kernel.reduce(d)
    top = kernel.shift + kernel.digits
    for row in range(8):
        h = g @ build_Si(ctx, d, row) @ gi
        assert (h.mu - ctx.unit(0, mu[row].tolist())).val_ge(prec)
        for hrow, krow in zip(h.m, H[row]):
            for e, cs in zip(hrow, krow):
                assert (e - ctx.unit(kernel.shift, cs.tolist(),
                                     rel=kernel.digits)).val_ge(top)
        try:
            want = reduce_K(h)
        except (NotInK, PrecisionExhausted):
            want = None
        got = gl22_elems(codes[row:row + 1])[0] if in_k[row] else None
        assert got == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_batched_kernel_matches_the_per_draw_reference(n):
    ctx = PadicCtx(2, 1)
    rng = np.random.default_rng(n)
    hits = 0
    for prm in enumerate_support(ctx.fq, n):
        g = coset_rep(ctx, *prm)
        kernel, slow = rg_kernel(ctx, *prm), ScalarRgKernel(g, g.inv())
        d = draw_Si(ctx, rng, n, 384)
        in_k, codes = kernel.reduce(d)
        for row, (ok, code) in enumerate(zip(in_k, gl22_elems(codes))):
            want = slow.reduce_row(d, row)
            assert (code if ok else None) == want
            hits += want is not None
    assert hits > 0


def test_off_anti_diagonal_floors_decide_draws_the_others_pass():
    # t(0, 4) conjugates s_lower(x, 0, 0), x of valuation n = 3, to
    # s_lower(x / p^4, 0, 0): its anti-diagonal is zero and both residue
    # factors are the identity, so only the floors of (2, 0) and (3, 1),
    # which it misses by two digits, keep it out of K
    ctx = PadicCtx(2, 1)
    g = coset_rep(ctx, "I", 0, 4)
    # one row: x = p^3, lam = a1 = a4 = 1, the other scalars exact zeros
    # (None), in the columns x, y, z, lam, a1, a2, a3, a4, b1, b2, b3
    vals = [3, None, None, 0, 0, None, None, 0, None, None, None]
    d = padic.SiDraws(zero=np.array([[v is None for v in vals]]),
                      val=np.array([[v or 0 for v in vals]]),
                      coeffs=np.ones((1, 11, 1), np.int64),
                      lam_depth=np.zeros(1, np.int64))
    s = build_Si(ctx, d, 0)
    assert in_Si(s, 3)
    with pytest.raises(NotInK):
        reduce_K(g @ s @ g.inv())
    assert rg_kernel(ctx, "I", 0, 4).reduce(d)[0].tolist() == [False]
    others = [(r, c) for r in range(4) for c in range(4) if r + c != 3]
    for keep in ([], [(2, 0)], [(3, 1)]):
        kernel = rg_kernel(ctx, "I", 0, 4)
        for r, c in others:
            if (r, c) not in keep:
                kernel.low[r, c] = 1
        in_k, codes = kernel.reduce(d)
        assert in_k.tolist() == [not keep]
        if not keep:
            assert gl22_elems(codes) == [gl22_identity(ctx.fq)]
