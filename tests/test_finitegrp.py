import functools
import random
import struct
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelvec.finitegrp import (
    BadKind, GL22Elem, GL2Elem, SubgroupR, UnsupportedSize,
    build_field, conjugate_subgroups, conjugates_into,
    enumerate_gl2, enumerate_gl22, gl22_codes, gl22_elems, gl22_identity,
    gl22_mul, gl22_rows, gl22_valid, gl2_classes, gl2_det,
    gl2_identity, gl2_mul, gl2_table, subgroup_R, subgroup_closure,
    u_action, u_action_rows, u_image,
)
from siegelvec.numerics import certify_integer, root_of_unity

from reference import (artin_schreier_set, gl2_class, gl22_inv, gl2_inv,
                       subgroup_closure_ref, subgroup_elements_ref)


# -- reference: the scalar conjugation predicate and enumerations -----------

def conjugates_into_ref(ctx, x: GL22Elem, A, B) -> bool:
    """Whether x a x^-1 lies in B for every a in A, one product at a time."""
    xi = gl22_inv(ctx, x)
    return all(gl22_mul(ctx, gl22_mul(ctx, x, a), xi) in B for a in A)


def enumerate_gl2_ref(ctx) -> list:
    els = ctx.fq_elements
    return [GL2Elem(a, b, c, d) for a in els for b in els for c in els for d in els
            if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != 0]


def enumerate_gl22_ref(ctx) -> list:
    by_det: dict = {}
    for g in enumerate_gl2_ref(ctx):
        by_det.setdefault(gl2_det(ctx, g), []).append(g)
    return [GL22Elem(g, h) for det in ctx.fq_units
            for g in by_det[det] for h in by_det[det]]


# -- reference: the order-2 extension GL22(q) x| <u> as (base, eps) pairs ----

class ExtElem(NamedTuple):
    base: GL22Elem
    eps: int


def ext_mul(ctx, x: ExtElem, y: ExtElem) -> ExtElem:
    yb = u_action(ctx, y.base) if x.eps else y.base
    return ExtElem(gl22_mul(ctx, x.base, yb), x.eps ^ y.eps)


def ext_inv(ctx, x: ExtElem) -> ExtElem:
    bi = gl22_inv(ctx, x.base)
    if x.eps:
        bi = u_action(ctx, bi)
    return ExtElem(bi, x.eps)


def _ext_normalizes(ctx, x: GL22Elem, R) -> bool:
    """Whether s = (x, 1) normalizes R, by products in the extension."""
    s = ExtElem(x, 1)
    si = ext_inv(ctx, s)
    for r in R:
        c = ext_mul(ctx, ext_mul(ctx, s, ExtElem(r, 0)), si)
        if c.eps != 0 or c.base not in R:
            return False
    return True

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)]


@pytest.mark.parametrize("p,f", FIELDS)
def test_field_tables_consistent(p, f):
    ctx = build_field(p, f)
    q = p ** f
    assert ctx.q == q and ctx.q2 == q * q
    # multiplicative orders
    assert ctx.power(ctx.gen2, q * q - 1) == ctx.one
    seen = {ctx.power(ctx.gen2, e) for e in range(q * q - 1)}
    assert len(seen) == q * q - 1
    # F_q is closed under + and *
    for a in ctx.fq_elements:
        for b in ctx.fq_elements:
            assert ctx.in_fq(ctx.add(a, b))
            assert ctx.in_fq(ctx.mul(a, b))
    # field axioms on a sample
    for a in ctx.fq_elements:
        assert ctx.add(a, ctx.neg(a)) == 0
        if a != 0:
            assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_build_field_rejects_oversize_and_nonprime():
    with pytest.raises(UnsupportedSize):
        build_field(17, 1)
    with pytest.raises(UnsupportedSize):
        build_field(2, 5)
    with pytest.raises(UnsupportedSize):
        build_field(4, 1)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_norm_surjects_and_trace_behaves(p, f):
    ctx = build_field(p, f)

    def norm2(a):
        """Norm F_{q^2} -> F_q, t -> t^(q+1)."""
        return ctx.power(a, ctx.q + 1) if a else 0

    def trace2(a):
        """Trace F_{q^2} -> F_q, t -> t + t^q."""
        return ctx.add(a, ctx.frob_q(a))

    norms = {norm2(ctx.exp2(e)) for e in range(ctx.q2 - 1)}
    assert norms == set(ctx.fq_units)
    assert norm2(ctx.gen2) == ctx.fq_gen
    for e in range(ctx.q2 - 1):
        t = trace2(ctx.exp2(e))
        assert ctx.in_fq(t)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_psi_nontrivial(p, f):
    ctx = build_field(p, f)
    total = sum((ctx.psi(x) for x in ctx.fq_elements), 0)
    assert certify_integer(total) == 0
    assert any(ctx.trace_to_fp(x) != 0 for x in ctx.fq_elements)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_psi_table_is_bit_identical_to_trace_formula(p, f):
    ctx = build_field(p, f)
    for a in ctx.fq_elements:
        want = root_of_unity(p, ctx.trace_to_fp(a))
        got = ctx.psi(a)
        assert struct.pack("<dd", got.real, got.imag) == \
            struct.pack("<dd", want.real, want.imag)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_gl2_class_counts_classes_and_is_conjugation_invariant(p, f):
    ctx = build_field(p, f)
    elems = enumerate_gl2(ctx)
    # GL2(q) has q^2 - 1 conjugacy classes: q - 1 central, q - 1
    # non-semisimple, (q-1)(q-2)/2 split and q(q-1)/2 elliptic
    assert len({gl2_class(ctx, g) for g in elems}) == ctx.q2 - 1
    rng = random.Random(p * 10 + f)
    for x in rng.sample(elems, min(8, len(elems))):
        xi = gl2_inv(ctx, x)
        for g in elems:
            assert gl2_class(ctx, gl2_mul(ctx, gl2_mul(ctx, x, g), xi)) == \
                gl2_class(ctx, g)


def test_gl2_orders():
    assert len(enumerate_gl2(build_field(2, 1))) == 6
    assert len(enumerate_gl2(build_field(3, 1))) == 48
    assert len(enumerate_gl2(build_field(2, 2))) == 180


def test_gl22_orders():
    assert len(enumerate_gl22(build_field(2, 1))) == 36
    assert len(enumerate_gl22(build_field(3, 1))) == 1152
    assert len(enumerate_gl22(build_field(2, 2))) == 10800


def test_gl22_enumeration_respects_caps():
    with pytest.raises(UnsupportedSize):
        enumerate_gl22(build_field(2, 4))


def test_matrix_inverse_and_det():
    ctx = build_field(3, 1)
    for g in enumerate_gl2(ctx)[::7]:
        gi = gl2_inv(ctx, g)
        assert gl2_mul(ctx, g, gi) == gl2_identity(ctx)
        assert ctx.mul(gl2_det(ctx, g), gl2_det(ctx, gi)) == ctx.one


def test_u_action_is_an_involution_preserving_det():
    ctx = build_field(3, 1)
    for x in enumerate_gl22(ctx)[::17]:
        y = u_action(ctx, x)
        assert gl22_valid(ctx, y)
        assert u_action(ctx, y) == x
    assert u_action(ctx, gl22_identity(ctx)) == gl22_identity(ctx)


def test_u_action_on_diagonals():
    ctx = build_field(5, 1)
    a, b = ctx.fq_units[1], ctx.fq_units[2]
    c = ctx.fq_units[3]
    d = ctx.mul(ctx.mul(a, b), ctx.inv(c))
    x = GL22Elem(GL2Elem(a, 0, 0, b), GL2Elem(c, 0, 0, d))
    y = u_action(ctx, x)
    assert y == GL22Elem(GL2Elem(d, 0, 0, c), GL2Elem(b, 0, 0, a))


def test_ext_group_multiplication():
    ctx = build_field(3, 1)
    g = GL22Elem(GL2Elem(ctx.one, 0, ctx.one, ctx.one), GL2Elem(ctx.one, 0, ctx.one, ctx.one))
    u = ExtElem(gl22_identity(ctx), 1)
    x = ExtElem(g, 0)
    # u x u^-1 should carry the u_action on the base
    y = ext_mul(ctx, ext_mul(ctx, u, x), ext_inv(ctx, u))
    assert y.eps == 0
    assert y.base == u_action(ctx, g)
    assert ext_mul(ctx, u, u) == ExtElem(gl22_identity(ctx), 0)


@pytest.mark.parametrize("kind,q,size", [
    ("Torus", 2, 1), ("Torus", 3, 8), ("Torus", 4, 27), ("Torus", 5, 64),
    ("Unip", 2, 2), ("Unip", 3, 6), ("Unip", 4, 12),
    ("ArtinUnip", 2, 2), ("ArtinUnip", 4, 24),
    ("U1", 3, 3), ("U2", 5, 5),
])
def test_subgroup_sizes(kind, q, size):
    p, f = (2, {2: 1, 4: 2}[q]) if q % 2 == 0 else (q, 1)
    ctx = build_field(p, f)
    R = subgroup_R(kind, ctx)
    assert len(R) == size
    # closure property
    els = list(R)
    for x in els[:6]:
        assert gl22_inv(ctx, x) in R
        for y in els[:6]:
            assert gl22_mul(ctx, x, y) in R


def test_artin_schreier_set_size():
    for f in (1, 2, 3):
        ctx = build_field(2, f)
        assert len(artin_schreier_set(ctx)) == ctx.q // 2


def test_artin_unip_requires_even_q():
    with pytest.raises(BadKind):
        subgroup_R("ArtinUnip", build_field(3, 1))
    with pytest.raises(BadKind):
        subgroup_R("nonsense", build_field(2, 1))


def test_subgroup_closure():
    ctx = build_field(3, 1)
    trivial = subgroup_closure(ctx, gl22_rows([gl22_identity(ctx)]))
    assert len(trivial) == 1 and trivial.gens.shape == (0, 8)
    u1 = subgroup_R("U1", ctx)
    gen = next(x for x in u1 if x != gl22_identity(ctx))
    assert len(subgroup_closure(ctx, gl22_rows([gen]))) == ctx.q
    torus = subgroup_R("Torus", ctx)
    again = subgroup_closure(ctx, torus.rows)
    assert np.array_equal(again.rows, torus.rows)
    assert len(again.gens) <= 3                  # log2 |torus| = 3 at q = 3
    order = len(enumerate_gl22(ctx))
    assert order % len(torus) == 0


def test_conjugate_subgroups_witness_and_absence():
    ctx = build_field(2, 1)
    u1 = subgroup_R("U1", ctx)
    u2 = subgroup_R("U2", ctx)
    w = conjugate_subgroups(u1, u1, ctx)
    assert w is not None
    assert conjugate_subgroups(u1, u2, ctx) is None
    # constructed conjugate pair
    ctx3 = build_field(3, 1)
    unip = subgroup_R("Unip", ctx3)
    t = GL22Elem(GL2Elem(ctx3.fq_gen, 0, 0, ctx3.one), GL2Elem(ctx3.fq_gen, 0, 0, ctx3.one))
    ti = gl22_inv(ctx3, t)
    conj = SubgroupR(ctx3, gl22_rows([gl22_mul(ctx3, gl22_mul(ctx3, t, x), ti)
                                      for x in unip]), "Custom")
    w2 = conjugate_subgroups(unip, conj, ctx3)
    assert w2 is not None
    wi = gl22_inv(ctx3, w2)
    assert all(gl22_mul(ctx3, gl22_mul(ctx3, w2, x), wi) in conj for x in unip)


def test_conjugates_into_matches_extension_products():
    ctx = build_field(3, 1)
    group = enumerate_gl22(ctx)
    for kind in ("Torus", "Unip", "U1", "U2"):
        R = subgroup_R(kind, ctx)
        got = conjugates_into(ctx, gl22_codes(ctx), u_image(ctx, R).gens, R)
        assert got.tolist() == [_ext_normalizes(ctx, x, R) for x in group]


def test_center_of_gl22_has_equal_scalar_index_two():
    ctx = build_field(3, 1)
    group = enumerate_gl22(ctx)
    center = [x for x in group
              if all(gl22_mul(ctx, x, g) == gl22_mul(ctx, g, x) for g in group)]
    diag_scalars = [x for x in center
                    if x.first == x.second and x.first.b == 0 and x.first.c == 0
                    and x.first.a == x.first.d]
    assert len(center) == 2 * len(diag_scalars)
    m1 = ctx.neg(ctx.one)
    rep = GL22Elem(gl2_identity(ctx), GL2Elem(m1, 0, 0, m1))
    assert rep in center and rep not in diag_scalars


# -- integer-coded tables and the batched predicate -------------------------

SUPPORTED = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
SMALL = [(2, 1), (3, 1), (2, 2), (5, 1)]
KINDS = ("Torus", "Unip", "ArtinUnip", "U1", "U2")


def _kinds(ctx):
    return [k for k in KINDS if k != "ArtinUnip" or ctx.q % 2 == 0]


@pytest.mark.parametrize("p,f", SMALL[:3])
def test_code_arrays_follow_the_scalar_enumerations(p, f):
    ctx = build_field(p, f)
    assert enumerate_gl2(ctx) == enumerate_gl2_ref(ctx)
    assert enumerate_gl22(ctx) == enumerate_gl22_ref(ctx)
    X = gl22_codes(ctx)
    assert X.dtype == np.uint8 and not X.flags.writeable
    assert gl22_elems(gl22_rows(enumerate_gl22(ctx))) == enumerate_gl22(ctx)


@pytest.mark.parametrize("p,f", SUPPORTED)
def test_gl2_table_classes_and_dets_match_the_scalar_keys(p, f):
    ctx = build_field(p, f)
    table = gl2_table(ctx)
    elems = enumerate_gl2(ctx)
    assert [table.classes[c] for c in table.cls.tolist()] == \
        [gl2_class(ctx, g) for g in elems]
    assert table.det.tolist() == [gl2_det(ctx, g) for g in elems]
    assert len(set(table.cls.tolist())) == ctx.q2 - 1
    assert gl2_classes(ctx, table.codes[::-1]).tolist() == table.cls[::-1].tolist()


@pytest.mark.parametrize("p,f", SMALL)
def test_u_action_rows_match_u_action(p, f):
    ctx = build_field(p, f)
    X = gl22_codes(ctx)[::5]
    assert gl22_elems(u_action_rows(ctx, X)) == [u_action(ctx, x) for x in gl22_elems(X)]


@pytest.mark.parametrize("p,f", SUPPORTED)
def test_subgroup_generators_close_to_exactly_the_elements(p, f):
    ctx = build_field(p, f)
    for kind in _kinds(ctx):
        R = subgroup_R(kind, ctx)
        assert set(R) == subgroup_elements_ref(kind, ctx), kind
        assert np.array_equal(subgroup_closure(ctx, R.gens).rows, R.rows), kind
        uR = u_image(ctx, R)
        assert np.array_equal(subgroup_closure(ctx, uR.gens).rows, uR.rows), kind


def _pair_counts(c1, c2, count) -> dict:
    return dict(zip(zip(c1.tolist(), c2.tolist()), count.tolist()))


@pytest.mark.parametrize("p,f", SUPPORTED)
def test_class_pairs_count_the_factor_classes_and_swap_under_u(p, f):
    # against the class key of each factor of each element, one at a time;
    # u keeps each factor's class and swaps the factors
    ctx = build_field(p, f)
    index = {key: i for i, key in enumerate(gl2_table(ctx).classes)}
    for kind in _kinds(ctx):
        R = subgroup_R(kind, ctx)
        c1, c2, count = R.class_pairs
        assert R.class_pairs is R.class_pairs  # computed once per group
        want = {}
        for x in R:
            key = index[gl2_class(ctx, x.first)], index[gl2_class(ctx, x.second)]
            want[key] = want.get(key, 0) + 1
        assert _pair_counts(c1, c2, count) == want, kind
        assert sorted(want) == list(zip(c1.tolist(), c2.tolist())), kind
        assert _pair_counts(*u_image(ctx, R).class_pairs) == \
            _pair_counts(c2, c1, count), kind


@st.composite
def _generator_lists(draw):
    """A field of order 2, 3, 4, 5 or 8 and a list of GL22 elements: a
    standard kind's generators, a few of its elements, or (q <= 4) a few
    elements of the whole group."""
    ctx = build_field(*draw(st.sampled_from(SMALL + [(2, 3)])))
    R = subgroup_R(draw(st.sampled_from(_kinds(ctx))), ctx)
    how = draw(st.sampled_from(["gens", "elements", "group"]))
    if how == "gens":
        return ctx, gl22_elems(R.gens)
    if how == "group" and ctx.q <= 4:
        return ctx, draw(st.lists(st.sampled_from(_group(ctx.p, ctx.f)), max_size=3))
    return ctx, draw(st.lists(st.sampled_from(list(R)), max_size=4))


@settings(max_examples=80, deadline=None)
@given(_generator_lists())
def test_row_closure_matches_the_tuple_reference(case):
    ctx, gens = case
    R = subgroup_closure(ctx, gl22_rows(gens))
    assert set(R) == subgroup_closure_ref(ctx, gens)
    assert len(R) == len(R.rows) and (np.diff(R.keys) > 0).all()
    kept = gl22_elems(R.gens)
    rest = iter(gens)
    assert all(g in rest for g in kept)          # a sub-list, in order
    for i, g in enumerate(kept):
        # each kept generator enlarges the group of the ones before it
        assert g not in subgroup_closure_ref(ctx, kept[:i])
    assert 2 ** len(kept) <= len(R)


@functools.cache
def _group(p, f):
    return enumerate_gl22(build_field(p, f))


def _conj(ctx, y, g):
    return gl22_mul(ctx, gl22_mul(ctx, y, g), gl22_inv(ctx, y))


@st.composite
def _subgroups(draw, ctx):
    """A standard kind, its u-image, a cyclic subgroup, or the closure of
    one or two elements of a kind conjugated by a random element."""
    group = _group(ctx.p, ctx.f)
    R = subgroup_R(draw(st.sampled_from(_kinds(ctx))), ctx)
    how = draw(st.sampled_from(["kind", "u", "cyclic", "conjugate"]))
    if how == "kind":
        return R
    if how == "u":
        return u_image(ctx, R)
    if how == "cyclic":
        return subgroup_closure(ctx, gl22_rows([draw(st.sampled_from(group))]))
    y = draw(st.sampled_from(group))
    gens = draw(st.lists(st.sampled_from(list(R)), min_size=1, max_size=2))
    return subgroup_closure(ctx, gl22_rows([_conj(ctx, y, g) for g in gens]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batched_conjugates_into_matches_the_scalar_reference(data):
    ctx = build_field(*data.draw(st.sampled_from(SMALL)))
    group = _group(ctx.p, ctx.f)
    A = data.draw(_subgroups(ctx))
    rows = data.draw(st.lists(st.integers(0, len(group) - 1), min_size=1, max_size=24))
    if data.draw(st.booleans()):
        # a target that the first row conjugates A onto
        B = subgroup_closure(ctx, gl22_rows([_conj(ctx, group[rows[0]], g)
                                             for g in gl22_elems(A.gens)]))
    else:
        B = data.draw(_subgroups(ctx))
    got = conjugates_into(ctx, gl22_codes(ctx)[rows], A.gens, B)
    assert got.tolist() == [conjugates_into_ref(ctx, group[i], A, B)
                            for i in rows]


def test_conjugates_into_takes_rows_with_unequal_determinants():
    ctx = build_field(5, 1)
    R = subgroup_R("Torus", ctx)
    s = GL22Elem(GL2Elem(ctx.fq_gen, 0, 0, ctx.one), gl2_identity(ctx))
    assert conjugates_into(ctx, gl22_rows([s]), R.gens, R).tolist() == [True]
    unip = subgroup_R("Unip", ctx)
    assert conjugates_into(ctx, gl22_rows([s]), unip.gens, unip).tolist() == [False]
    assert conjugates_into_ref(ctx, s, unip, unip) is False
