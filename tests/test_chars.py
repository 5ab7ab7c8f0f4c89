"""Character layer: cuspidal characters, sigma labels, closed fixed dims."""

import collections
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelvec.finitegrp import (
    GL2Elem, GL22Elem, build_field, conjugates_into, enumerate_gl2,
    gl2_mul, gl2_table, gl22_codes, gl22_identity, gl22_rows, subgroup_R,
    subgroup_closure, u_action, u_action_rows, u_image,
)
from siegelvec.chars import (
    BadCase, HypothesisViolated, OracleRequired, SigmaLabel,
    all_cuspidal_exponents, canonical_cuspidal, char_values,
    cuspidal_classes, fixed_dim, fixed_dim_closed,
    fixed_dim_u_twist, induced_trace_zero, is_self_twisted, lambda_omega_class,
    make_sigma, omega_minus1, omega_trivial_sigma_classes, self_twist_presentations,
    sigma_is_reducible, sigma_key, sigma_omega_trivial, split_restriction,
    twisted_trace_closed, valid_cuspidal,
)
from siegelvec.numerics import KINDS, certify_integer, standard_kinds

from reference import (classify_gl2, cuspidal_char, cuspidal_char_reference,
                       gl2_class, gl2_inv, sigma_key_search)


# The character tables feed both the closed side and the matrix-model
# projector, so they are checked against the reference character, which
# finds each element's eigenvalues by a root search over F_{q^2}.

def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


# -- label helpers used only by these tests -----------------------------------

def sigma_dim(ctx, sigma):
    d = (ctx.q - 1) ** 2
    return d if sigma.constituent == "Full" else d // 2


def sigma_equiv(ctx, s1, s2):
    return sigma_key(ctx, s1) == sigma_key(ctx, s2)


def u1_twist(ctx, sigma):
    """Label of the composition with the u-action (factor swap + w-conj)."""
    return SigmaLabel(sigma.k2, sigma.k1, sigma.constituent)


def _diag_pair(x):
    return x.first.b == 0 and x.first.c == 0 and x.second.b == 0 and x.second.c == 0


def sigma_char(ctx, sigma, x, oracle=None):
    """Character value of the labeled representation at x.

    Full labels multiply the two cuspidal characters.  Constituents are
    computed in closed form on diagonal pairs (where the two constituents
    agree, each contributing half the full value) and otherwise require
    the oracle handle."""
    full = cuspidal_char(ctx, sigma.k1, x.first) * cuspidal_char(ctx, sigma.k2, x.second)
    if sigma.constituent == "Full":
        return full
    if _diag_pair(x):
        return full / 2.0
    if oracle is None:
        raise OracleRequired("constituent character off the diagonal needs the oracle")
    return complex(np.trace(oracle.mat(x)))


# -- cuspidal labels and characters ----------------------------------------

@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_cuspidal_exponent_count(p, f):
    ctx = build_field(p, f)
    q = ctx.q
    assert len(all_cuspidal_exponents(ctx)) == q * (q - 1)
    assert len(cuspidal_classes(ctx)) == q * (q - 1) // 2


def test_canonical_cuspidal_orbits_q3():
    ctx = build_field(3, 1)
    orbits = {}
    for k in all_cuspidal_exponents(ctx):
        orbits.setdefault(canonical_cuspidal(ctx, k), set()).add(k)
    assert orbits == {1: {1, 3}, 2: {2, 6}, 5: {5, 7}}


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1)])
def test_char_is_class_function(p, f):
    ctx = build_field(p, f)
    elems = enumerate_gl2(ctx)
    k = all_cuspidal_exponents(ctx)[0]
    for g in elems[::7]:
        vg = cuspidal_char(ctx, k, g)
        for h in elems[::11]:
            conj = gl2_mul(ctx, gl2_mul(ctx, h, g), gl2_inv(ctx, h))
            assert abs(cuspidal_char(ctx, k, conj) - vg) < 1e-9


def test_char_dimension_is_q_minus_1():
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        ctx = build_field(p, f)
        ident = GL2Elem(ctx.one, 0, 0, ctx.one)
        for k in cuspidal_classes(ctx):
            assert certify_integer(cuspidal_char(ctx, k, ident)) == ctx.q - 1


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_char_orthogonality(p, f):
    ctx = build_field(p, f)
    elems = enumerate_gl2(ctx)
    classes = cuspidal_classes(ctx)
    for k1 in classes:
        for k2 in classes:
            total = 0.0
            for g in elems:
                total += cuspidal_char(ctx, k1, g) * \
                    cuspidal_char(ctx, k2, g).conjugate()
            got = certify_integer(total / len(elems))
            assert got == (1 if k1 == k2 else 0)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_cuspidal_char_matches_classifier_reference_bit_for_bit(p, f):
    # the production array read at each element's class key, found one
    # element at a time, against the character from its eigenvalues
    ctx = build_field(p, f)
    index = {key: i for i, key in enumerate(gl2_table(ctx).classes)}
    elems = enumerate_gl2(ctx)
    for k in cuspidal_classes(ctx):
        values = char_values(ctx, k)
        for g in elems:
            assert _bits(complex(values[index[gl2_class(ctx, g)]])) == \
                _bits(cuspidal_char(ctx, k, g)), (k, g)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_char_values_by_class_match_the_scalar_character_bit_for_bit(p, f):
    ctx = build_field(p, f)
    table = gl2_table(ctx)
    elems = enumerate_gl2(ctx)
    for k in cuspidal_classes(ctx):
        got = char_values(ctx, k)[table.cls]
        assert [_bits(v) for v in got.tolist()] == \
            [_bits(cuspidal_char(ctx, k, g)) for g in elems], k


def _averages_ref(ctx, labels, elems) -> dict:
    """Every full label averaged over elems, each element's factors
    classified one at a time and valued from their eigenvalues (the sum
    grouped by the pair of types, so that every label reads one pass)."""
    types = collections.Counter((classify_gl2(ctx, x.first), classify_gl2(ctx, x.second))
                                for x in elems)
    return {s: certify_integer(sum(
        n * cuspidal_char_reference(ctx, s.k1, *t1) * cuspidal_char_reference(ctx, s.k2, *t2)
        for (t1, t2), n in types.items()) / len(elems)) for s in labels}


def _elliptic_cycle(ctx):
    """The cyclic group of (g, 1), g in SL2(q) elliptic: unlike the standard
    groups, its class pairs differ from their swap."""
    one = ctx.one
    tr = next(t for t in ctx.fq_elements if all(
        ctx.add(ctx.sub(ctx.mul(x, x), ctx.mul(t, x)), one) != 0 for x in ctx.fq_elements))
    g = GL2Elem(0, ctx.neg(one), one, tr)
    return subgroup_closure(ctx, gl22_rows([GL22Elem(g, GL2Elem(one, 0, 0, one))]))


@pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])
def test_fixed_dims_match_the_per_element_average(p, f):
    # the class-pair sum against the character of each element
    ctx = build_field(p, f)
    kinds = ["Torus", "Unip", "U1", "U2"] + (["ArtinUnip"] if ctx.q % 2 == 0 else [])
    groups = [subgroup_R(kind, ctx) for kind in kinds] + [_elliptic_cycle(ctx)]
    compared = 0
    for s in omega_trivial_sigma_classes(ctx) + [SigmaLabel(1, 2, "Full")]:
        full = s._replace(constituent="Full")
        for R in groups:
            for fd, elems in ((fixed_dim, list(R)),
                              (fixed_dim_u_twist, [u_action(ctx, r) for r in R])):
                try:
                    got = fd(ctx, s, R)
                except OracleRequired:
                    continue
                share = 1 if s.constituent == "Full" else 2
                assert got * share == _averages_ref(ctx, [full], elems)[full]
                compared += 1
    assert compared >= 2 * len(groups)


@pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_swap_stability_on_u_image_is_u_of_s_on_the_group(p, f):
    # s = (diag(e, 1), 1) normalizes u(R) exactly when u(s) normalizes R
    ctx = build_field(p, f)
    s = gl22_rows([GL22Elem(GL2Elem(ctx.fq_gen, 0, 0, ctx.one), gl22_identity(ctx).first)])
    kinds = ["Torus", "Unip", "U1", "U2"] + (["ArtinUnip"] if ctx.q % 2 == 0 else [])
    for kind in kinds:
        R = subgroup_R(kind, ctx)
        uR = u_image(ctx, R)
        assert conjugates_into(ctx, s, uR.gens, uR)[0] == \
            conjugates_into(ctx, u_action_rows(ctx, s), R.gens, R)[0], kind


def _class_pair_counts(c1, c2, count) -> dict:
    return dict(zip(zip(c1.tolist(), c2.tolist()), count.tolist()))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_u_twist_of_random_subgroups_matches_the_per_element_average(data):
    # the closure of one to three random GL22 rows at q <= 5: u(R)'s class
    # pairs are R's swapped, and every full label's u-twisted fixed dim,
    # read from R's pairs, is its average over the elements of u(R)
    p, f = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]))
    ctx = build_field(p, f)
    X = gl22_codes(ctx)
    picks = data.draw(st.lists(st.integers(0, len(X) - 1), min_size=1, max_size=3))
    R = subgroup_closure(ctx, X[picks])
    c1, c2, count = R.class_pairs
    assert _class_pair_counts(*u_image(ctx, R).class_pairs) == \
        _class_pair_counts(c2, c1, count)
    ks = cuspidal_classes(ctx)
    labels = [SigmaLabel(k1, k2, "Full") for k1 in ks for k2 in ks]
    assert {s: fixed_dim_u_twist(ctx, s, R) for s in labels} == \
        _averages_ref(ctx, labels, [u_action(ctx, r) for r in R])
    assert {s: fixed_dim(ctx, s, R) for s in labels} == \
        _averages_ref(ctx, labels, list(R))


def test_classify_types_q3():
    ctx = build_field(3, 1)
    one = ctx.one
    kind, a = classify_gl2(ctx, GL2Elem(one, 0, 0, one))
    assert kind == "scalar" and a == one
    kind, a = classify_gl2(ctx, GL2Elem(one, one, 0, one))
    assert kind == "nonss" and a == one
    g = ctx.fq_gen
    kind, pair = classify_gl2(ctx, GL2Elem(one, 0, 0, g))
    assert kind == "split" and set(pair) == {one, g}
    # companion matrix of an irreducible quadratic has eigenvalues off F_q
    for m in enumerate_gl2(ctx):
        kind, t = classify_gl2(ctx, m)
        if kind == "elliptic":
            assert not ctx.in_fq(t)
            # t satisfies the characteristic polynomial
            tr = ctx.add(m.a, m.d)
            det = ctx.sub(ctx.mul(m.a, m.d), ctx.mul(m.b, m.c))
            val = ctx.add(ctx.sub(ctx.mul(t, t), ctx.mul(tr, t)), det)
            assert val == 0
            break
    else:
        pytest.fail("no elliptic element found")


def test_split_restriction_matches_character_equation():
    # split iff theta^(q-1) equals the quadratic character of the norm
    for p, f in [(3, 1), (5, 1), (2, 2)]:
        ctx = build_field(p, f)
        q, m = ctx.q, ctx.q2 - 1
        for k in all_cuspidal_exponents(ctx):
            eq = (k * (q - 1)) % m == m // 2 if q % 2 == 1 else False
            assert split_restriction(ctx, k) == eq


def test_split_classes_small_q():
    ctx3 = build_field(3, 1)
    assert {k for k in all_cuspidal_exponents(ctx3) if split_restriction(ctx3, k)} \
        == {2, 6}
    ctx5 = build_field(5, 1)
    assert {k for k in all_cuspidal_exponents(ctx5) if split_restriction(ctx5, k)} \
        == {3, 9, 15, 21}
    ctx4 = build_field(2, 2)
    assert not any(split_restriction(ctx4, k) for k in all_cuspidal_exponents(ctx4))


# -- sigma labels ------------------------------------------------------------

def test_make_sigma_validation():
    ctx = build_field(3, 1)
    with pytest.raises(ValueError):
        make_sigma(ctx, 4, 1)          # 4 is divisible by q+1
    with pytest.raises(ValueError):
        make_sigma(ctx, 1, 2, "Plus")  # k1 = 1 has no split restriction
    s = make_sigma(ctx, 2, 6, "Minus")
    assert s.constituent == "Minus"
    ctx4 = build_field(2, 2)
    with pytest.raises(ValueError):
        make_sigma(ctx4, 1, 2, "Plus")  # no constituents at even q


def test_sigma_dim_and_reducibility():
    ctx = build_field(3, 1)
    assert sigma_dim(ctx, SigmaLabel(1, 2, "Full")) == 4
    assert sigma_dim(ctx, SigmaLabel(2, 6, "Plus")) == 2
    assert sigma_is_reducible(ctx, SigmaLabel(2, 6, "Full"))
    assert not sigma_is_reducible(ctx, SigmaLabel(1, 2, "Full"))


def test_sigma_omega_trivial_tables():
    ctx3 = build_field(3, 1)
    assert sigma_omega_trivial(ctx3, SigmaLabel(2, 6, "Full"))
    assert not sigma_omega_trivial(ctx3, SigmaLabel(1, 1, "Full"))   # omega(-1) = -1
    assert not sigma_omega_trivial(ctx3, SigmaLabel(1, 2, "Full"))   # product nontrivial
    ctx4 = build_field(2, 2)
    assert sigma_omega_trivial(ctx4, SigmaLabel(1, 2, "Full"))
    assert not sigma_omega_trivial(ctx4, SigmaLabel(1, 1, "Full"))
    ctx5 = build_field(5, 1)
    assert sigma_omega_trivial(ctx5, SigmaLabel(2, 2, "Full"))
    assert not sigma_omega_trivial(ctx5, SigmaLabel(2, 4, "Full"))


def test_sigma_key_invariant_under_moves():
    for p, f in [(3, 1), (2, 2)]:
        ctx = build_field(p, f)
        q, m = ctx.q, ctx.q2 - 1
        for k1, k2 in [(1, 1), (1, 2), (2, 1), (2, q + 2)]:
            s = SigmaLabel(k1 % m, k2 % m, "Full")
            key = sigma_key(ctx, s)
            assert sigma_key(ctx, SigmaLabel((q * k1) % m, k2 % m, "Full")) == key
            assert sigma_key(ctx, SigmaLabel(k1 % m, (q * k2) % m, "Full")) == key
            assert sigma_key(
                ctx, SigmaLabel((k1 + q + 1) % m, (k2 - q - 1) % m, "Full")) == key


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_sigma_key_is_the_least_pair_of_the_searched_orbit(p, f):
    ctx = build_field(p, f)
    m = ctx.q2 - 1
    for k1 in range(m):
        for k2 in range(m):
            s = SigmaLabel(k1, k2, ("Full", "Plus", "Minus")[(k1 + k2) % 3])
            assert sigma_key(ctx, s) == sigma_key_search(ctx, s)


def test_self_twist_matches_key_comparison():
    # character comparison, arithmetic presentations, and label equivalence
    # with the swapped label must all agree; at q=4, 5 over the class pairs
    # the induced suite picks its label from
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        ctx = build_field(p, f)
        exps = all_cuspidal_exponents(ctx) if ctx.q < 4 else cuspidal_classes(ctx)
        for k1 in exps:
            for k2 in exps:
                s = SigmaLabel(k1, k2, "Full")
                by_char = is_self_twisted(ctx, s)
                by_pres = bool(self_twist_presentations(ctx, s))
                by_key = sigma_equiv(ctx, s, u1_twist(ctx, s))
                assert by_char == by_pres == by_key


def test_self_twist_examples_q4_q5():
    ctx4 = build_field(2, 2)
    assert not is_self_twisted(ctx4, SigmaLabel(1, 2, "Full"))
    assert not self_twist_presentations(ctx4, SigmaLabel(1, 2, "Full"))
    assert is_self_twisted(ctx4, SigmaLabel(11, 1, "Full"))
    assert self_twist_presentations(ctx4, SigmaLabel(11, 1, "Full"))
    ctx5 = build_field(5, 1)
    for s in omega_trivial_sigma_classes(ctx5):
        assert is_self_twisted(ctx5, s) == bool(self_twist_presentations(ctx5, s))


def test_q7_nontrivial_twist_class_via_presentations():
    ctx = build_field(7, 1)
    s = SigmaLabel(2, 4, "Full")
    assert sigma_omega_trivial(ctx, s)
    assert not self_twist_presentations(ctx, s)
    assert not sigma_equiv(ctx, s, u1_twist(ctx, s))


# -- lambda * omega classification -------------------------------------------

def test_lambda_omega_irreducible_examples():
    ctx5 = build_field(5, 1)
    assert lambda_omega_class(ctx5, SigmaLabel(2, 2, "Full")) == "alpha"
    assert lambda_omega_class(ctx5, SigmaLabel(4, 4, "Full")) == "one"
    assert lambda_omega_class(ctx5, SigmaLabel(2, 14, "Full")) == "one"
    ctx4 = build_field(2, 2)
    assert lambda_omega_class(ctx4, SigmaLabel(11, 1, "Full")) == "one"


def test_lambda_omega_all_omega_trivial_q5_well_defined():
    ctx = build_field(5, 1)
    seen = set()
    for s in omega_trivial_sigma_classes(ctx):
        assert s.constituent == "Full"
        assert not sigma_is_reducible(ctx, s)
        seen.add(lambda_omega_class(ctx, s))
    assert seen == {"one", "alpha"}


def test_lambda_omega_reducible_needs_presentation():
    ctx = build_field(3, 1)
    s = SigmaLabel(2, 6, "Full")
    pres = self_twist_presentations(ctx, s)
    assert (2, 0) in pres and (6, 1) in pres
    with pytest.raises(HypothesisViolated):
        lambda_omega_class(ctx, s)
    assert lambda_omega_class(ctx, s, presentation=(2, 0)) == "one"
    assert lambda_omega_class(ctx, s, presentation=(6, 1)) == "alpha"


def test_lambda_omega_not_self_twisted_raises():
    ctx = build_field(3, 1)
    with pytest.raises(HypothesisViolated):
        lambda_omega_class(ctx, SigmaLabel(1, 2, "Full"))


# -- fixed dimensions ---------------------------------------------------------

def _torus(ctx):
    return subgroup_R("Torus", ctx)


def _unip(ctx):
    return subgroup_R("Unip", ctx)


def test_fixed_dim_full_matches_closed_small_q():
    for p, f in [(2, 1), (3, 1), (2, 2)]:
        ctx = build_field(p, f)
        q = ctx.q
        T, U = _torus(ctx), _unip(ctx)
        for k1 in all_cuspidal_exponents(ctx):
            for k2 in all_cuspidal_exponents(ctx):
                s = SigmaLabel(k1, k2, "Full")
                prod_trivial = (q == 2) or ((k1 + k2) % (q - 1) == 0)
                dT = fixed_dim(ctx, s, T)
                dU = fixed_dim(ctx, s, U)
                if not prod_trivial:
                    assert dT == 0 and dU == 0
                    continue
                if q % 2 == 0:
                    assert dT == fixed_dim_closed("Torus", q)
                else:
                    assert dT == fixed_dim_closed("Torus", q, omega_minus1(ctx, k2))
                assert dU == fixed_dim_closed("Unip", q)


def test_fixed_dim_artin_unip_even_q():
    for p, f in [(2, 1), (2, 2)]:
        ctx = build_field(p, f)
        AU = subgroup_R("ArtinUnip", ctx)
        for k1 in all_cuspidal_exponents(ctx):
            for k2 in all_cuspidal_exponents(ctx):
                s = SigmaLabel(k1, k2, "Full")
                prod_trivial = (ctx.q == 2) or ((k1 + k2) % (ctx.q - 1) == 0)
                want = fixed_dim_closed("ArtinUnip", ctx.q) if prod_trivial else 0
                assert fixed_dim(ctx, s, AU) == want


def test_fixed_dim_cuspidality_on_radicals():
    for p, f in [(2, 1), (3, 1), (2, 2)]:
        ctx = build_field(p, f)
        U1, U2 = subgroup_R("U1", ctx), subgroup_R("U2", ctx)
        for k1 in cuspidal_classes(ctx):
            for k2 in cuspidal_classes(ctx):
                s = SigmaLabel(k1, k2, "Full")
                assert fixed_dim(ctx, s, U1) == 0
                assert fixed_dim(ctx, s, U2) == 0


def test_constituent_fixed_dims_by_halving():
    ctx = build_field(3, 1)
    T, U = _torus(ctx), _unip(ctx)
    for k1, k2 in [(2, 2), (2, 6), (6, 6)]:
        plus = SigmaLabel(k1, k2, "Plus")
        minus = SigmaLabel(k1, k2, "Minus")
        full = SigmaLabel(k1, k2, "Full")
        assert fixed_dim(ctx, plus, T) + fixed_dim(ctx, minus, T) \
            == fixed_dim(ctx, full, T)
        assert fixed_dim(ctx, plus, T) == fixed_dim_closed("Torus", 3, constituent=True)
        # the unipotent family is not stable under the swapping element,
        # so the halving shortcut must refuse and demand the oracle
        with pytest.raises(OracleRequired):
            fixed_dim(ctx, plus, U)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_swap_stability_is_computed(p):
    ctx = build_field(p, 1)
    k = (ctx.q + 1) // 2                  # a label with split restriction
    plus = SigmaLabel(k, k, "Plus")
    full = SigmaLabel(k, k, "Full")
    e, ei = ctx.fq_gen, ctx.inv(ctx.fq_gen)
    # at q = 5 and 7 the elliptic cycle <(g, 1)> is not s-stable, but its
    # u-image is, so the twisted average must test u(s) on the cycle
    for kind in ("Torus", "Unip", "U1", "U2", "cycle"):
        R = subgroup_R(kind, ctx) if kind != "cycle" else _elliptic_cycle(ctx)
        for elems, average in ((set(R), fixed_dim),
                               ({u_action(ctx, r) for r in R}, fixed_dim_u_twist)):
            # reference: s = (diag(e, 1), 1) conjugates (g, h) to
            # ([[a, e b], [c / e, d]], h) for g = [[a, b], [c, d]]
            stable = all(GL22Elem(GL2Elem(g.a, ctx.mul(e, g.b), ctx.mul(ei, g.c), g.d), h)
                         in elems for g, h in elems)
            if kind == "cycle":
                assert stable == (average is fixed_dim_u_twist or p == 3)
            else:
                assert stable == (kind != "Unip")
            if stable:
                assert 2 * average(ctx, plus, R) == average(ctx, full, R)
            else:
                with pytest.raises(OracleRequired):
                    average(ctx, plus, R)


def test_constituent_fixed_dim_q5_closed():
    ctx = build_field(5, 1)
    T = _torus(ctx)
    # both split and product trivial: 3 + 9 = 12 = 0 mod 4
    plus = SigmaLabel(3, 9, "Plus")
    assert fixed_dim(ctx, plus, T) == fixed_dim_closed("Torus", 5, constituent=True) == 0


def test_fixed_dim_closed_case_table():
    assert fixed_dim_closed("Torus", 4) == 1
    assert fixed_dim_closed("Torus", 3, 1) == 2
    assert fixed_dim_closed("Torus", 3, -1) == 0
    assert fixed_dim_closed("Torus", 3, constituent=True) == 1
    assert fixed_dim_closed("Torus", 5, constituent=True) == 0
    assert fixed_dim_closed("Torus", 7, constituent=True) == 1
    assert fixed_dim_closed("Unip", 8) == 7
    assert fixed_dim_closed("ArtinUnip", 4) == 1
    with pytest.raises(BadCase):
        fixed_dim_closed("Torus", 3)        # missing sign
    with pytest.raises(BadCase):
        fixed_dim_closed("Torus", 4, constituent=True)
    with pytest.raises(BadCase):
        fixed_dim_closed("ArtinUnip", 5)
    with pytest.raises(BadCase):
        fixed_dim_closed("z", 3)
    # the kinds that state no closed value
    with pytest.raises(BadCase):
        fixed_dim_closed("Unip", 3, constituent=True)
    with pytest.raises(BadCase):
        fixed_dim_closed("U1", 4)


def test_oracle_required_on_unstable_subgroup():
    ctx = build_field(5, 1)
    w = GL2Elem(0, ctx.one, ctx.neg(ctx.one), 0)
    R = subgroup_closure(ctx, gl22_rows([GL22Elem(w, w)]))
    plus = SigmaLabel(3, 3, "Plus")
    with pytest.raises(OracleRequired):
        fixed_dim(ctx, plus, R)


def test_u_twist_fixed_dims_match_on_standard_subgroups():
    for p, f in [(3, 1), (2, 2)]:
        ctx = build_field(p, f)
        subs = [_torus(ctx), _unip(ctx)]
        if ctx.q % 2 == 0:
            subs.append(subgroup_R("ArtinUnip", ctx))
        for k1, k2 in [(1, 1), (1, 2), (2, 1), (2, q_plus_2 := ctx.q + 2)]:
            if not (valid_cuspidal(ctx, k1) and valid_cuspidal(ctx, q_plus_2)):
                continue
            s = SigmaLabel(k1, k2, "Full")
            for R in subs:
                assert fixed_dim_u_twist(ctx, s, R) == fixed_dim(ctx, s, R)


# -- sigma_char ---------------------------------------------------------------

def test_sigma_char_identity_and_oracle_gate():
    ctx = build_field(3, 1)
    ident = gl22_identity(ctx)
    full = SigmaLabel(2, 6, "Full")
    plus = SigmaLabel(2, 6, "Plus")
    assert certify_integer(sigma_char(ctx, full, ident)) == 4
    assert abs(sigma_char(ctx, plus, ident) - 2.0) < 1e-9
    off = GL22Elem(GL2Elem(ctx.one, ctx.one, 0, ctx.one),
                   GL2Elem(ctx.one, ctx.one, 0, ctx.one))
    with pytest.raises(OracleRequired):
        sigma_char(ctx, plus, off)


# -- twisted traces -----------------------------------------------------------

def test_twisted_trace_closed_even_q():
    ctx = build_field(2, 2)
    s = SigmaLabel(11, 1, "Full")
    T = _torus(ctx)
    assert twisted_trace_closed(ctx, s, "swap", T) == 1
    assert twisted_trace_closed(ctx, s, "swap", _unip(ctx)) == 3
    assert twisted_trace_closed(ctx, s, "swap", subgroup_R("ArtinUnip", ctx)) == 1
    assert twisted_trace_closed(ctx, s, "ww", T) == 1
    assert twisted_trace_closed(ctx, s, "swap_ww", T) == 1
    with pytest.raises(HypothesisViolated):
        twisted_trace_closed(ctx, s, "ww", _unip(ctx))


def test_twisted_trace_closed_odd_q_branches():
    ctx3 = build_field(3, 1)
    T3 = _torus(ctx3)
    s = SigmaLabel(2, 6, "Full")
    for op in ("swap", "ww", "swap_ww"):
        assert twisted_trace_closed(ctx3, s, op, T3, presentation=(2, 0)) == 2
    assert twisted_trace_closed(ctx3, s, "swap", T3, presentation=(6, 1)) == 0
    assert twisted_trace_closed(ctx3, s, "ww", T3, presentation=(6, 1)) == 2
    assert twisted_trace_closed(ctx3, s, "swap_ww", T3, presentation=(6, 1)) == 0

    ctx5 = build_field(5, 1)
    T5 = _torus(ctx5)
    alpha = SigmaLabel(2, 2, "Full")
    assert twisted_trace_closed(ctx5, alpha, "swap", T5) == 0
    assert twisted_trace_closed(ctx5, alpha, "ww", T5) == -2
    assert twisted_trace_closed(ctx5, alpha, "swap_ww", T5) == 0
    one = SigmaLabel(4, 4, "Full")
    for op in ("swap", "ww", "swap_ww"):
        assert twisted_trace_closed(ctx5, one, op, T5) == 2


def test_twisted_trace_hypothesis_gates():
    ctx3 = build_field(3, 1)
    T = _torus(ctx3)
    with pytest.raises(HypothesisViolated):
        twisted_trace_closed(ctx3, SigmaLabel(1, 2, "Full"), "swap", T)
    with pytest.raises(HypothesisViolated):
        # self twisted but omega_rho(-1) = -1
        twisted_trace_closed(ctx3, SigmaLabel(1, 5, "Full"), "swap", T)
    with pytest.raises(HypothesisViolated):
        twisted_trace_closed(ctx3, SigmaLabel(2, 6, "Full"), "swap", _unip(ctx3),
                             presentation=(2, 0))
    with pytest.raises(BadCase):
        twisted_trace_closed(ctx3, SigmaLabel(2, 6, "Full"), "flip", T,
                             presentation=(2, 0))
    with pytest.raises(HypothesisViolated):
        twisted_trace_closed(ctx3, SigmaLabel(2, 6, "Full"), "swap", T,
                             presentation=(1, 0))


def test_induced_trace_zero_gates():
    ctx = build_field(3, 1)
    s = SigmaLabel(1, 2, "Full")
    x = gl22_rows([gl22_identity(ctx)])
    assert induced_trace_zero(ctx, s, x, _torus(ctx)) == 0
    with pytest.raises(HypothesisViolated):
        induced_trace_zero(ctx, s, x, subgroup_R("U1", ctx))
    with pytest.raises(HypothesisViolated):
        induced_trace_zero(ctx, SigmaLabel(2, 6, "Full"), x, _torus(ctx))
    # a batch passes only when every row normalizes: one shear row fails it
    shear = GL22Elem(GL2Elem(1, 1, 0, 1), GL2Elem(1, 0, 0, 1))
    assert induced_trace_zero(ctx, s, np.repeat(x, 3, axis=0), _torus(ctx)) == 0
    with pytest.raises(HypothesisViolated):
        induced_trace_zero(ctx, s, gl22_rows([gl22_identity(ctx), shear]), _torus(ctx))


# -- class inventories --------------------------------------------------------

def test_omega_trivial_classes_q2():
    ctx = build_field(2, 1)
    classes = omega_trivial_sigma_classes(ctx)
    assert len(classes) == 1
    s = classes[0]
    assert s.constituent == "Full"
    assert is_self_twisted(ctx, s)


def test_omega_trivial_classes_q3_are_constituents():
    ctx = build_field(3, 1)
    classes = omega_trivial_sigma_classes(ctx)
    assert len(classes) == 2
    assert {s.constituent for s in classes} == {"Plus", "Minus"}
    for s in classes:
        assert split_restriction(ctx, s.k1) and split_restriction(ctx, s.k2)


def test_omega_trivial_classes_q4_mixed_twist():
    ctx = build_field(2, 2)
    classes = omega_trivial_sigma_classes(ctx)
    assert all(s.constituent == "Full" for s in classes)
    twisted = [s for s in classes if self_twist_presentations(ctx, s)]
    plain = [s for s in classes if not self_twist_presentations(ctx, s)]
    assert twisted and plain
    for s in twisted:
        assert lambda_omega_class(ctx, s) == "one"


def test_omega_trivial_classes_q5_all_self_twisted():
    ctx = build_field(5, 1)
    classes = omega_trivial_sigma_classes(ctx)
    assert classes
    keys = {sigma_key(ctx, s) for s in classes}
    assert len(keys) == len(classes)
    assert sigma_key(ctx, SigmaLabel(2, 2, "Full")) != \
        sigma_key(ctx, SigmaLabel(4, 4, "Full"))
    for s in classes:
        assert s.constituent == "Full"
        assert self_twist_presentations(ctx, s)


FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_kinds_state_which_groups_the_weyl_and_outer_elements_normalize(q):
    # numerics.KINDS states both facts; here the groups are tested: the
    # doubled Weyl element (w, w) by conjugation, and at odd q the outer
    # element s by whether a constituent's average refuses
    ctx = build_field(*FIELDS[q])
    w = GL2Elem(0, ctx.one, ctx.neg(ctx.one), 0)
    weyl = gl22_rows([GL22Elem(w, w)])
    plus = next((s._replace(constituent="Plus") for s in (
        SigmaLabel(k1, k2, "Full") for k1 in cuspidal_classes(ctx)
        for k2 in cuspidal_classes(ctx)) if sigma_is_reducible(ctx, s)), None)
    assert (plus is None) == (q % 2 == 0)
    for kind in standard_kinds(q):
        R = subgroup_R(kind, ctx)
        assert bool(conjugates_into(ctx, weyl, R.gens, R)[0]) == KINDS[kind].weyl
        if plus is not None:
            try:
                fixed_dim(ctx, plus, R)
                refused = False
            except OracleRequired:
                refused = True
            assert refused == KINDS[kind].oracle_split, kind
