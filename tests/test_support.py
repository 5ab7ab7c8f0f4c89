import collections

import pytest

from siegelvec.finitegrp import build_field, subgroup_R
from siegelvec.chars import BadCase, omega_trivial_sigma_classes, SigmaLabel
from siegelvec.models import TensorModel, decompose, swap_operator, twisted_trace
from siegelvec.support import (
    COSET_TAGS,
    al_fixed_cosets,
    al_formula,
    al_partner,
    assemble_al,
    assemble_dim,
    base_count,
    classify_pairing,
    coset_R_type,
    dim_formula,
    enumerate_support,
    fixed_stratum_count,
    is_al_fixed,
    stratum_count,
    total_count,
)
from siegelvec import chars, cli, finitegrp
from siegelvec.support import STRATA, _coset_values

FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def _ctx(q):
    p, f = FIELDS[q]
    return build_field(p, f)


def in_support(q, param, n):
    """Whether the parameter indexes a stratum coset at level n."""
    if param.tag not in COSET_TAGS:
        return False
    if q % 2 == 1 and param.tag != "I":
        return False
    return param.i >= 0 and STRATA[param.tag].jmin <= param.j <= n - 2 - 2 * param.i


# -- enumeration and closed counts ------------------------------------------

def test_counts_match_enumeration():
    for q in (2, 3, 4, 5):
        fq = _ctx(q)
        for n in range(15):
            params = enumerate_support(fq, n)
            assert len(params) == len(set(params))
            by_tag = collections.Counter(p.tag for p in params)
            for tag in COSET_TAGS:
                assert by_tag.get(tag, 0) == stratum_count(tag, q, n)
            assert len(params) == total_count(q, n)
            for p in params:
                assert in_support(q, p, n)


def test_stratum_count_spot_values():
    # first stratum: floor((n-1)^2/4)
    assert [stratum_count("I", 2, n) for n in range(9)] == [0, 0, 0, 1, 2, 4, 6, 9, 12]
    # deepest stratum opens at n = 7 and carries q residue classes
    assert stratum_count("IIIb", 2, 7) == 2
    assert stratum_count("IIIb", 4, 9) == 4 * 4
    # unit-parameter stratum carries q - 1 classes
    assert stratum_count("IV", 4, 8) == 3 * 4
    assert stratum_count("IV", 2, 6) == 1
    with pytest.raises(ValueError):
        stratum_count("V", 2, 6)


def test_odd_q_single_stratum():
    for q in (3, 5):
        fq = _ctx(q)
        for tag in ("II", "IIIa", "IIIb", "IV"):
            assert stratum_count(tag, q, 12) == 0
        assert all(p.tag == "I" for p in enumerate_support(fq, 12))


def test_param_fields():
    fq = _ctx(4)
    params = enumerate_support(fq, 9)
    for p in params:
        if p.tag in ("I", "II"):
            assert p.u == 0
        elif p.tag == "IIIa":
            assert p.u == fq.one
        elif p.tag == "IV":
            assert p.u in fq.fq_units
        else:
            assert p.u in fq.fq_elements
    # one IIIb (i, j) cell carries each residue exactly once
    cells = collections.Counter((p.i, p.j) for p in params if p.tag == "IIIb")
    assert set(cells.values()) == {fq.q}


def test_weighted_count_identity():
    # each stratum weighted by its kind's fixed dim aggregates to the base
    for q in (2, 4, 8):
        w = {"Torus": 1, "Unip": q - 1, "ArtinUnip": 1}
        for n in range(61):
            agg = sum(w[coset_R_type(t)] * stratum_count(t, q, n) for t in COSET_TAGS)
            assert agg == base_count(q, n)


def test_base_count_odd_q():
    for q in (3, 5):
        assert base_count(q, 0) == 0
        for n in range(1, 30):
            assert base_count(q, n) == (n - 1) ** 2 // 4
            assert base_count(q, n) == stratum_count("I", q, n)


def test_coset_R_type_contract():
    assert [coset_R_type(t) for t in COSET_TAGS] == \
        ["Torus", "Torus", "Unip", "ArtinUnip", "ArtinUnip"]
    with pytest.raises(ValueError):
        coset_R_type("X")


# -- the level involution on cosets -----------------------------------------

def test_partner_involution():
    for q in (2, 3, 4, 5):
        fq = _ctx(q)
        for n in range(3, 13):
            for p in enumerate_support(fq, n):
                pp = al_partner(p, n)
                assert in_support(q, pp, n)
                assert al_partner(pp, n) == p
                assert pp.u == p.u and pp.i == p.i


def test_fixed_cosets_match_closed():
    for q in (2, 3, 4, 5):
        fq = _ctx(q)
        for n in range(17):
            fixed = al_fixed_cosets(fq, n)
            by_tag = collections.Counter(p.tag for p in fixed)
            for tag in COSET_TAGS:
                assert by_tag.get(tag, 0) == fixed_stratum_count(tag, q, n)


def test_fixed_coset_examples():
    fq = _ctx(2)
    fixed = al_fixed_cosets(fq, 7)
    assert [(p.tag, p.i, p.j) for p in fixed if p.tag == "I"] == \
        [("I", 0, 3), ("I", 1, 2), ("I", 2, 1)]
    assert sorted(p.u for p in fixed if p.tag == "IIIb") == sorted(fq.fq_elements)
    assert all(p.i == 0 and p.j == 5 for p in fixed if p.tag == "IIIb")
    # even levels fix only the plain strata
    fixed8 = al_fixed_cosets(fq, 8)
    assert {p.tag for p in fixed8} == {"II", "IV"}
    assert fixed_stratum_count("II", 2, 8) == 3
    assert fixed_stratum_count("IV", 2, 8) == 2


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (2, 3)])
def test_fixed_test_agrees_with_the_partner(p, f):
    fq = build_field(p, f)
    for n in range(21):
        for prm in enumerate_support(fq, n):
            assert is_al_fixed(prm, n) == (al_partner(prm, n) == prm)


def test_fixed_count_q8():
    fq = build_field(2, 3)
    for n in (9, 10, 11, 12):
        fixed = al_fixed_cosets(fq, n)
        by_tag = collections.Counter(p.tag for p in fixed)
        for tag in COSET_TAGS:
            assert by_tag.get(tag, 0) == fixed_stratum_count(tag, 8, n)


# -- closed dimension formula ------------------------------------------------

def test_dim_sequence_q2():
    want = [0, 0, 0, 1, 3, 7, 13, 23, 35]
    got = [dim_formula(2, n, "self") for n in range(9)]
    assert got == want
    for n in range(4, 21):
        assert dim_formula(2, n, "self") == (3 * n * n - 20 * n + 39) // 2


def test_dim_formula_factors():
    for n in range(12):
        b = (n - 1) ** 2 // 4 if n >= 1 else 0
        assert dim_formula(3, n, "distinct") == 4 * b
        assert dim_formula(3, n, "self") == 2 * b
        assert dim_formula(3, n, "constituent") == b
        assert dim_formula(4, n, "distinct") == 2 * base_count(4, n)
    with pytest.raises(BadCase):
        dim_formula(4, 6, "constituent")
    with pytest.raises(ValueError):
        dim_formula(4, 6, "weird")


# -- assembled dimension -----------------------------------------------------

def test_classify_pairing():
    ctx3 = _ctx(3)
    assert classify_pairing(ctx3, SigmaLabel(2, 6, "Plus")) == "constituent"
    assert classify_pairing(ctx3, SigmaLabel(1, 2, "Full")) == "distinct"
    ctx4 = _ctx(4)
    assert classify_pairing(ctx4, SigmaLabel(1, 11, "Full")) == "self"
    assert classify_pairing(ctx4, SigmaLabel(1, 2, "Full")) == "distinct"


def test_assemble_dim_matches_formula():
    for q in (2, 3, 4, 5):
        ctx = _ctx(q)
        for sigma in omega_trivial_sigma_classes(ctx):
            pairing = classify_pairing(ctx, sigma)
            levels = range(13)
            for n, total in zip(levels, assemble_dim(ctx, sigma, levels)):
                assert total == dim_formula(q, n, pairing), (q, sigma, n)


def test_assemble_dim_nontrivial_center_vanishes():
    ctx = _ctx(3)
    sigma = SigmaLabel(1, 2, "Full")
    assert assemble_dim(ctx, sigma, range(9)) == [0] * 9


def test_dims_and_signatures_classify_each_group_once(monkeypatch):
    # every fixed dim of every label, level and sign reads the class pairs
    # of one classification of the group's rows, one call per factor
    calls = collections.Counter()
    real = finitegrp.gl2_classes

    def counting(ctx, codes):
        calls[id(codes.base)] += 1
        return real(ctx, codes)
    subgroup_R.cache_clear()  # groups whose rows no earlier test classified
    monkeypatch.setattr(finitegrp, "gl2_classes", counting)
    for suite in (cli.suite_dims, cli.suite_signatures):
        rows, checks = suite(q=4, n_max=12)
        assert rows and all(c["ok"] for c in checks)
    ctx = _ctx(4)
    kinds = {row.kind for row in STRATA.values()}
    assert {id(subgroup_R(kind, ctx).rows): 2 for kind in kinds} == calls


def test_assemble_dim_report_rows():
    # at odd q only stratum I is populated; a constituent adds no twist
    ctx = _ctx(3)
    sigma = SigmaLabel(2, 6, "Plus")
    assert classify_pairing(ctx, sigma) == "constituent"
    assert _coset_values(ctx, sigma) == {"I": 1}
    assert stratum_count("I", 3, 6) == 6
    assert assemble_dim(ctx, sigma, [6]) == [6]


def test_assembly_follows_the_levels_as_given():
    ctx = _ctx(4)
    sigma = SigmaLabel(1, 11, "Full")
    levels = [9, 3, 7, 3, 12, 0]
    assert assemble_dim(ctx, sigma, []) == []
    assert assemble_al(ctx, sigma, [], -1) == []
    assert assemble_dim(ctx, sigma, levels) == [dim_formula(4, n, "self") for n in levels]
    for sg in (1, -1):
        assert assemble_al(ctx, sigma, levels, sg) == [
            al_formula(4, n, "self", sg) for n in levels]


def test_each_kind_is_averaged_once_per_label(monkeypatch):
    # a coset's value depends on the label and the stratum's kind, never on
    # the level: dims averages once per (label, kind), and signatures once
    # per (label, kind, sign) of a plain stratum
    calls = collections.Counter()
    real = chars.fixed_dim

    def counting(ctx, sigma, R):
        calls[sigma, R.label] += 1
        return real(ctx, sigma, R)
    monkeypatch.setattr(chars, "fixed_dim", counting)
    labels = omega_trivial_sigma_classes(cli._field(8))
    kinds = {row.kind for row in STRATA.values()}
    plain = {row.kind for row in STRATA.values() if not row.twisted}
    rows, checks = cli.suite_dims(q=8, n_max=20)
    assert rows and all(c["ok"] for c in checks)
    assert set(calls.values()) == {1} and len(calls) == len(labels) * len(kinds) == 48
    calls.clear()
    rows, checks = cli.suite_signatures(q=8, n_max=20)
    assert rows and all(c["ok"] for c in checks)
    assert {kind for _, kind in calls} == plain
    assert set(calls.values()) == {2} and len(calls) == len(labels) * len(plain)
    assert sum(calls.values()) == 64


# -- closed involution trace --------------------------------------------------

def test_al_formula_q2_sequences():
    assert al_formula(2, 3, "self", 1) == 1
    assert al_formula(2, 3, "self", -1) == -1
    for n in range(4, 13, 2):
        assert al_formula(2, n, "self", 1) == n - 3
        assert al_formula(2, n, "self", -1) == n - 3
    for n in range(5, 13, 2):
        assert al_formula(2, n, "self", 1) == 2 * n - 7
        assert al_formula(2, n, "self", -1) == -(2 * n - 7)


def test_al_formula_edges():
    for n in range(3):
        assert al_formula(3, n, "self", 1, branch="one") == 0
        assert al_formula(2, n, "self", 1) == 0
    assert al_formula(3, 8, "self", 1, branch="one") == 0        # odd q, even level
    assert al_formula(3, 7, "distinct", 1) == 0                  # twisted strata vanish
    assert al_formula(4, 8, "distinct", 1) == 2 * (1 + 4 * 2)    # plain strata double
    assert al_formula(4, 8, "distinct", -1) == 2 * (1 + 4 * 2)
    assert al_formula(3, 9, "self", -1, branch="alpha") == 0
    assert al_formula(3, 9, "self", -1, branch="one") == -8
    assert al_formula(3, 9, "constituent", -1) == -4
    with pytest.raises(ValueError):
        al_formula(3, 9, "self", 1)
    with pytest.raises(ValueError):
        al_formula(3, 9, "self", 2, branch="one")
    with pytest.raises(BadCase):
        al_formula(4, 9, "constituent", 1)


# -- assembled involution trace ------------------------------------------------

def _branch_of(ctx, sigma, presentation=None):
    from siegelvec.chars import lambda_omega_class
    return lambda_omega_class(ctx, sigma, presentation)


def test_assemble_al_matches_formula():
    for q in (2, 3, 4):
        ctx = _ctx(q)
        for sigma in omega_trivial_sigma_classes(ctx):
            pairing = classify_pairing(ctx, sigma)
            if pairing == "self" and q % 2 == 1:
                branch = _branch_of(ctx, sigma)
            else:
                branch = "one"
            levels = range(3, 11)
            for sg in (1, -1):
                for n, total in zip(levels, assemble_al(ctx, sigma, levels, sg)):
                    assert total == al_formula(q, n, pairing, sg, branch=branch), \
                        (q, sigma, n, sg)


def test_assemble_al_reducible_presentations():
    # the reducible self-paired label at q = 3 admits both branch values,
    # picked by the presentation argument
    ctx = _ctx(3)
    sigma = SigmaLabel(2, 6, "Full")
    levels = (5, 7, 9)
    ones = assemble_al(ctx, sigma, levels, 1, presentation=(2, 0))
    alps = assemble_al(ctx, sigma, levels, 1, presentation=(6, 1))
    for n, one, alp in zip(levels, ones, alps):
        assert one == al_formula(3, n, "self", 1, branch="one")
        assert alp == al_formula(3, n, "self", 1, branch="alpha")


def test_assemble_al_distinct_even_levels():
    ctx = _ctx(4)
    sigma = SigmaLabel(1, 2, "Full")
    levels = (4, 6, 8, 10)
    for sg in (1, -1):
        assert assemble_al(ctx, sigma, levels, sg) == [2 * (1 + 4 * (n - 4) // 2)
                                                       for n in levels]


def test_assemble_al_rows_q2():
    ctx = _ctx(2)
    sigma = SigmaLabel(1, 1, "Full")
    values = _coset_values(ctx, sigma, -1)
    counts = {tag: fixed_stratum_count(tag, 2, 7) for tag in values}
    assert (counts["I"], values["I"]) == (3, -1)
    assert (counts["IIIa"], values["IIIa"]) == (2, -1)
    assert (counts["IIIb"], values["IIIb"]) == (2, -1)
    assert sum(counts[tag] * values[tag] for tag in values) == -7
    assert assemble_al(ctx, sigma, [7], -1) == [-7] == [-(2 * 7 - 7)]


def test_constituent_swap_lines():
    # the two constituent fixed lines on the torus carry swap traces
    # (+1, +1) in the plain presentation and (+1, -1) in the twisted one,
    # matching the full-label closed traces 2 and 0
    ctx = _ctx(3)
    R = subgroup_R("Torus", ctx)
    for (k, l), want in (((2, 0), [1, 1]), ((6, 1), [-1, 1])):
        tm = TensorModel(ctx, k, k, lam_exp=l)
        S = swap_operator(tm)
        traces = []
        for cm in decompose(tm):
            op = cm.basis.conj().T @ S @ cm.basis
            traces.append(twisted_trace(cm.average(R), op))
        assert sorted(traces) == want
