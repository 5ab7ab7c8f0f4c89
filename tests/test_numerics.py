import cmath

import pytest

from siegelvec.numerics import FqCtx, NotAnInteger, certify_integer, root_of_unity

from reference import PairwiseFqCtx


def test_root_of_unity_basic_values():
    assert certify_integer(root_of_unity(1, 0)) == 1
    assert certify_integer(root_of_unity(2, 1)) == -1
    z = root_of_unity(4, 1)
    assert abs(z - 1j) < 1e-12


def test_root_of_unity_rejects_bad_order():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_certify_rounds_near_integers():
    assert certify_integer(2.0000000001) == 2
    assert certify_integer(-3.0 + 1e-12j) == -3


def test_certify_rejects_far_values():
    with pytest.raises(NotAnInteger):
        certify_integer(1 + 0.5j)
    with pytest.raises(NotAnInteger):
        certify_integer(0.4)


def test_cube_root_sum_vanishes():
    s = root_of_unity(3, 1) + root_of_unity(3, 2) + 1
    assert certify_integer(s) == 0
    assert abs(s) < 1e-12


def test_full_root_sums_all_orders():
    for m in range(1, 201):
        total = 0j
        for k in range(m):
            total = total + root_of_unity(m, k)
        want = 1 if m == 1 else 0
        assert certify_integer(total) == want


def test_certify_idempotent_on_integers():
    v = 5.0 + 0j
    assert certify_integer(v) == 5
    assert certify_integer(certify_integer(v)) == 5


def test_conjugate_negates_exponents():
    v = root_of_unity(7, 2) + root_of_unity(7, 3)
    w = root_of_unity(7, 5) + root_of_unity(7, 4)
    assert abs(w - v.conjugate()) < 1e-12


def test_product_convolves_exponents():
    v = root_of_unity(5, 2) * root_of_unity(5, 4)
    assert abs(v - cmath.exp(2j * cmath.pi / 5)) < 1e-12


def test_mixed_orders_rescale_to_lcm():
    v = root_of_unity(2, 1) * root_of_unity(3, 1)
    assert abs(v - cmath.exp(2j * cmath.pi * 5 / 6)) < 1e-12


def test_modulus_bounded_by_total_multiplicity():
    v = 0j
    for k in range(6):
        v = v + root_of_unity(9, (2 * k) % 9)
    assert abs(v) <= 6 + 1e-9


def test_scalar_mixing_drops_exact_tag():
    v = root_of_unity(4, 1) * 0.5
    assert abs(v - 0.5j) < 1e-12


@pytest.mark.parametrize("p,f", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                 (5, 1), (7, 1), (11, 1), (13, 1)])
def test_zech_field_table_matches_the_pairwise_sums(p, f):
    # every q = p^f <= 16 that FqCtx accepts
    fast, slow = FqCtx(p, f), PairwiseFqCtx(p, f)
    assert fast._add == slow._add
    assert fast._neg == slow._neg
    assert fast.fq_units == slow.fq_units
    assert fast.fq_minpoly == slow.fq_minpoly
    assert fast._psi == slow._psi
