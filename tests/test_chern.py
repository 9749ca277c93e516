import math
from fractions import Fraction

import pytest

from hilbertpoly.arith import CrossCheckFailed, UniPoly
from hilbertpoly.chern import (
    CompleteIntersection,
    chern_cone_normal,
    chern_cone_tangent,
    chern_tangent,
    character_table,
    ci_grid,
    ci_hilbert_series_oracle,
    euler_top,
    hilbert_poly_from_characters,
    hilbert_poly_hrr,
    projective_character,
    todd_class,
)
from hilbertpoly.grobner import hilbert_data
from hilbertpoly.partitions import Partition, enumerate_partitions
from hilbertpoly.symfun import d_coeff, delta_coeff, delta_det

from oracles import (
    TruncSeries,
    binom_poly,
    chern_classes_by_series,
    conjugate,
    contains,
    euler_char_twist,
    generic_ci_ideal,
    interpolate,
    poly_sum,
    poly_value,
    ring_delta,
    todd_value,
)


CI = CompleteIntersection


def characters_route(ci):
    return hilbert_poly_from_characters(ci.m, ci.n, character_table(ci))


def test_ci_validation():
    with pytest.raises(ValueError):
        CI(2, (1, 1, 1))
    with pytest.raises(ValueError):
        CI(3, (0,))
    assert CI(4, (2, 3)).m == 2
    assert CI(4, (2, 3)).degree == 6


def test_chern_tangent_examples():
    assert chern_tangent(CI(2, (4,))) == (1, -1)  # 1 + (3-d) h, d=4
    assert chern_tangent(CI(3, ())) == (1, 4, 6, 4)  # (1+h)^4 truncated
    assert chern_tangent(CI(3, (2,))) == (1, 2, 2)


def test_cone_bundle_classes():
    curve = CI(2, (5,))
    assert chern_cone_normal(curve) == (1, 4)
    linear = CI(4, (1, 1))
    assert chern_cone_normal(linear) == (1, 0, 0)
    assert chern_cone_tangent(linear) == (1, 0, 0)
    hyp = CI(4, (3,))
    assert chern_cone_tangent(hyp) == (1, -2, 4, -8)


def test_todd_class_examples():
    assert todd_class(CI(1, ())) == (1, 1)
    assert todd_class(CI(2, (3,))) == (1, 0)
    for ci in (CI(3, (2,)), CI(4, (2, 2)), CI(5, ())):
        td = todd_class(ci)
        assert len(td) == ci.m + 1
        assert td[0] == 1


def test_euler_char_twist_examples():
    assert euler_char_twist(CI(2, ()), 1) == 3
    assert euler_char_twist(CI(2, (3,)), 0) == 0
    assert euler_char_twist(CI(3, (2,)), 2) == 9


def test_hilbert_poly_hrr_examples():
    for n in range(1, 6):
        assert hilbert_poly_hrr(CI(n, ())) == binom_poly(n, n)
    for n, d in [(2, 2), (3, 3), (4, 2)]:
        expected = UniPoly(poly_sum([(1, binom_poly(n, n).coeffs),
                                     (-1, binom_poly(n - d, n).coeffs)]))
        assert hilbert_poly_hrr(CI(n, (d,))) == expected
    ci = CI(5, (2, 3))
    p = hilbert_poly_hrr(ci)
    assert p.coefficient(ci.m) == Fraction(ci.degree, 6)


def test_projective_characters_plane_curves():
    for d in range(1, 7):
        assert projective_character(CI(2, (d,)), Partition([1])) == d * (d - 1)


def test_projective_character_empty_partition_is_degree():
    for ci in (CI(3, (2, 2)), CI(4, (3,)), CI(5, (2, 2, 2))):
        assert projective_character(ci, Partition()) == ci.degree


def test_projective_characters_linear_vanish():
    ci = CI(4, (1, 1))
    for k in range(1, ci.m + 1):
        for lam in enumerate_partitions(k, max_part=ci.n - ci.m):
            assert projective_character(ci, lam) == 0


def test_projective_character_wide_partition_vanishes():
    ci = CI(3, (2,))  # n-m = 1
    assert projective_character(ci, Partition([2])) == 0


def test_character_size_guard():
    with pytest.raises(ValueError):
        projective_character(CI(2, (3,)), Partition([1, 1]))


def test_hilbert_poly_characters_plane_curves():
    for d in range(1, 7):
        p = characters_route(CI(2, (d,)))
        assert p.coefficient(0) == Fraction(d * (3 - d), 2)
        assert p.coefficient(1) == d


def test_hilbert_poly_characters_quadric_surface():
    assert characters_route(CI(3, (2,))) == UniPoly([1, 2, 1])


def test_curve_p0_from_characters_directly():
    # p_0 = deg V - (1/2) deg P_1 for any smooth curve here
    for ci in (CI(2, (4,)), CI(3, (2, 2)), CI(4, (2, 1, 3))):
        if ci.m != 1:
            continue
        p = characters_route(ci)
        expected = ci.degree - Fraction(1, 2) * projective_character(ci, Partition([1]))
        assert p.coefficient(0) == expected
        assert p == hilbert_poly_hrr(ci)


def test_characters_route_refuses_a_character_that_is_not_an_integer():
    ci = CI(3, (2,))
    chars = character_table(ci)
    for mu in chars:
        bad = dict(chars)
        bad[mu] = chars[mu] + Fraction(1, 7)
        with pytest.raises(CrossCheckFailed, match="not integral"):
            hilbert_poly_from_characters(ci.m, ci.n, bad)
    assert hilbert_poly_from_characters(ci.m, ci.n, chars) == hilbert_poly_hrr(ci)


def test_euler_top_examples():
    assert euler_top(CI(2, (3,))) == 0
    assert euler_top(CI(2, ())) == 3
    assert euler_top(CI(3, (2,))) == 4
    for d in range(1, 7):
        g = (d - 1) * (d - 2) // 2
        assert euler_top(CI(2, (d,))) == 2 - 2 * g


def test_series_oracle_examples():
    assert ci_hilbert_series_oracle(CI(4, ())) == binom_poly(4, 4)
    assert ci_hilbert_series_oracle(CI(3, (2,))) == UniPoly([1, 2, 1])
    assert ci_hilbert_series_oracle(CI(3, (2, 2))) == UniPoly([0, 4])


def test_three_way_agreement_small_grid():
    for ci in ci_grid(4, 2, 3):
        oracle = ci_hilbert_series_oracle(ci)
        assert hilbert_poly_hrr(ci) == oracle
        assert characters_route(ci) == oracle


def test_twist_values_match_polynomial_at_all_integers():
    # chi of the d-th twist equals the Hilbert polynomial at d, also for
    # negative d where the Hilbert function itself differs
    for ci in ci_grid(3, 2, 3):
        p = ci_hilbert_series_oracle(ci)
        for d in range(-3, 4):
            value = euler_char_twist(ci, d)
            assert isinstance(value, int)
            assert value == poly_value(p.coeffs, d), (ci, d)


def test_todd_class_plane_curve_values():
    for d in (1, 2, 5):
        assert todd_class(CI(2, (d,))) == (1, Fraction(3 - d, 2))


def test_rational_normal_curve_formula_identity():
    # with the known inputs deg V = n, deg P_1 = 2(n-1) the curve formula
    # p_0 = delta_0 deg V + delta_1 deg P_1 must give 1 (since p = nT + 1)
    for n in range(2, 11):
        p0 = (delta_coeff(1, 0, Partition()) * n
              + delta_coeff(1, 0, Partition([1])) * 2 * (n - 1))
        assert p0 == 1


def test_tensor_lemma_numeric_identity():
    for ci in ci_grid(4, 2, 3):
        tangent = chern_tangent(ci)
        K = ci.m + 1
        values = [TruncSeries.one(K)]
        values += [TruncSeries.monomial(K, i, tangent[i])
                   for i in range(1, K)]
        chars = character_table(ci)
        for size in range(ci.m + 1):
            for lam in enumerate_partitions(size):
                det = ring_delta(conjugate(lam), values)
                lhs = det[lam.size] * ci.degree
                rhs = Fraction(0)
                for j in range(size + 1):
                    for mu in enumerate_partitions(j, max_part=ci.n - ci.m):
                        if contains(lam, mu):
                            rhs += ((-1) ** mu.size * d_coeff(lam, mu, ci.m)
                                    * chars[mu])
                assert lhs == rhs, (ci, lam)


def test_interpolation_of_twists_matches_hrr():
    for ci in ci_grid(4, 2, 3):
        pts = [(d, euler_char_twist(ci, d)) for d in range(ci.m + 1)]
        assert interpolate(pts, ci.m) == hilbert_poly_hrr(ci)


def test_grobner_cross_check_one_case():
    ci = CI(3, (2, 2))
    data = hilbert_data(generic_ci_ideal(ci, seed=5))
    assert data.hilbert_polynomial == ci_hilbert_series_oracle(ci)


def test_todd_class_matches_symbolic_todd_polynomials():
    # the Todd class (the multiplicative-sequence recurrence at the
    # tangent Chern numbers) against the determinantal formula
    # sum Delta_{lam'}(b) Delta_lam(c) of the oracle at the same numbers
    # (m <= 8 on this grid)
    for ci in ci_grid(8, 3, 4):
        c = chern_tangent(ci)
        td = todd_class(ci)
        assert td[0] == 1
        for i in range(1, ci.m + 1):
            assert td[i] == todd_value(i, c), (ci, i)


def test_integer_chern_classes_match_series_inverses():
    # the integer recurrences against Fraction series products and
    # inverses, and the classes are tuples of c_0..c_m as ints
    for ci in ci_grid(10, 3, 4):
        classes = (chern_cone_normal(ci), chern_cone_tangent(ci), chern_tangent(ci))
        for cls, series in zip(classes, chern_classes_by_series(ci)):
            assert type(cls) is tuple and len(cls) == ci.m + 1, ci
            assert all(type(c) is int for c in cls), ci
            assert TruncSeries(ci.m + 1, cls) == series, ci


def test_hrr_coefficients_are_fractions():
    # k! p_k = T_{m-k} deg V exactly: T_0 is the int 1, and a true
    # division there gives a float, which UniPoly refuses
    for ci in ci_grid(8, 3, 4):
        p = hilbert_poly_hrr(ci)
        td = todd_class(ci)
        assert all(type(c) is Fraction for c in p.coeffs), ci
        for k in range(ci.m + 1):
            assert p.coefficient(k) * math.factorial(k) == td[ci.m - k] * ci.degree, (ci, k)


def test_projective_character_matches_series_determinant():
    # the scalar character against the determinant over truncated series
    # with entries c_i h^i of the cone normal class
    for ci in ci_grid(8, 3, 4):
        K = ci.m + 1
        normal = chern_cone_normal(ci)
        for mu, value in character_table(ci).items():
            upto = mu.part(1) + mu.length
            entries = [TruncSeries.one(K)]
            entries += [TruncSeries.monomial(K, i, normal[i]) if i < K
                        else TruncSeries.zero(K) for i in range(1, upto + 1)]
            det = ring_delta(mu, entries)
            assert value == det[mu.size] * ci.degree, (ci, mu)


def test_characters_read_no_chern_class_past_c_m():
    # Delta_mu reads c_i only for i <= |mu| <= m, so the bare class
    # (c_0, ..., c_m) gives every character that the class zero-padded
    # to length 2m + 2 gives
    for ci in ci_grid(10, 3, 4):
        bare = chern_cone_normal(ci)
        padded = bare + (0,) * (ci.m + 1)
        assert len(bare) == ci.m + 1 and len(padded) == 2 * ci.m + 2
        for mu, value in character_table(ci).items():
            assert delta_det(mu, bare) == delta_det(mu, padded), (ci, mu)
            assert value == delta_det(mu, padded) * ci.degree, (ci, mu)
