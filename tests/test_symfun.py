import math
import random
from fractions import Fraction

import pytest

from hilbertpoly import linalg, symfun
from hilbertpoly.arith import CrossCheckFailed, parse_poly
from hilbertpoly.partitions import Partition, enumerate_partitions
from hilbertpoly.symfun import (
    b_sequence,
    bernoulli,
    d_coeff,
    delta_coeff,
    delta_det,
    delta_table,
    delta_table_pairs,
    newton_power_sums,
    scaling_factor,
    todd_poly,
    todd_sequence,
)

from oracles import (
    TruncSeries,
    b_prefix_by_inversion,
    complete_homogeneous_values,
    conjugate,
    contains,
    delta_b,
    delta_coeffs_by_cauchy_binet,
    dual_sequence,
    elementary_symmetric_values,
    formal_chern,
    ring_delta,
    schur_eval,
    series_inverse,
    todd_direct,
    todd_terms,
    todd_value,
)


def C(*values):
    return tuple(Fraction(v) for v in values)


def rational_seq(rng, length, bound=5):
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(length)]


# -- Delta determinants


def test_delta_single_row_is_ck():
    c = C(1, 7, -2, 9)
    assert delta_det(Partition([2]), c) == -2
    assert delta_det(Partition([3]), c) == 9
    # a one-part partition reads c_k as it is, as the empty one reads c_0;
    # a read past the end still raises IndexError
    for c in (C(1, 7, -2, 9), (1, 7, -2, 9), (1, Fraction(1, 2), 0)):
        for k in range(1, len(c)):
            value = delta_det(Partition([k]), c)
            assert value == c[k] and type(value) is type(c[k])
        with pytest.raises(IndexError):
            delta_det(Partition([len(c)]), c)
    with pytest.raises(IndexError):
        delta_det(Partition([2, 1]), (1, 3, 2))


def test_delta_empty_partition():
    c = C(1, 5)
    assert delta_det(Partition(), c) == 1


def test_delta_one_one_on_b():
    b = b_sequence(4)
    assert delta_det(Partition([1, 1]), b) == Fraction(1, 6)


def test_delta_read_past_the_sequence_raises():
    # Delta_[2,1] reads c_2 and c_3; a sequence that stops at c_1 has
    # neither, and no read past its end is taken as zero
    with pytest.raises(IndexError):
        delta_det(Partition([2, 1]), (1, 5))


def test_delta_zero_padding_invariance():
    rng = random.Random(7)
    c = tuple([Fraction(1)] + rational_seq(rng, 9))
    for lam in (Partition([3, 1]), Partition([2, 2, 1])):
        padded = Partition(list(lam.parts) + [0, 0])
        assert delta_det(lam, c) == delta_det(padded, c)


def test_delta_dual_identity():
    rng = random.Random(3)
    for _ in range(20):
        c = tuple([Fraction(1)] + rational_seq(rng, 12))
        for k in range(7):
            for lam in enumerate_partitions(k):
                assert delta_det(lam, dual_sequence(c)) == (-1) ** k * delta_det(lam, c)


def test_delta_inverse_identity():
    rng = random.Random(4)
    K = 14
    for _ in range(20):
        vals = [Fraction(1)] + rational_seq(rng, K - 1)
        c = tuple(vals)
        cinv = tuple(series_inverse(TruncSeries(K, vals)).coeffs)
        for k in range(7):
            for lam in enumerate_partitions(k):
                assert delta_det(lam, cinv) == delta_det(conjugate(lam), dual_sequence(c))


def test_giambelli():
    rng = random.Random(5)
    for m in range(1, 6):
        for _ in range(10):
            gamma = rng.sample(range(-20, 21), m)
            gamma = [Fraction(g, rng.randint(1, 3)) for g in gamma]
            if len(set(gamma)) < m:
                continue
            e = tuple(elementary_symmetric_values(gamma, 2 * m + 1))
            for k in range(m + 1):
                for lam in enumerate_partitions(k, max_part=m):
                    assert delta_det(lam, e) == schur_eval(conjugate(lam), gamma)


# -- Bernoulli numbers and the b-sequence


def test_bernoulli_reference_values():
    assert bernoulli(1) == Fraction(1, 6)
    assert bernoulli(2) == Fraction(1, 30)
    assert bernoulli(3) == Fraction(1, 42)


def test_bernoulli_matches_series_route():
    K = 42
    b_series = b_prefix_by_inversion(K)
    for n in range(1, 21):
        assert b_series[2 * n] == (-1) ** (n - 1) * bernoulli(n) / math.factorial(2 * n)


def test_bernoulli_scaled_integrality():
    for n in range(1, 21):
        assert (math.factorial(2 * n + 1) * bernoulli(n)).denominator == 1


def test_b_sequence_values():
    b = b_sequence(4)
    assert b == (1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720))
    assert b_sequence(3)[3] == 0


def test_b_sequence_matches_inversion():
    assert b_sequence(12) == tuple(b_prefix_by_inversion(13)[:13])


def test_b_scaled_integrality():
    b = b_sequence(10)
    for i in range(11):
        assert (math.factorial(i) * math.factorial(i + 1) * b[i]).denominator == 1


def test_delta_b_scaled_integrality():
    for M in range(9):
        for lam in enumerate_partitions(M):
            r = lam.length
            scale = 1
            for i in range(M - r + 2, M + 2):
                scale *= math.factorial(i)
            value = scale * scale * delta_det(lam, b_sequence(max(M + r, 1)))
            assert value.denominator == 1, (lam, value)


def test_delta_b_builds_each_b_sequence_size_once():
    caches = (symfun._scaled_delta_b, symfun._cleared_b, b_sequence)
    for cache in caches:
        cache.cache_clear()
    M = 7
    values = {lam: symfun._scaled_delta_b(lam) for size in range(M + 1)
              for lam in enumerate_partitions(size)}
    # one cleared sequence, over one b_sequence, for each size 0..M,
    # however many lam share it
    for cache in (symfun._cleared_b, b_sequence):
        assert cache.cache_info().misses == M + 1
        assert cache.cache_info().currsize == M + 1
    for K in range(M + 1):
        symfun._cleared_b(K)
    for cache in (symfun._cleared_b, b_sequence):
        assert cache.cache_info().misses == M + 1  # the sizes were 0..M
    # each value is the int Delta_lam(b) D^|lam|, D the denominator of
    # the b-sequence of its size
    for lam, value in values.items():
        assert type(value) is int
        D = symfun._cleared_b(lam.size)[1]
        assert value == delta_b(lam) * D ** lam.size
    for cache in caches:
        cache.cache_clear()


# -- Todd and Chern character polynomials


def test_todd_first_three():
    c1 = ("c1",)
    assert todd_poly(1) == parse_poly("1/2*c1", c1)
    c2 = ("c1", "c2")
    assert todd_poly(2) == parse_poly("1/12*c1^2 + 1/12*c2", c2)
    c3 = ("c1", "c2", "c3")
    assert todd_poly(3) == parse_poly("1/24*c1*c2", c3)


@pytest.mark.parametrize("m", range(7))
def test_todd_matches_direct_definition(m):
    assert todd_poly(m) == todd_direct(m)


@pytest.mark.parametrize("m", range(9))
def test_todd_recurrence_matches_determinant_formula(m):
    # the determinantal formula sum Delta_{lam'}(b) Delta_lam(c), expanded
    # over formal c_1..c_m with the division-free oracle determinant
    c = formal_chern(m)
    formula = sum((coeff * ring_delta(lam, c) for lam, coeff in todd_terms(m)), c[0] - c[0])
    assert todd_poly(m) == formula


def test_todd_sequence_at_rational_chern_numbers():
    # the recurrence on n! D^n T_n, run at Fraction Chern numbers, against
    # the determinantal formula of the oracle
    rng = random.Random(31)
    for m in range(9):
        for _ in range(4):
            c = [Fraction(1)] + rational_seq(rng, m)
            td = todd_sequence(c)
            assert len(td) == m + 1
            for n in range(m + 1):
                assert td[n] == todd_value(n, c), (c, n)


def test_power_sums_at_roots():
    # Newton's identities at c_j = e_j(gamma) give the power sums of the
    # points gamma, as todd_class reads them at its Chern numbers
    rng = random.Random(17)
    for m in range(7):
        gamma = rational_seq(rng, m)
        e = elementary_symmetric_values(gamma, m)
        for k, p in enumerate(newton_power_sums([1] + e[1:])):
            assert p == sum(g ** k for g in gamma), (m, k)


# -- Schur evaluation


def test_schur_examples():
    assert schur_eval(Partition([1]), [2, 3]) == 5
    assert schur_eval(Partition([1, 1]), [2, 3]) == 6
    assert schur_eval(Partition([2]), [2, 3]) == 19


def test_schur_repeated_points_routes_through_jacobi_trudi():
    assert schur_eval(Partition([2]), [2, 2]) == 12  # h_2(2,2) = 4+4+4
    assert schur_eval(Partition([1, 1]), [2, 2]) == 4


def test_schur_length_guard():
    with pytest.raises(ValueError):
        schur_eval(Partition([1, 1, 1]), [2, 3])


def test_schur_routes_agree():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 5)
        gamma = [Fraction(g) for g in rng.sample(range(-9, 10), m)]
        k = rng.randint(0, m)
        for lam in enumerate_partitions(k, max_len=m):
            h = tuple(complete_homogeneous_values(gamma, lam.part(1) + lam.length + 1))
            assert schur_eval(lam, gamma) == delta_det(lam, h)


def test_cauchy_identity():
    rng = random.Random(13)
    for _ in range(25):
        m = rng.randint(1, 4)
        beta = rational_seq(rng, m, bound=3)
        gamma = rational_seq(rng, m, bound=3)
        if len(set(beta)) < m or len(set(gamma)) < m:
            continue
        # product side, graded by an auxiliary order-(m+1) series variable
        prod = TruncSeries.one(m + 1)
        for bj in beta:
            for gi in gamma:
                prod = prod * TruncSeries.from_coeffs(m + 1, [1, bj * gi])
        for k in range(m + 1):
            lhs = sum(
                (schur_eval(conjugate(lam), beta) * schur_eval(lam, gamma)
                 for lam in enumerate_partitions(k, max_part=m, max_len=m)),
                Fraction(0))
            assert lhs == prod[k]


def test_schur_shift_expansion():
    rng = random.Random(17)
    for _ in range(25):
        m = rng.randint(1, 5)
        gamma = [Fraction(g) for g in rng.sample(range(-12, 13), m + 1)]
        beta = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        k = rng.randint(0, m)
        for lam in enumerate_partitions(k, max_len=m):
            lhs = schur_eval(lam, [g + beta for g in gamma])
            rhs = Fraction(0)
            for j in range(lam.size + 1):
                for mu in enumerate_partitions(j, max_len=m):
                    if contains(lam, mu):
                        rhs += (d_coeff(lam, mu, m) * beta ** (lam.size - mu.size)
                                * schur_eval(mu, gamma))
            assert lhs == rhs


# -- binomial determinants and delta tables


def test_d_coeff_examples():
    assert d_coeff(Partition([1]), Partition(), 1) == 2
    for m in range(1, 6):
        for lam in enumerate_partitions(3, max_len=min(3, m)):
            assert d_coeff(lam, lam, m) == 1


@pytest.mark.parametrize("m", range(1, 8))
def test_d_coeff_is_the_full_binomial_determinant(m):
    # d_coeff takes only the top-left l x l block; here the whole m x m
    # matrix, for lam containing mu and not
    pool = [lam for size in range(8) for lam in enumerate_partitions(size, max_len=m)]
    seen = set()
    for lam in pool:
        tops = [lam.part(i) + m + 1 - i for i in range(1, m + 1)]
        for mu in pool:
            bottoms = [mu.part(j) + m + 1 - j for j in range(1, m + 1)]
            full = linalg.det([[math.comb(t, u) for u in bottoms] for t in tops])
            assert d_coeff(lam, mu, m) == full, (lam, mu, m)
            seen.add(contains(lam, mu))
    assert seen == {True, False}


@pytest.mark.parametrize("m", range(1, 6))
def test_d_coeff_hooks(m):
    for k in range(m + 1):
        for j in range(k + 1):
            lam = Partition([1] * k)
            mu = Partition([1] * j)
            assert d_coeff(lam, mu, m) == math.comb(m - j + 1, m - k + 1)


def test_delta_coeff_examples():
    assert delta_coeff(1, 1, Partition()) == 1
    assert delta_coeff(1, 0, Partition()) == 1
    assert delta_coeff(1, 0, Partition([1])) == Fraction(-1, 2)
    assert delta_coeff(2, 2, Partition()) == 1


def test_delta_table_quadric_values():
    # N(0, 2) = 144 times delta^{2,0}_mu = 1, -2/3, 1/6
    assert delta_table(2, 0, 3) == (
        (Partition(), 144), (Partition([1]), -96), (Partition([1, 1]), 24))


def test_delta_table_respects_ambient_bound():
    table = delta_table(2, 0, 3)
    assert Partition([2]) not in [mu for mu, _ in table]  # mu_1 <= n-m = 1


@pytest.mark.parametrize("ns", [(4, 6), (6, 4)])
def test_delta_table_filters_memoised_coefficients(ns):
    # delta_coeff is cached across tables; n must still only filter mu
    delta_coeff.cache_clear()
    m, k = 3, 0
    for n in ns:
        entries = delta_table(m, k, n)
        expected = {mu for size in range(m - k + 1)
                    for mu in enumerate_partitions(size) if mu.part(1) <= n - m}
        assert {mu for mu, _ in entries} == expected
        for mu, value in entries:
            assert value == scaling_factor(k, m) * delta_coeff.__wrapped__(m, k, mu)


def test_scaled_delta_table_is_the_table_times_N():
    # the entries by size, each size in enumerate_partitions order, each
    # an int N(k,m) delta^{m,k}_mu
    for m in range(9):
        for k in range(m + 1):
            N = scaling_factor(k, m)
            for n in range(m, m + 4):
                table = delta_table(m, k, n)
                assert [mu for mu, _ in table] == [
                    mu for size in range(m - k + 1)
                    for mu in enumerate_partitions(size, max_part=n - m)]
                for mu, value in table:
                    assert type(value) is int and value == N * delta_coeff(m, k, mu), \
                        (m, k, n, mu)


def test_delta_table_refuses_a_scaled_entry_that_is_not_an_integer(monkeypatch):
    N = scaling_factor(1, 3)
    delta_table.cache_clear()
    monkeypatch.setattr(symfun, "delta_coeff", lambda m, k, mu: Fraction(1, 7 * N))
    with pytest.raises(CrossCheckFailed, match="not integral"):
        delta_table(3, 1, 5)
    monkeypatch.setattr(symfun, "delta_coeff", lambda m, k, mu: Fraction(1, N))
    assert {value for _, value in delta_table(3, 1, 5)} == {1}
    delta_table.cache_clear()


def test_delta_coeff_matches_cauchy_binet_oracle():
    # one determinant over truncated series gives delta^{m,k}_mu for
    # every k; each delta_coeff sums over the lam containing mu instead
    for m in range(7):
        for size in range(m + 1):
            for mu in enumerate_partitions(size):
                oracle = delta_coeffs_by_cauchy_binet(m, mu)
                assert oracle == [delta_coeff(m, k, mu) for k in range(m - size + 1)], (m, mu)


def test_delta_table_pairs_counts_the_pairs_of_the_table():
    for m in range(8):
        for k in range(m + 1):
            for n in range(m, m + 4):
                pairs = sum(len(enumerate_partitions(m - k, max_len=max(m, 1), containing=mu))
                            for mu, _ in delta_table(m, k, n))
                assert delta_table_pairs(m, k, n) == pairs, (m, k, n)
    for mkn in [(2, 3, 3), (2, -1, 3), (-1, 0, 0), (3, 0, 2)]:
        with pytest.raises(ValueError):
            delta_table_pairs(*mkn)


def test_delta_table_entries_are_read_only():
    # delta_table is memoised, so a caller that could write to a table
    # would change every later table of the same (m, k, n)
    table = delta_table(2, 0, 3)
    with pytest.raises(TypeError):
        table[1] = (Partition([1]), 0)
    with pytest.raises(TypeError):
        del table[0]
    assert delta_table(2, 0, 3) is table
    assert table[1] == (Partition([1]), -96)


@pytest.mark.parametrize("mkn", [(2, 3, 3), (2, -1, 3), (-1, 0, 0), (3, 0, 2)])
def test_delta_table_rejects_out_of_range_arguments(mkn):
    # k > m and m < 0 used to give an empty table, n < m a table holding
    # the empty partition although mu_1 <= n - m < 0 excludes it
    with pytest.raises(ValueError):
        delta_table(*mkn)


def test_scaling_factor():
    assert scaling_factor(3, 3) == 1
    assert scaling_factor(1, 2) == 4
    assert scaling_factor(0, 2) == 144


def test_scaled_delta_integrality():
    for m in range(7):
        for k in range(m + 1):
            N = scaling_factor(k, m)
            for mu, value in delta_table(m, k, m):
                assert type(value) is int and Fraction(value, N) == delta_coeff(m, k, mu)
