"""Acceptance suite: one test per criterion, exact tolerances, stated
runtime budgets.  Each test prints a PASS line with its timing; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hilbertpoly.arith import MultiPoly, UniPoly, parse_poly
from hilbertpoly.chern import (
    CompleteIntersection,
    ci_grid,
    ci_hilbert_series_oracle,
    euler_top,
    character_table,
    hilbert_poly_from_characters,
    hilbert_poly_hrr,
    projective_character,
)
from hilbertpoly.grobner import HomIdeal, count_zero_dim, hilbert_data, in_ideal, \
    monomials_of_degree
from hilbertpoly.grobner import membership_via_hilbert as him_decide
from hilbertpoly.partitions import Partition, enumerate_partitions, jumps
from hilbertpoly.reductions import (
    CnfFormula,
    count_sat_bruteforce,
    sat_to_ideal,
)
from hilbertpoly.symfun import (
    b_sequence,
    bernoulli,
    d_coeff,
    delta_coeff,
    delta_det,
    scaling_factor,
    todd_poly,
)
from hilbertpoly.transversality import (
    Flag,
    GrassPoint,
    InputInstance,
    gauss_point,
    in_cell,
    random_flag,
    transversal_at,
)

from oracles import (
    TruncSeries,
    b_prefix_by_inversion,
    conjugate,
    contains,
    dimension_jumps,
    dual_sequence,
    elementary_symmetric_values,
    formal_chern,
    generic_ci_ideal,
    ring_delta,
    schur_eval,
    series_inverse,
    todd_direct,
    todd_terms,
)


@contextmanager
def criterion(number, budget_seconds, description):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d: FAIL (%.2fs) %s" % (number, time.time() - t0, description))
        raise
    elapsed = time.time() - t0
    print("ACCEPTANCE %d: PASS (%.2fs) %s" % (number, elapsed, description))
    assert elapsed < budget_seconds, "criterion %d over budget" % number


def test_acceptance_1_todd_polynomials():
    with criterion(1, 1.0, "Todd polynomials: closed values, and the "
                           "determinant formula and the recurrence vs "
                           "direct graded parts, m <= 6"):
        assert todd_poly(1) == parse_poly("1/2*c1", ("c1",))
        assert todd_poly(2) == parse_poly("1/12*c1^2 + 1/12*c2", ("c1", "c2"))
        assert todd_poly(3) == parse_poly("1/24*c1*c2", ("c1", "c2", "c3"))
        for m in range(7):
            direct = todd_direct(m)
            c = formal_chern(m)
            # the determinantal formula over formal c_1..c_m
            formula = sum((coeff * ring_delta(lam, c) for lam, coeff in todd_terms(m)),
                          c[0] - c[0])
            assert formula == direct
            assert todd_poly(m) == direct


def test_acceptance_2_bernoulli_routes():
    with criterion(2, 1.0, "Bernoulli double sum vs series inversion, "
                           "n <= 20, with scaled integrality"):
        series = b_prefix_by_inversion(42)
        for n in range(1, 21):
            bn = bernoulli(n)
            assert series[2 * n] == (-1) ** (n - 1) * bn / math.factorial(2 * n)
            assert (math.factorial(2 * n + 1) * bn).denominator == 1
        assert b_sequence(4) == (1, Fraction(1, 2), Fraction(1, 12), 0,
                                 Fraction(-1, 720))


def _subgrid_cases():
    cases = [ci for ci in ci_grid(4, 3, 3)
             if ci.r >= 1 and any(d > 1 for d in ci.degrees)]
    cases.sort(key=lambda ci: (ci.n, ci.r, ci.degrees))
    # deterministic spread across ambient dimensions, largest cases included
    picked = [ci for ci in cases if ci.n == 4][:12]
    picked += [ci for ci in cases if ci.n == 3][:5]
    picked += [ci for ci in cases if ci.n == 2][:3]
    return picked[:20]


def test_acceptance_3_three_way_hilbert_agreement():
    with criterion(3, 120.0, "three-way Hilbert agreement on the CI grid "
                             "n<=6, r<=3, d<=4, plus Groebner cross-check "
                             "on a 20-case subgrid"):
        grid = ci_grid(6, 3, 4)
        assert len(grid) == 161
        for ci in grid:
            oracle = ci_hilbert_series_oracle(ci)
            assert hilbert_poly_hrr(ci) == oracle
            chars = hilbert_poly_from_characters(ci.m, ci.n, character_table(ci))
            assert chars == oracle
        subgrid = _subgrid_cases()
        assert len(subgrid) == 20
        for ci in subgrid:
            data = hilbert_data(generic_ci_ideal(ci, seed=11))
            assert data.hilbert_polynomial == ci_hilbert_series_oracle(ci), ci


def test_acceptance_4_plane_curves():
    with criterion(4, 1.0, "plane curves d=1..6: p0, genus, polar degree, "
                           "topological Euler characteristic"):
        for d in range(1, 7):
            ci = CompleteIntersection(2, (d,))
            p = hilbert_poly_from_characters(ci.m, ci.n, character_table(ci))
            assert p == hilbert_poly_hrr(ci)
            genus = (d - 1) * (d - 2) // 2
            assert p.coefficient(0) == Fraction(d * (3 - d), 2)
            assert -(p.coefficient(0) - 1) == genus
            assert projective_character(ci, Partition([1])) == d * (d - 1)
            assert euler_top(ci) == 2 - 2 * genus


def test_acceptance_5_rational_normal_curve():
    with criterion(5, 1.0, "rational normal curve: curve formula with "
                           "deg P1 = 2(n-1) returns p0 = 1, n = 2..10"):
        for n in range(2, 11):
            p0 = (delta_coeff(1, 0, Partition()) * n
                  + delta_coeff(1, 0, Partition([1])) * (2 * (n - 1)))
            assert p0 == 1


def test_acceptance_6_integrality():
    with criterion(6, 5.0, "scaled integrality of Hilbert coefficients on "
                           "the grid and of Delta_lambda(b), |lambda| <= 8"):
        for ci in ci_grid(6, 3, 4):
            p = hilbert_poly_from_characters(ci.m, ci.n, character_table(ci))
            assert p == hilbert_poly_hrr(ci)
            for k in range(ci.m + 1):
                scaled = scaling_factor(k, ci.m) * math.factorial(k) * p.coefficient(k)
                assert scaled.denominator == 1, (ci, k)
        for M in range(9):
            b = b_sequence(max(2 * M, 1))
            for lam in enumerate_partitions(M):
                scale = 1
                for i in range(M - lam.length + 2, M + 2):
                    scale *= math.factorial(i)
                assert (scale * scale * delta_det(lam, b)).denominator == 1


def _random_fraction(rng, bound=6):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))


def test_acceptance_7_symmetric_function_identities():
    with criterion(7, 30.0, "Giambelli, Cauchy, dual/inverse Delta, Schur "
                            "shift expansion, hook determinants; 100 random "
                            "rational evaluations each, m <= 5"):
        rng = random.Random(20250)

        for _ in range(100):  # Giambelli
            m = rng.randint(1, 5)
            gamma = [Fraction(v) for v in rng.sample(range(-20, 21), m)]
            e = tuple(elementary_symmetric_values(gamma, 2 * m + 2))
            lam = rng.choice(enumerate_partitions(rng.randint(0, m), max_part=m))
            assert delta_det(lam, e) == schur_eval(conjugate(lam), gamma)

        for _ in range(100):  # dual and inverse Delta identities
            K = 13
            vals = [Fraction(1)] + [_random_fraction(rng) for _ in range(K - 1)]
            c = tuple(vals)
            cinv = tuple(series_inverse(TruncSeries(K, vals)).coeffs)
            lam = rng.choice(enumerate_partitions(rng.randint(0, 5)))
            assert delta_det(lam, dual_sequence(c)) == (-1) ** lam.size * delta_det(lam, c)
            assert delta_det(lam, cinv) == delta_det(conjugate(lam), dual_sequence(c))

        for _ in range(100):  # Cauchy, graded via an auxiliary jet variable
            m = rng.randint(1, 4)
            beta = [Fraction(v) for v in rng.sample(range(-9, 10), m)]
            gamma = [Fraction(v) for v in rng.sample(range(-9, 10), m)]
            prod = TruncSeries.one(m + 1)
            for bj in beta:
                for gi in gamma:
                    prod = prod * TruncSeries.from_coeffs(m + 1, [1, bj * gi])
            k = rng.randint(0, m)
            lhs = sum((schur_eval(conjugate(lam), beta) * schur_eval(lam, gamma)
                       for lam in enumerate_partitions(k, max_part=m, max_len=m)),
                      Fraction(0))
            assert lhs == prod[k]

        for _ in range(100):  # shift expansion with binomial determinants
            m = rng.randint(1, 5)
            gamma = [Fraction(v) for v in rng.sample(range(-12, 13), m + 1)]
            beta = _random_fraction(rng)
            lam = rng.choice(enumerate_partitions(rng.randint(0, m), max_len=m))
            lhs = schur_eval(lam, [g + beta for g in gamma])
            rhs = Fraction(0)
            for j in range(lam.size + 1):
                for mu in enumerate_partitions(j, max_len=m):
                    if contains(lam, mu):
                        rhs += (d_coeff(lam, mu, m) * beta ** (lam.size - mu.size)
                                * schur_eval(mu, gamma))
            assert lhs == rhs

        for _ in range(100):  # hook-shaped binomial determinants
            m = rng.randint(1, 5)
            k = rng.randint(0, m)
            j = rng.randint(0, k)
            assert d_coeff(Partition([1] * k), Partition([1] * j), m) == \
                math.comb(m - j + 1, m - k + 1)


def _pinned_cnf_corpus():
    rng = random.Random(777)
    corpus = []
    for i in range(50):
        n = 3 + i % 8  # sizes 3..10
        clauses = []
        for _ in range(rng.randint(1, 15)):
            width = rng.randint(1, 3)
            vs = rng.sample(range(1, n + 1), min(width, n))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        corpus.append(CnfFormula(num_vars=n, clauses=tuple(clauses)))
    return corpus


def test_acceptance_8_sat_reduction():
    with criterion(8, 120.0, "50 pinned CNFs, n <= 10: Hilbert constant = "
                             "brute-force count = zero-dimensional count"):
        for phi in _pinned_cnf_corpus():
            expected = count_sat_bruteforce(phi)
            ideal = sat_to_ideal(phi)
            data = hilbert_data(ideal)
            assert data.hilbert_polynomial == UniPoly([expected])
            affine = [g.set_variable("x0", 1) for g in ideal.generators]
            assert count_zero_dim(affine) == expected


def _membership_corpus():
    v3 = ("x0", "x1", "x2")
    v4 = ("x0", "x1", "x2", "x3")
    conic = HomIdeal.from_polys(v3, [parse_poly("x0*x2 - x1^2", v3)])
    twisted = HomIdeal.from_polys(v4, [parse_poly("x0*x2 - x1^2", v4),
                                       parse_poly("x1*x3 - x2^2", v4),
                                       parse_poly("x0*x3 - x1*x2", v4)])
    plane = HomIdeal.from_polys(v3, [parse_poly("x0 + x1 + x2", v3)])
    cases = []
    for text in ["x0^2*x2 - x0*x1^2", "x0*x1", "x1^3 - x0*x1*x2", "x2^3",
                 "x0*x2^2 - x1^2*x2", "x1^2 - x0*x2", "x0^2 + x1^2", "x1^4"]:
        cases.append((conic, parse_poly(text, v3)))
    for text in ["x0*x2 - x1^2", "x0^2*x3 - x0*x1*x2", "x1^2*x3 - x1*x2^2",
                 "x0*x3^2", "x1*x2 - x0*x3", "x2^3 - x1*x2*x3", "x3^2 - x0*x2",
                 "x0^2 - x1*x3"]:
        cases.append((twisted, parse_poly(text, v4)))
    for text in ["x0^2 + x0*x1 + x0*x2", "x0^2", "x1*x0 + x1^2 + x1*x2",
                 "x0^2 - x1^2 - x1*x2 + x0*x2 - 2*x1*x2 - 2*x2^2 + 2*x2^2"]:
        cases.append((plane, parse_poly(text, v3)))
    phi = CnfFormula(num_vars=3, clauses=((1, 2), (-2, 3)))
    sat = sat_to_ideal(phi)
    vs = sat.variables
    for text in ["x1^2 - x1*x0", "x1^2*x2 - x1*x2*x0", "x1*x2*x3",
                 "x0^3 - x0^2*x1 - x0^2*x2 + x0*x1*x2",
                 "x0^2 - x0*x1", "x3^2 - x3*x0", "x1^3 - x1^2*x0",
                 "x2^2*x3 - x2*x3*x0", "x0^4", "x1*x2 - x0*x3"]:
        cases.append((sat, parse_poly(text, vs)))
    return cases


def test_acceptance_9_membership_duality():
    with criterion(9, 60.0, "him_decide agrees with in_ideal on a "
                            "30-instance corpus"):
        corpus = _membership_corpus()
        assert len(corpus) == 30
        for ideal, g in corpus:
            assert him_decide(ideal, g) == in_ideal(g, ideal), g.to_text()


def _random_grass_point(rng, n, m):
    while True:
        rows = [[Fraction(rng.randint(-6, 6)) for _ in range(n + 1)]
                for _ in range(m + 1)]
        from hilbertpoly.linalg import rank
        if rank(rows) == m + 1:
            return GrassPoint(tuple(tuple(r) for r in rows))


def test_acceptance_10_transversality_suite():
    with criterion(10, 60.0, "chart vs jump tests on 200 samples, pinned "
                             "conic/quadric verdicts, 19/20 conic flags"):
        rng = random.Random(31415)
        for _ in range(200):
            n = rng.randint(1, 6)
            m = rng.randint(0, n - 1)
            flag = random_flag(n, rng.randint(0, 10 ** 6))
            A = _random_grass_point(rng, n, m)
            mus = [mu for k in range((n - m) * (m + 1) + 1)
                   for mu in enumerate_partitions(k, max_part=n - m, max_len=m + 1)]
            mu = rng.choice(mus)
            assert in_cell(A, flag, mu) == (dimension_jumps(A, flag) == jumps(mu, n, m))

        X3 = ("x0", "x1", "x2")
        X4 = ("x0", "x1", "x2", "x3")
        conic = InputInstance(polys=(parse_poly("x0*x2 - x1^2", X3),), n=2, m=1)
        conic_flag = Flag.from_basis([[1, 0, 0], [2, 1, 0], [3, 0, 1]])
        quadric = InputInstance(polys=(parse_poly("x0*x3 - x1*x2", X4),), n=3, m=2)
        quadric_flag = Flag.from_basis([[1, 1, 0, 0], [3, 0, 1, 0],
                                        [3, 0, 0, 1], [9, 0, 0, 0]])
        for _ in range(3):  # stable across repeated runs
            assert transversal_at(conic, (1, 1, 1), conic_flag, Partition([1])) is True
            assert transversal_at(quadric, (1, 2, 3, 6), quadric_flag,
                                  Partition([1])) is True

        good = 0
        for seed in range(20):
            rng2 = random.Random(seed)
            t0 = Fraction(rng2.randint(-5, 5)) or Fraction(7)
            x = (1, t0, t0 * t0)
            tangent_dir = (0, 1, 2 * t0)
            s = Fraction(rng2.randint(1, 9), rng2.randint(1, 3))
            f0 = tuple(a + s * b for a, b in zip(x, tangent_dir))
            from hilbertpoly.linalg import det
            while True:
                cols = [f0] + [tuple(rng2.randint(-9, 9) for _ in range(3))
                               for _ in range(2)]
                basis = [[Fraction(cols[j][i]) for j in range(3)] for i in range(3)]
                if det(basis) != 0:
                    flag = Flag.from_basis(basis)
                    if in_cell(gauss_point(conic, x), flag, Partition([1])):
                        break
            good += bool(transversal_at(conic, x, flag, Partition([1])))
        assert good >= 19, "only %d/20 transversal" % good


def test_acceptance_11_bezout():
    with criterion(11, 60.0, "count_zero_dim equals the degree product on "
                             "20 random dense systems, n <= 3, d <= 3"):
        rng = random.Random(161803)
        for _ in range(20):
            n = rng.randint(1, 3)
            degs = [rng.randint(1, 3) for _ in range(n)]
            variables = tuple("x%d" % (i + 1) for i in range(n))
            gens = []
            for d in degs:
                terms = {}
                for k in range(d + 1):
                    for e in monomials_of_degree(n, k):
                        c = rng.randint(-5, 5)
                        if c:
                            terms[e] = Fraction(c)
                terms[tuple(d if i == 0 else 0 for i in range(n))] = \
                    Fraction(rng.randint(1, 5))
                gens.append(MultiPoly(variables, terms))
            expected = 1
            for d in degs:
                expected *= d
            assert count_zero_dim(gens) == expected, (n, degs)
