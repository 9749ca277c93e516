import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hilbertpoly.arith import MultiPoly, UniPoly, parse_poly
from hilbertpoly.grobner import (
    HomIdeal,
    ResourceCapExceeded,
    count_zero_dim,
    hilbert_data,
    in_ideal,
    membership_via_hilbert as him_decide,
)
from hilbertpoly.reductions import (
    MAX_CLAUSE_POSITIVES,
    CnfFormula,
    count_sat_bruteforce,
    parse_dimacs,
    sat_to_ideal,
)
from hilbertpoly.transversality import InputInstance

from oracles import (
    GradedMatrix,
    binom_poly,
    dimacs_text,
    euler_quotient,
    ideal_to_graded_matrix,
    input_condition_at,
    interpolate,
)


def test_cnf_normalization():
    phi = CnfFormula(num_vars=3, clauses=((1, 1, 2), (1, -1, 3), (2, 3)))
    assert phi.clauses == ((1, 2), (2, 3))  # dupes collapsed, tautology dropped
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((3,),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((0,),))


def test_clause_expansion_cap():
    k = MAX_CLAUSE_POSITIVES
    wide = sat_to_ideal(CnfFormula(k, (tuple(range(1, k + 1)),)))
    assert len(wide.generators[-1].terms) == 2 ** k
    with pytest.raises(ResourceCapExceeded, match="%d positive literals" % (k + 1)):
        sat_to_ideal(CnfFormula(k + 1, (tuple(range(1, k + 2)),)))
    # negative literals are single variables and do not count
    mixed = sat_to_ideal(CnfFormula(k + 4, ((*range(1, k + 1), *range(-k - 4, -k)),)))
    assert len(mixed.generators[-1].terms) == 2 ** k


def test_dimacs_roundtrip():
    text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
    phi = parse_dimacs(text)
    assert phi.num_vars == 3
    assert phi.clauses == ((1, -2), (2, 3))
    assert parse_dimacs(dimacs_text(phi)) == phi


def test_sat_to_ideal_single_clause():
    phi = CnfFormula(num_vars=2, clauses=((1, 2),))
    ideal = sat_to_ideal(phi)
    v = ideal.variables
    assert v == ("x0", "x1", "x2")
    expected = [
        parse_poly("x1^2 - x1*x0", v),
        parse_poly("x2^2 - x2*x0", v),
        parse_poly("x0^2 - x0*x1 - x0*x2 + x1*x2", v),  # (x0-x1)(x0-x2)
    ]
    assert list(ideal.generators) == expected
    assert ideal.homogeneous


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-n, n).filter(bool), max_size=5), max_size=6)
    if n else st.lists(st.just([]), max_size=2))))
@settings(max_examples=150, deadline=None)
def test_clause_expansion_matches_product_of_factors(case):
    # each clause generator against the product of its factors, x0 - x_i
    # for a positive literal and x_i for a negative one, in MultiPoly
    # arithmetic
    n, clauses = case
    phi = CnfFormula(n, tuple(map(tuple, clauses)))
    ideal = sat_to_ideal(phi)
    x = [MultiPoly.variable(ideal.variables, v) for v in ideal.variables]
    products = []
    for clause in phi.clauses:
        f = MultiPoly.constant(ideal.variables, 1)
        for lit in clause:
            f = f * (x[0] - x[lit] if lit > 0 else x[-lit])
        products.append(f)
    assert list(ideal.generators[n:]) == products


def test_sat_empty_clause_kills_everything():
    phi = CnfFormula(num_vars=2, clauses=((),))
    data = hilbert_data(sat_to_ideal(phi))
    assert data.hilbert_polynomial == UniPoly()


def test_sat_no_clauses_full_cube():
    phi = CnfFormula(num_vars=3, clauses=())
    data = hilbert_data(sat_to_ideal(phi))
    assert data.hilbert_polynomial == UniPoly.constant(8)


def test_count_bruteforce_examples():
    assert count_sat_bruteforce(CnfFormula(2, ((1, 2),))) == 3
    assert count_sat_bruteforce(CnfFormula(1, ((1,), (-1,)))) == 0
    with pytest.raises(ValueError):
        count_sat_bruteforce(CnfFormula(30, ()))


def random_cnf(rng, max_vars=8, max_clauses=10, width=3):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        vs = rng.sample(range(1, n + 1), min(n, rng.randint(1, width)))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def test_sat_reduction_three_routes_agree():
    rng = random.Random(4242)
    for _ in range(12):
        phi = random_cnf(rng, max_vars=6, max_clauses=8)
        expected = count_sat_bruteforce(phi)
        ideal = sat_to_ideal(phi)
        data = hilbert_data(ideal)
        assert data.hilbert_polynomial == UniPoly.constant(expected)
        affine = [g.set_variable("x0", 1) for g in ideal.generators]
        assert count_zero_dim(affine) == expected


def test_input_condition_on_sat_zeros():
    rng = random.Random(55)
    formulas = [CnfFormula(num_vars=3, clauses=((1, -2), (2, 3)))]
    formulas += [random_cnf(rng, max_vars=5, max_clauses=6) for _ in range(8)]
    for phi in formulas:
        ideal = sat_to_ideal(phi)
        inst = InputInstance(polys=ideal.generators, n=phi.num_vars, m=0)
        for mask in range(1 << phi.num_vars):
            if not phi.satisfied_by(mask):
                continue
            x = (1,) + tuple((mask >> i) & 1 for i in range(phi.num_vars))
            assert input_condition_at(inst, x)


def test_him_decide_examples():
    v = ("x0", "x1", "x2")
    I = HomIdeal.from_polys(v, [parse_poly("x0*x2 - x1^2", v)])
    assert him_decide(I, parse_poly("x0^2*x2 - x0*x1^2", v)) is True
    assert him_decide(I, parse_poly("x0*x1", v)) is False


def test_him_decide_matches_in_ideal_on_corpus():
    rng = random.Random(7)
    v = ("x0", "x1", "x2")
    gens_pool = ["x0*x2 - x1^2", "x1^3 - x0^2*x2", "x0^2 - x1*x2"]
    candidates = ["x0", "x1^2", "x0*x2", "x0*x2 - x1^2", "x1^4 - x0^2*x2^2",
                  "x0^3*x2 - x0^2*x1^2", "x2^3", "x0*x1*x2"]
    for _ in range(10):
        texts = rng.sample(gens_pool, rng.randint(1, 2))
        I = HomIdeal.from_polys(v, [parse_poly(t, v) for t in texts])
        g = parse_poly(rng.choice(candidates), v)
        assert him_decide(I, g) == in_ideal(g, I)


def test_him_decide_on_sat_instance():
    phi = CnfFormula(num_vars=2, clauses=((1,), (2,)))
    ideal = sat_to_ideal(phi)
    # the clause product of an implied clause (1 or 2) is in the ideal
    v = ideal.variables
    implied = parse_poly("x0^2 - x0*x1 - x0*x2 + x1*x2", v)
    assert him_decide(ideal, implied) == in_ideal(implied, ideal) == True


def test_graded_matrix_validation():
    v = ("x0", "x1")
    f = parse_poly("x0^3", v)
    gm = ideal_to_graded_matrix([f])
    assert gm.col_degrees == (-3,)
    assert gm.row_degrees == (0,)
    with pytest.raises(ValueError):
        GradedMatrix(entries=((f,),), row_degrees=(0,), col_degrees=(-2,))


def test_euler_quotient_projective_space_values():
    v = ("x0", "x1", "x2")
    f = parse_poly("x0^3 + x1^3 + x2^3", v)
    gm = ideal_to_graded_matrix([f])
    # plane cubic: p(T) = 3T
    assert euler_quotient(gm, 1) == 3
    assert euler_quotient(gm, 0) == 0
    assert euler_quotient(gm, -2) == -6


def test_euler_quotient_full_ring():
    import math
    gm = GradedMatrix(entries=((),), row_degrees=(0,), col_degrees=())
    for n in (2, 3):
        v = tuple("x%d" % i for i in range(n + 1))
        for d in range(4):
            assert euler_quotient(gm, d, variables=v) == math.comb(d + n, n)
    with pytest.raises(ValueError):
        euler_quotient(gm, 0)


def test_euler_quotient_rejects_multirow():
    v = ("x0", "x1")
    f = parse_poly("x0", v)
    gm = GradedMatrix(entries=((f,), (f,)), row_degrees=(0, 0), col_degrees=(-1,))
    with pytest.raises(ValueError):
        euler_quotient(gm, 0)


def test_interpolation_examples():
    assert interpolate([(0, 1), (1, 3), (2, 6)], 2) == binom_poly(2, 2)
    assert interpolate([(0, 5), (1, 5), (7, 5)], 0) == UniPoly.constant(5)
    assert interpolate([(0, 0), (1, 4), (2, 8)], 1) == UniPoly([0, 4])


def test_interpolation_guards():
    with pytest.raises(ValueError):
        interpolate([(0, 1), (1, 2)], 2)
    with pytest.raises(ValueError):
        interpolate([(0, 0), (1, 1), (2, 4), (3, 8)], 2)  # not a quadratic
    with pytest.raises(ValueError):
        interpolate([(0, 1), (0, 2), (1, 1)], 1)
