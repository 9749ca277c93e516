import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import hilbertpoly
from hilbertpoly.arith import CrossCheckFailed, MultiPoly, UniPoly, parse_poly
from hilbertpoly.grobner import (
    GREVLEX,
    HilbertData,
    HomIdeal,
    INFINITE,
    MonomialOrder,
    ResourceCapExceeded,
    buchberger,
    count_zero_dim,
    fresh_variable,
    hilbert_data,
    hilbert_function_direct,
    hilbert_series_monomial,
    ideal_file_text,
    in_ideal,
    membership_via_hilbert,
    minimal_leads,
    monomials_of_degree,
    normal_form,
    parse_ideal_file,
    _FieldOverflow,
    _Packing,
    _cancel_one_minus_t,
    _hilbert_data_from_numerator,
    _revlex_order,
)
from oracles import (
    binom_poly,
    divide_by_one_minus_t,
    generic_ci_ideal,
    hilbert_data_by_fractions,
    hilbert_function,
    hilbert_numerator_by_inclusion_exclusion,
    leading_exponents,
    normal_form_by_scan,
    order_key,
    reduced_basis_by_scan,
    spoly,
    standard_monomial_count,
)


def ideal(var_text, *polys):
    variables = tuple(var_text.split())
    return HomIdeal.from_polys(variables, [parse_poly(p, variables) for p in polys])


def polys(var_text, *texts):
    variables = tuple(var_text.split())
    return [parse_poly(p, variables) for p in texts]


# -- Buchberger


def test_buchberger_hand_example():
    gens = polys("x y", "x^2 - y", "y")
    gb = buchberger(gens)
    assert gb == polys("x y", "y", "x^2")


def test_buchberger_zero_ideal():
    assert buchberger([MultiPoly.zero(("x",))]) == []


def test_buchberger_redundant_generator():
    gens = polys("x y", "x", "x^2")
    assert buchberger(gens) == polys("x y", "x")


def test_buchberger_generator_order_irrelevant():
    rng = random.Random(0)
    gens = polys("x y z",
                 "x^2 + y*z", "y^2 - x*z", "z^2 + x*y - y^2")
    reference = buchberger(gens)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled) == reference


def test_buchberger_idempotent():
    gens = polys("x y z", "x*y - z^2", "y^2 - x*z")
    gb = buchberger(gens)
    assert buchberger(gb) == gb


def test_resource_caps():
    gens = polys("x y z", "x^2 + y*z", "y^3 - x*z^2", "z^4 - x*y^3")
    with pytest.raises(ResourceCapExceeded):
        buchberger(gens, max_basis=1)
    # the degree cap bounds the input generators too, not only remainders
    with pytest.raises(ResourceCapExceeded, match="degree"):
        buchberger(polys("x y", "x^5 - y^5"), max_degree=4)
    assert buchberger(polys("x y", "x^4 - y^4"), max_degree=4) == polys("x y", "x^4 - y^4")
    # the two inputs fit under the basis cap; the element that the
    # J-pair of x*y - 1 and x^2 - y adds does not
    mid_run = polys("x y", "x^2 - y", "x*y - 1")
    with pytest.raises(ResourceCapExceeded, match="basis size"):
        buchberger(mid_run, max_basis=2)
    assert buchberger(mid_run, max_basis=3) == polys("x y", "y^2 - x", "x*y - 1", "x^2 - y")


# -- normal forms and membership


def test_normal_form_examples():
    assert in_ideal(*polys("x y", "x*y"), ideal("x y", "x"))
    r = normal_form(polys("x", "x+1")[0], polys("x", "x"))
    assert r == parse_poly("1", ("x",))
    assert in_ideal(polys("x0 x1 x2", "x0*x2")[0],
                    ideal("x0 x1 x2", "x0*x2 - x1^2", "x1"))


@st.composite
def order_and_exponents(draw):
    n = draw(st.integers(1, 4))
    order = MonomialOrder(draw(st.none() | st.permutations(range(n)).map(tuple)))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * n),
                         min_size=2, max_size=10, unique=True))
    return order, exps


def _fits(exp, bits):
    """Whether exp packs in fields of the given bits, whose top field
    holds the degree."""
    return sum(exp) < 2 ** bits


@given(order_and_exponents(), st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_packed_monomials_match_tuples(case, bits):
    order, exps = case
    pk = _Packing(order, len(exps[0]), bits)
    key = order_key(order)
    packed = {}
    for e in exps:
        if _fits(e, bits):
            packed[e] = pk.pack(e)
            assert pk.unpack(packed[e]) == e
            assert pk.degree(packed[e]) == sum(e)
        else:
            with pytest.raises(_FieldOverflow):
                pk.pack(e)
    for a, pa in packed.items():
        for b, pb in packed.items():
            # integer order is the monomial order
            assert (pa < pb) == (key(a) < key(b))
            divides = all(x <= y for x, y in zip(a, b))
            assert (not (pb - pa) & pk.guard) == divides
            if divides:
                assert pk.unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))
            product = tuple(x + y for x, y in zip(a, b))
            # a product that does not fit sets a guard bit
            assert (not (pa + pb) & pk.guard) == _fits(product, bits)
            if _fits(product, bits):
                assert pa + pb == pk.pack(product)
            lcm = tuple(max(x, y) for x, y in zip(a, b))
            if _fits(lcm, bits):
                assert pk.lcm(pa, pb) == pk.pack(lcm)
                coprime = all(not x or not y for x, y in zip(a, b))
                assert (pk.lcm(pa, pb) == pa + pb) == coprime
            else:
                with pytest.raises(_FieldOverflow):
                    pk.lcm(pa, pb)


def test_input_exponent_past_sixteen_bits():
    big = 2 ** 16
    for order in (GREVLEX, MonomialOrder((1, 0))):
        gens = polys("x y", "x^%d - y^2" % big, "x*y")
        basis = buchberger(gens, order)
        assert basis == reduced_basis_by_scan(gens, order)
        assert sorted(g.to_text() for g in basis) == ["x*y", "x^%d - y^2" % big, "y^3"]


@pytest.mark.parametrize("k, widths", [(64, [8]), (100, [8, 16])])
def test_basis_degree_crossing_the_field_width(monkeypatch, k, widths):
    # the inputs have degree k + 1 and start at 8 bits; the run makes
    # x^(2k-1)*z - y^(k-2)*z^4 of degree 2k, and at k = 100 a monomial of
    # the run passes 255, the most 8 bits hold, so the run starts over at
    # 16 bits
    grobner = hilbertpoly.grobner
    seen = []

    class Recording(grobner._Packing):
        def __init__(self, order, nvars, bits):
            seen.append(bits)
            super().__init__(order, nvars, bits)

    monkeypatch.setattr(grobner, "_Packing", Recording)
    gens = polys("x y z", "x*y^%d - z" % k, "x^%d*y - z^2" % k)
    basis = buchberger(gens)
    assert seen == widths
    assert basis == reduced_basis_by_scan(gens, GREVLEX)
    assert basis == polys("x y z", "y^%d*z^2 - x^%d*z" % (k - 1, k - 1), "x*y^%d - z" % k,
                          "x^%d*y - z^2" % k, "x^%d*z - y^%d*z^4" % (2 * k - 1, k - 2))


def test_series_numerator_exponents_past_sixteen_bits():
    # L = (x^a, x*y, y^b): by inclusion-exclusion over the generators and
    # their lcms x^a*y, x*y^b and x^a*y^b, the numerator is
    # 1 - t^2 - t^a - t^b + t^(a+1) + t^(b+1)
    a, b = 2 ** 16, 2 ** 16 + 3
    coeffs = [0] * (b + 2)
    for d, c in ((0, 1), (2, -1), (a, -1), (b, -1), (a + 1, 1), (b + 1, 1)):
        coeffs[d] += c
    for n in (2, 3):
        gens = [(a,) + (0,) * (n - 1), (1, 1) + (0,) * (n - 2), (0, b) + (0,) * (n - 2)]
        assert hilbert_series_monomial(gens, n) == UniPoly(coeffs)
    # the standard monomials are 1, x..x^(a-1) and y..y^(b-1)
    assert count_zero_dim(polys("x y", "x^%d" % a, "x*y", "y^%d" % b)) == a + b - 1


XYZ = ("x", "y", "z")


@st.composite
def small_poly(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exp = tuple(draw(st.integers(0, 3)) for _ in XYZ)
        terms[exp] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return MultiPoly(XYZ, terms)


@given(small_poly(), st.lists(small_poly(), min_size=1, max_size=3),
       st.sampled_from([GREVLEX, MonomialOrder((2, 0, 1))]))
@settings(max_examples=80, deadline=None)
def test_normal_form_matches_scan_division(f, divisors, order):
    assert normal_form(f, divisors, order) == normal_form_by_scan(f, divisors, order)


@st.composite
def small_system(draw):
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exp = tuple(draw(st.integers(0, 2)) for _ in XYZ)
            terms[exp] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        gens.append(MultiPoly(XYZ, terms))
    return gens


def _basis_or_cap(gens, order):
    try:
        return buchberger(gens, order, max_basis=30, max_degree=10)
    except ResourceCapExceeded as exc:
        return str(exc)


@given(small_system(),
       st.lists(st.fractions().filter(bool), min_size=3, max_size=3),
       st.sampled_from([GREVLEX, MonomialOrder((2, 0, 1))]))
@settings(max_examples=60, deadline=None)
def test_basis_invariant_under_scaling_generators(gens, scalars, order):
    basis = _basis_or_cap(gens, order)
    assert _basis_or_cap([c * g for c, g in zip(scalars, gens)], order) == basis
    if not isinstance(basis, str):
        assert basis == reduced_basis_by_scan(gens, order)


@pytest.mark.parametrize("n, degrees", [(7, (2, 2, 2, 2)), (6, (3, 3))])
def test_regular_sequence_has_no_reduction_to_zero(monkeypatch, n, degrees):
    # dense forms with seeded coefficients are a regular sequence, on
    # which the signature-based run reduces nothing to zero (F5)
    grobner = hilbertpoly.grobner
    remainders = []

    def counted(*args, real=grobner._normal_form):
        out = real(*args)
        remainders.append(bool(out[0]))
        return out

    monkeypatch.setattr(grobner, "_normal_form", counted)
    rng = random.Random(10 * n + len(degrees))
    variables = tuple("x%d" % i for i in range(n + 1))
    forms = [MultiPoly(variables, {e: Fraction(rng.randint(-5, 5))
                                   for e in monomials_of_degree(n + 1, d)})
             for d in degrees]
    data = hilbert_data(HomIdeal.from_polys(variables, forms))
    # a regular sequence of these degrees has numerator prod (1 - t^d)
    numerator = UniPoly([1])
    for d in degrees:
        numerator = numerator * UniPoly([1] + [0] * (d - 1) + [-1])
    assert data.series_numerator == numerator
    assert len(remainders) > len(degrees)
    assert all(remainders)


@st.composite
def sat_shaped_system(draw):
    """SAT-shaped systems: 4-5 variables, 6-12 monomials and binomials
    with coefficients +-1.  Leads come from a small pool of
    exponents and their multiples by one variable, so that leads repeat
    and divide each other: the syzygy and rewrite criteria both get
    work."""
    n = draw(st.integers(4, 5))
    exponent = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    pool = draw(st.lists(exponent, min_size=2, max_size=4))
    gens = []
    for _ in range(draw(st.integers(6, 12))):
        lead = list(draw(st.sampled_from(pool)))
        lead[draw(st.integers(0, n - 1))] += draw(st.integers(0, 1))
        terms = {tuple(lead): Fraction(draw(st.sampled_from([-1, 1])))}
        if draw(st.booleans()):
            other = draw(exponent)
            if other not in terms:
                terms[other] = Fraction(draw(st.sampled_from([-1, 1])))
        gens.append(MultiPoly(tuple("x%d" % i for i in range(n)), terms))
    return gens, draw(st.permutations(range(n)).map(tuple))


@given(sat_shaped_system())
@settings(max_examples=40, deadline=None)
def test_sat_shaped_basis_matches_scan(case):
    gens, ranking = case
    for order in (GREVLEX, MonomialOrder(ranking)):
        assert buchberger(gens, order) == reduced_basis_by_scan(gens, order)


@pytest.mark.parametrize("num_vars, clauses", [
    (3, ((1, -2, 3), (-1, 2), (2, -3), (-1, -2, -3))),
    (4, ((1, 2, -3), (-1, 3, 4), (2, -4), (-2, -3, 4), (1, -4))),
    (4, ((-1, -2), (1, 3, -4), (2, 3, 4), (-3, -4, 1), (-1, 2, -3), (4,))),
])
def test_sat_ideal_basis_matches_scan(num_vars, clauses):
    from hilbertpoly.reductions import CnfFormula, sat_to_ideal
    gens = sat_to_ideal(CnfFormula(num_vars, clauses)).generators
    affine = [g.set_variable("x0", 1) for g in gens]
    for system in (gens, affine):
        assert buchberger(system) == reduced_basis_by_scan(system, GREVLEX)


def test_sat_formula_pinned_at_21_models():
    # pass seed sat_count:24:0 of bench/run.py: J-pair pruning that
    # drops a pair the signature criteria need counted 23 models here
    from hilbertpoly.reductions import CnfFormula, count_sat_bruteforce, sat_to_ideal
    phi = CnfFormula(7, ((-6, 7, 3), (6, 2, -5), (-4, 7, 2), (1, 6, -2), (-7, 1, 5),
                         (6, -4, -1), (-2, 5, 4), (3, 2, 5), (-4, 2, -5), (-4, -5, -7),
                         (5, -1, -7), (3, 7, 5), (6, -1, 5), (3, 6, -2)))
    I = sat_to_ideal(phi)
    assert count_sat_bruteforce(phi) == 21
    assert hilbert_data(I).hilbert_polynomial == UniPoly([21])
    assert count_zero_dim([g.set_variable("x0", 1) for g in I.generators]) == 21


def test_hilbert_data_without_asserts():
    # python -O strips assert statements; the Groebner path's checks
    # must still run and its answers must not change
    script = textwrap.dedent("""
        import sys
        from hilbertpoly.arith import parse_poly
        from hilbertpoly.grobner import HomIdeal, count_zero_dim, hilbert_data
        from oracles import euler_quotient, hilbert_function, ideal_to_graded_matrix
        v = ("x0", "x1", "x2", "x3")
        cubic = [parse_poly(p, v) for p in ["x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2"]]
        data = hilbert_data(HomIdeal.from_polys(v, cubic))
        print(sys.flags.optimize, data.hilbert_polynomial.to_text("k"),
              [hilbert_function(data, k) for k in range(5)], data.index_of_regularity,
              [euler_quotient(ideal_to_graded_matrix(cubic), d) for d in (-1, 2)],
              [count_zero_dim([parse_poly(p, ("x", "y")) for p in system])
               for system in (["x^2 - 1", "y^3 - y"], ["x*y - y"])])
    """)
    src = os.path.dirname(os.path.dirname(hilbertpoly.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout == "1 3*k + 1 [1, 4, 7, 10, 13] 0 [-2, 7] [6, inf]\n"


# -- Hilbert series of monomial ideals


def test_series_numerator_free_ring():
    assert hilbert_series_monomial([], 3) == UniPoly.constant(1)


def test_series_numerator_single_variable():
    assert hilbert_series_monomial([(1, 0, 0)], 3) == UniPoly([1, -1])


def test_series_numerator_two_generators():
    # L = (x0^2, x0 x1) in two variables
    q = hilbert_series_monomial([(2, 0), (1, 1)], 2)
    assert q == UniPoly([1, 0, -2, 1])


@st.composite
def monomial_generators(draw):
    """Exponent vectors in 1-4 variables: random ones plus the pure
    powers of every variable (a finite staircase), of some variables
    (usually an infinite one), or the unit monomial."""
    n = draw(st.integers(1, 4))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6))
    extra = draw(st.sampled_from(["all", "some", "unit"]))
    if extra == "unit":
        exps.append((0,) * n)
    else:
        pure = (range(n) if extra == "all"
                else sorted(draw(st.sets(st.integers(0, n - 1), max_size=n - 1))))
        for v in pure:
            exps.append(tuple(draw(st.integers(1, 4)) if i == v else 0 for i in range(n)))
    return n, exps


@given(monomial_generators())
@settings(max_examples=150, deadline=None)
def test_series_numerator_counts_standard_monomials(case):
    n, exps = case
    variables = tuple("x%d" % i for i in range(n))
    gens = [MultiPoly(variables, {e: Fraction(1)}) for e in exps]
    assert count_zero_dim(gens) == standard_monomial_count(exps, n)
    q = hilbert_series_monomial(exps, n)
    assert all(c.denominator == 1 for c in q.coeffs)
    # coefficient k of q/(1-t)^n, against the standard monomials of degree k
    for k in range(7):
        series = sum(q.coefficient(j) * math.comb(k - j + n - 1, n - 1) for j in range(k + 1))
        standard = sum(1 for e in itertools.product(range(k + 1), repeat=n)
                       if sum(e) == k and not any(all(map(int.__le__, g, e)) for g in exps))
        assert series == standard


# -- Hilbert data


def test_hilbert_projective_space():
    data = hilbert_data(ideal("x0 x1 x2"))
    assert data.hilbert_polynomial == binom_poly(2, 2)
    assert data.index_of_regularity == 0


def test_hilbert_hypersurface():
    for n, d in [(2, 3), (3, 2), (4, 3)]:
        variables = tuple("x%d" % i for i in range(n + 1))
        # x0^d + x1^d + ... is irreducible enough for Hilbert purposes;
        # any degree-d hypersurface has the same Hilbert polynomial
        f = MultiPoly(variables,
                      {tuple(d if i == j else 0 for i in range(n + 1)): 1
                       for j in range(n + 1)})
        data = hilbert_data(HomIdeal.from_polys(variables, [f]))
        assert data.hilbert_polynomial == binom_poly(n, n) - binom_poly(n - d, n)


def test_hilbert_twisted_cubicish_conic():
    data = hilbert_data(ideal("x0 x1 x2", "x0*x2 - x1^2"))
    assert data.hilbert_polynomial == UniPoly([1, 2])  # conic: 2T + 1


def test_hilbert_function_agrees_with_polynomial_beyond_regularity():
    corpus = [
        ideal("x0 x1 x2"),
        ideal("x0 x1 x2", "x0*x2 - x1^2"),
        ideal("x0 x1 x2 x3", "x0*x3 - x1*x2", "x1^2 - x0*x2", "x2^2 - x1*x3"),
        ideal("x0 x1", "x0^3"),
    ]
    for I in corpus:
        data = hilbert_data(I)
        for k in range(data.index_of_regularity, data.index_of_regularity + 6):
            assert hilbert_function(data, k) == data.hilbert_polynomial(k)
            assert hilbert_function_direct(I, k) == hilbert_function(data, k)


def test_non_natural_hilbert_function_is_cross_check_failure():
    half = UniPoly([Fraction(1, 2)])
    data = HilbertData(nvars=1, series_numerator=half, hilbert_polynomial=half,
                       index_of_regularity=0)
    with pytest.raises(CrossCheckFailed, match="not a natural number"):
        hilbert_function(data, 0)


def test_hilbert_degree_equals_dimension():
    # twisted cubic: dimension 1, degree 3
    I = ideal("x0 x1 x2 x3", "x0*x2 - x1^2", "x1*x3 - x2^2", "x0*x3 - x1*x2")
    data = hilbert_data(I)
    assert data.hilbert_polynomial.degree == 1
    assert data.hilbert_polynomial == UniPoly([1, 3])


def test_hilbert_function_direct_examples():
    assert hilbert_function_direct(ideal("x0 x1 x2"), 2) == 6
    assert hilbert_function_direct(ideal("x0 x1", "x0"), 3) == 1
    assert hilbert_function_direct(ideal("x0 x1 x2", "x0*x2 - x1^2"), 2) == 5


# -- zero-dimensional counting


def test_count_univariate():
    assert count_zero_dim(polys("x", "x^2 - 1")) == 2


def test_count_positive_dimensional_is_infinite():
    assert count_zero_dim(polys("x y", "x*y")) == INFINITE


def test_count_empty_system():
    # no equations: the point of affine 0-space, or all of a larger space
    assert count_zero_dim([], nvars=0) == 1
    assert count_zero_dim([MultiPoly.zero(())]) == 1
    assert count_zero_dim([MultiPoly.constant((), 1)]) == 0
    assert count_zero_dim([], nvars=2) == INFINITE
    assert count_zero_dim([]) == INFINITE
    assert count_zero_dim([MultiPoly.zero(("x",))], nvars=0) == INFINITE


def test_count_product_system():
    assert count_zero_dim(polys("x y", "x^2 - 1", "y^3 - y")) == 6


def test_count_inconsistent_system():
    assert count_zero_dim(polys("x y", "x", "x + 1")) == 0


def test_bezout_small_random_systems():
    rng = random.Random(20240)
    for _ in range(6):
        n = rng.randint(1, 2)
        degs = [rng.randint(1, 3) for _ in range(n)]
        variables = tuple("x%d" % (i + 1) for i in range(n))
        gens = []
        for d in degs:
            terms = {}
            for k in range(d + 1):
                for e in monomials_of_degree(n, k):
                    terms[e] = Fraction(rng.randint(-5, 5))
            # ensure exact degree d appears
            lead = tuple(d if i == 0 else 0 for i in range(n))
            terms[lead] = Fraction(rng.randint(1, 5))
            gens.append(MultiPoly(variables, terms))
        expected = 1
        for d in degs:
            expected *= d
        assert count_zero_dim(gens) == expected


# -- membership via Hilbert polynomials


def test_membership_via_hilbert_examples():
    I = ideal("x0 x1", "x0")
    assert membership_via_hilbert(I, parse_poly("x0^2", ("x0", "x1")))
    assert not membership_via_hilbert(I, parse_poly("x1", ("x0", "x1")))


def test_membership_matches_normal_form_oracle():
    I = ideal("x0 x1 x2", "x0*x2 - x1^2")
    cases = ["x0^2*x2 - x0*x1^2", "x0*x1", "x0*x2^2 - x1^2*x2", "x1^3"]
    for text in cases:
        g = parse_poly(text, ("x0", "x1", "x2"))
        assert membership_via_hilbert(I, g) == in_ideal(g, I)


def test_membership_rejects_bad_inputs():
    I = ideal("x0 x1", "x0")
    with pytest.raises(ValueError):
        membership_via_hilbert(I, parse_poly("3", ("x0", "x1")))
    with pytest.raises(ValueError):
        membership_via_hilbert(I, parse_poly("x0 + 1", ("x0", "x1")))


def test_membership_when_y_is_a_variable_of_the_ideal():
    # the fresh variable adjoined is then y2, or y3 past a y2
    I = ideal("x y", "x^2 - y^2")
    assert fresh_variable(I.variables) == "y2"
    assert fresh_variable(("y", "y2")) == "y3"
    for text, member in (("x^2 - y^2", True), ("x^2", False)):
        g = parse_poly(text, I.variables)
        assert membership_via_hilbert(I, g) == in_ideal(g, I) == member


def test_hilbert_routes_refuse_an_inhomogeneous_ideal():
    I = ideal("x0 x1", "x0^2 - x1")
    with pytest.raises(ValueError, match="homogeneous"):
        hilbert_data(I)
    with pytest.raises(ValueError, match="homogeneous"):
        hilbert_function_direct(I, 2)


def test_ideal_refuses_a_generator_over_other_variables():
    with pytest.raises(ValueError, match="wrong variables"):
        HomIdeal(("x0", "x1"), (parse_poly("x0*x2", ("x0", "x1", "x2")),))


@given(small_system(), st.lists(small_poly(), min_size=3, max_size=3), st.booleans(),
       small_poly())
@settings(max_examples=60, deadline=None)
def test_in_ideal_matches_scan_membership(gens, cofactors, combination, f):
    # f is a combination of the generators, which lies in the ideal, or
    # a random polynomial
    if combination:
        f = sum((c * g for c, g in zip(cofactors, gens)), MultiPoly.zero(XYZ))
    caps = dict(max_basis=30, max_degree=10)
    try:
        member = in_ideal(f, HomIdeal.from_polys(XYZ, gens), **caps)
    except ResourceCapExceeded as exc:
        with pytest.raises(ResourceCapExceeded, match=str(exc)):
            buchberger(gens, **caps)
        return
    assert member == (not normal_form_by_scan(f, reduced_basis_by_scan(gens, GREVLEX), GREVLEX))
    assert member or not combination


def test_membership_builds_no_reduced_basis(monkeypatch, tmp_path, capsys):
    # in_ideal reduces against buchberger's own run; neither it nor the
    # membership command interreduces a basis
    from hilbertpoly import cli
    monkeypatch.setattr(hilbertpoly.grobner, "_autoreduce",
                        lambda *args: pytest.fail("membership built a reduced basis"))
    I = ideal("x0 x1 x2", "x0*x2 - x1^2", "x1^3 - x0^2*x2")
    assert in_ideal(parse_poly("x0*x1*x2 - x1^3", I.variables), I)
    assert not in_ideal(parse_poly("x0*x1", I.variables), I)
    path = tmp_path / "cubic.ideal"
    path.write_text(ideal_file_text(I))
    assert cli.main(["membership", str(path), "x0^2*x2 - x0*x1^2"]) == 0
    assert '"in_ideal": true' in capsys.readouterr().out


# -- ideal files


def test_ideal_file_roundtrip():
    I = ideal("x0 x1 x2", "x0*x2 - x1^2", "x1^3 - x0^2*x2")
    assert parse_ideal_file(ideal_file_text(I)) == I


def test_ideal_file_requires_header():
    with pytest.raises(ValueError):
        parse_ideal_file("x0 + x1\n")


def test_ideal_file_rejects_repeated_variables():
    with pytest.raises(ValueError, match="repeated variable"):
        parse_ideal_file("vars: x0 x1 x0\nx0*x1\n")


def test_grevlex_order_keys():
    # the oracle's key and the packed ints agree: the degree first, then
    # the smaller power of the last variable
    key = order_key(GREVLEX)
    pk = _Packing(GREVLEX, 3, 8)
    for big, small in (((0, 5, 0), (1, 0, 0)), ((2, 0, 0), (1, 1, 0)), ((1, 1, 0), (1, 0, 1))):
        assert key(big) > key(small)
        assert pk.pack(big) > pk.pack(small)


def test_variable_ranking_permutes_priority():
    yx = MonomialOrder((1, 0))  # y outranks x, which is then the last variable
    assert order_key(yx)((2, 0)) < order_key(yx)((1, 1)) < order_key(yx)((0, 2))
    assert order_key(GREVLEX)((2, 0)) > order_key(GREVLEX)((1, 1)) > order_key(GREVLEX)((0, 2))
    gens = polys("x y", "x^2 - y^2", "x*y")
    assert buchberger(gens, yx) == polys("x y", "x*y", "y^2 - x^2", "x^3")
    assert buchberger(gens) == polys("x y", "x*y", "x^2 - y^2", "y^3")


def test_leading_exponents_are_the_largest_terms():
    # buchberger lists each element's terms largest first; here every
    # lead is found again by a scan under the oracle's key
    gens = polys("x y z", "x^2 - y^2 + z", "x*y*z - z^3 + x", "y^4 - x*z^3 + 2*y")
    for order in (GREVLEX, MonomialOrder((2, 0, 1)), MonomialOrder((1, 2, 0))):
        basis = buchberger(gens, order)
        assert [next(iter(g.terms)) for g in basis] == leading_exponents(basis, order)


def test_every_spoly_reduces_to_zero():
    gens = polys("x y z", "x^2 + y*z", "y^2 - x*z", "x*y + z^2")
    els = buchberger(gens)
    for i in range(len(els)):
        for j in range(i):
            s = spoly(els[i], els[j], GREVLEX)
            assert not normal_form(s, els)


def test_reduced_basis_leads_are_incomparable():
    gens = polys("x y z", "x^2 - y^2", "x*y*z - z^3", "y^4 - x*z^3")
    lts = leading_exponents(buchberger(gens), GREVLEX)
    for i, a in enumerate(lts):
        for j, b in enumerate(lts):
            if i != j:
                assert not all(p <= q for p, q in zip(a, b))


def test_normal_form_is_linear_and_kills_multiples():
    rng = random.Random(5)
    variables = ("x", "y", "z")
    basis = buchberger(polys("x y z", "x*y - z^2", "y^2 - x*z"))

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 3) for _ in variables)
            terms[e] = Fraction(rng.randint(-4, 4))
        return MultiPoly(variables, terms)

    def nf(p):
        return normal_form(p, basis)

    for _ in range(25):
        f, g = rand_poly(), rand_poly()
        assert nf(f + g) == nf(nf(f) + nf(g))
        member = f * basis[rng.randrange(len(basis))]
        assert not nf(member)
        assert nf(f + member) == nf(f)


def test_hilbert_data_zero_dimensional_quotient():
    # S/(x0^2, x1^2): finite dimensional, Hilbert polynomial 0,
    # function 1,2,1,0,... with regularity 3
    I = ideal("x0 x1", "x0^2", "x1^2")
    data = hilbert_data(I)
    assert data.hilbert_polynomial == UniPoly()
    assert [hilbert_function(data, k) for k in range(5)] == [1, 2, 1, 0, 0]
    assert data.index_of_regularity == 3


def test_regularity_agreement_on_wider_corpus():
    from hilbertpoly.chern import CompleteIntersection
    from hilbertpoly.reductions import CnfFormula, sat_to_ideal
    corpus = [
        ideal("x0 x1 x2", "x0^2*x2 - x1^3"),
        ideal("x0 x1 x2 x3", "x0*x3 - x1*x2"),
        sat_to_ideal(CnfFormula(num_vars=3, clauses=((1, -2), (2, 3)))),
        generic_ci_ideal(CompleteIntersection(3, (2, 2)), seed=3),
    ]
    for I in corpus:
        data = hilbert_data(I)
        for k in range(data.index_of_regularity, data.index_of_regularity + 6):
            assert data.hilbert_polynomial(k) == hilbert_function_direct(I, k)
        if data.index_of_regularity > 0:
            k = data.index_of_regularity - 1
            assert data.hilbert_polynomial(k) != hilbert_function(data, k)


# -- the default order of hilbert_data, leads only, integer cancellation


def _sat_corpus():
    from hilbertpoly.reductions import CnfFormula, sat_to_ideal
    rng = random.Random(18)
    out = []
    for n in (2, 3, 4, 5, 6):
        for _ in range(3):
            clauses = [tuple(v if rng.random() < 0.5 else -v
                             for v in rng.sample(range(1, n + 1), min(3, n)))
                       for _ in range(2 * n)]
            out.append(sat_to_ideal(CnfFormula(n, clauses)))
    return out


def _generic_ci_corpus():
    from hilbertpoly.chern import CompleteIntersection
    return [generic_ci_ideal(CompleteIntersection(n, degrees), seed=s)
            for n, degrees in ((2, (2,)), (3, (2, 2)), (3, (3,)), (4, (2, 2)), (4, (2, 3)))
            for s in range(2)]


def _hilbert_data_routes_agree(I):
    """Under the order hilbert_data picks, minimal_leads gives the leads
    of buchberger's reduced basis; hilbert_data gives the numerator of
    those leads, and the same data as under GREVLEX."""
    order = _revlex_order(I)
    leads = leading_exponents(buchberger(I.generators, order), order)
    assert minimal_leads(I.generators, order) == leads
    data = hilbert_data(I)
    assert data.series_numerator == hilbert_series_monomial(leads, len(I.variables))
    assert data == hilbert_data(I, order=GREVLEX)
    return data


@st.composite
def homogeneous_ideals(draw):
    """Homogeneous ideals in 2-4 variables: random forms of degree 1-3,
    and, for a drawn variable x_j, forms c*x_k^d + x_j*m for some or all
    other x_k, so that the order rule of hilbert_data fires on some."""
    n = draw(st.integers(2, 4))
    variables = tuple("x%d" % i for i in range(n))
    coeff = st.integers(-3, 3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(1, 3))
        monos = monomials_of_degree(n, d)
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        gens.append(MultiPoly(variables, {e: draw(coeff) for e in chosen}))
    j = draw(st.integers(0, n - 1))
    for k in range(n):
        if k == j or not draw(st.integers(0, 4)):
            continue
        d = draw(st.integers(1, 3))
        terms = {tuple(d if i == k else 0 for i in range(n)): draw(coeff)}
        other = list(draw(st.sampled_from(monomials_of_degree(n, d - 1))))
        other[j] += 1
        terms[tuple(other)] = draw(st.integers(-3, 3))
        gens.append(MultiPoly(variables, terms))
    return HomIdeal.from_polys(variables, gens)


@given(homogeneous_ideals())
@settings(max_examples=100, deadline=None)
def test_hilbert_data_same_under_the_chosen_order(I):
    data = _hilbert_data_routes_agree(I)
    for k in range(data.index_of_regularity + 2):
        assert hilbert_function(data, k) == hilbert_function_direct(I, k)


@given(st.one_of(small_system(), sat_shaped_system().map(lambda case: case[0])),
       st.sampled_from([GREVLEX, MonomialOrder((2, 0, 1))]))
@settings(max_examples=60, deadline=None)
def test_minimal_leads_are_the_reduced_basis_leads(gens, order):
    caps = dict(max_basis=30, max_degree=10)
    try:
        basis = buchberger(gens, order, **caps)
    except ResourceCapExceeded as exc:
        with pytest.raises(ResourceCapExceeded, match=str(exc)):
            minimal_leads(gens, order, **caps)
        return
    assert minimal_leads(gens, order, **caps) == leading_exponents(basis, order)


def test_chosen_order_and_minimal_leads_on_the_corpora():
    for I in _sat_corpus() + _generic_ci_corpus():
        _hilbert_data_routes_agree(I)
        affine = [g.set_variable("x0", 1) for g in I.generators]
        assert minimal_leads(affine) == leading_exponents(buchberger(affine), GREVLEX)


def test_order_rule():
    from hilbertpoly.chern import CompleteIntersection
    from hilbertpoly.reductions import CnfFormula, sat_to_ideal
    for I in _sat_corpus():
        n = len(I.variables)
        assert _revlex_order(I) == MonomialOrder(tuple(range(1, n)) + (0,))
    assert _revlex_order(sat_to_ideal(CnfFormula(0, ()))) == GREVLEX
    for I in _generic_ci_corpus():
        assert _revlex_order(I) == GREVLEX
    for s in range(10):
        I = generic_ci_ideal(CompleteIntersection(5, (2, 2, 2)), seed=s)
        assert _revlex_order(I) == GREVLEX
    # x2 has no power on x0 = 0, and no other hyperplane has a proof
    assert _revlex_order(ideal("x0 x1 x2", "x1^2 - x0*x1", "x1*x2 - x0^2")) == GREVLEX
    assert _revlex_order(ideal("x0 x1 x2", "x1^2 - x0*x1", "x2^2 - x0*x2")) == \
        MonomialOrder((1, 2, 0))
    # a proof for the last variable is GREVLEX itself
    assert _revlex_order(ideal("x0 x1 x2", "x0^2 - x0*x2", "x1^3 + x1*x2^2")) == GREVLEX
    # the rule asks for c*x_k^d with d >= 1; a unit ideal gets GREVLEX
    unit = ideal("x0 x1 x2", "1", "x1^2")
    assert _revlex_order(unit) == GREVLEX
    assert hilbert_data(unit).series_numerator == UniPoly()
    # a restriction to x_j = 0 with two terms proves nothing
    assert _revlex_order(ideal("x0 x1 x2", "x1^2 + x2^2 - x0*x1", "x2^2 - x0*x2")) == GREVLEX


def test_explicit_order_is_respected(monkeypatch):
    I = _sat_corpus()[3]
    expected = hilbert_data(I)
    monkeypatch.setattr(hilbertpoly.grobner, "_revlex_order",
                        lambda ideal: pytest.fail("order chosen despite an explicit one"))
    for order in (GREVLEX, MonomialOrder((2, 1, 0, 3))):
        assert hilbert_data(I, order=order) == expected


def _oracle_cancel(q):
    k = 0
    while q and q(1) == 0:
        q = divide_by_one_minus_t(q)
        k += 1
    return q, k


@given(st.lists(st.integers(-5, 5), max_size=6), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_integer_cancellation_matches_division_oracle(coeffs, k):
    q = UniPoly(coeffs)
    for _ in range(k):
        q = q * UniPoly([1, -1])
    qbar, cancelled = _cancel_one_minus_t(q)
    assert all(type(c) is int for c in qbar)
    expected, expected_k = _oracle_cancel(q)
    assert (qbar, cancelled) == (list(expected.coeffs), expected_k)
    if q:
        assert sum(qbar) != 0 and cancelled >= k
    else:
        assert (qbar, cancelled) == ([], 0)


# -- Hilbert data in integers, and the pivot recursion


@given(st.lists(st.integers(-6, 6), max_size=8), st.integers(0, 3), st.integers(0, 8))
@example([], 0, 3)  # q = 0
@example([2, -1, 3], 3, 2)  # D < 0
@example([1, 1], 2, 2)  # D = 0
@settings(max_examples=300, deadline=None)
def test_hilbert_data_from_numerator_matches_fraction_oracle(coeffs, k, nvars):
    q = UniPoly(coeffs)
    for _ in range(k):
        q = q * UniPoly([1, -1])
    polynomial, regularity = hilbert_data_by_fractions(q, nvars)
    assert _hilbert_data_from_numerator(q, nvars) == HilbertData(nvars, q, polynomial, regularity)


def test_hilbert_data_does_no_unipoly_arithmetic(monkeypatch):
    corpus = _sat_corpus()[::3] + _generic_ci_corpus()[::2] + [
        ideal("x0 x1 x2", "x0*x2 - x1^2"), ideal("x0 x1", "x0^2", "x1^2"), ideal("x0 x1 x2")]
    expected = [hilbert_data(I) for I in corpus]

    def refuse(*args):
        pytest.fail("UniPoly arithmetic in hilbert_data")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__call__"):
        monkeypatch.setattr(UniPoly, name, refuse)
    assert [hilbert_data(I) for I in corpus] == expected


@st.composite
def sat_shaped_leads(draw):
    """Exponent vectors in 6-8 variables shaped like the leads of a SAT
    ideal: squares of some variables and squarefree products, at most
    12 in all."""
    n = draw(st.integers(6, 8))
    squares = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    products = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                             max_size=12 - len(squares)))
    exps = [tuple(2 * (i == v) for i in range(n)) for v in squares]
    exps += [tuple(int(i in support) for i in range(n)) for support in products]
    return n, draw(st.permutations(exps))


@given(sat_shaped_leads())
@settings(max_examples=100, deadline=None)
def test_series_numerator_matches_inclusion_exclusion(case):
    n, exps = case
    assert hilbert_series_monomial(exps, n) == hilbert_numerator_by_inclusion_exclusion(exps)


def test_series_recursion_minimalizes_only_at_the_entry(monkeypatch):
    # the variables x0, x1 and x2 each lie in two or more generators, so
    # the recursion pivots; neither branch sorts out divisors again
    exps = [(2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 0, 2, 0), (1, 1, 0, 0, 0),
            (0, 1, 1, 0, 0), (1, 0, 1, 1, 0), (0, 0, 1, 0, 1), (1, 0, 0, 0, 1)]
    calls = []
    minimal = hilbertpoly.grobner._minimal_monomials

    def counted(monos, guard):
        calls.append(1)
        return minimal(monos, guard)

    monkeypatch.setattr(hilbertpoly.grobner, "_minimal_monomials", counted)
    assert hilbert_series_monomial(exps, 5) == hilbert_numerator_by_inclusion_exclusion(exps)
    assert len(calls) == 1


def test_series_numerator_past_one_packed_field_of_generators():
    # x0 * y for 512 variables y, in 514 variables with x1 in none: x0
    # lies in 512 generators, one more than a field of the degree's
    # 8 + 1 bits counts.  There a packed count would read 0 for x0 and
    # carry 1 into x1, no count would reach 2, and the node would
    # multiply as if coprime; the entry widens the fields to 9 + 1 bits.
    # S/(x0 J) is S/(x0) extended by (S/J)(-1), J = (y's).
    nvars = 514
    exps = [tuple(int(i in (0, v)) for i in range(nvars)) for v in range(2, nvars)]
    assert len(exps) == 512 and _Packing(GREVLEX, nvars, 8).bits == 8
    expected = UniPoly([1, -1]) + UniPoly([0] + [(-1) ** k * math.comb(512, k)
                                                 for k in range(513)])
    assert hilbert_series_monomial(exps, nvars) == expected
