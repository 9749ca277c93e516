import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from hilbertpoly import linalg
from hilbertpoly.arith import (
    ANY_DEGREE,
    MultiPoly,
    PolyParseError,
    UniPoly,
    parse_poly,
)
from oracles import (
    TruncSeries,
    binom_poly,
    divide_by_one_minus_t,
    poly_value,
    series_exp,
    series_inverse,
    substitute,
)

XY = ("x", "y")


def P(text, variables=XY):
    return parse_poly(text, variables)


def test_difference_of_squares():
    assert P("x+y") * P("x-y") == P("x^2-y^2")


def test_mul_by_zero_absorbs():
    f = P("3*x^2*y - y^3")
    assert f * MultiPoly(XY, {}) == MultiPoly(XY, {})


def test_cancellation():
    v = ("x0", "x1", "x2")
    f = parse_poly("x0*x2 - x1^2", v) + parse_poly("x1^2", v)
    assert f == parse_poly("x0*x2", v)


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        P("x") + parse_poly("x", ("x",))


def test_is_homogeneous():
    v = ("x0", "x1", "x2")
    assert parse_poly("x0^2 + x1*x2", v).is_homogeneous() == 2
    assert parse_poly("x0 + x1^2", v).is_homogeneous() is None
    assert MultiPoly(v, {}).is_homogeneous() == ANY_DEGREE


def test_partial_derivative():
    f = P("x^2*y - 2*y^3")
    assert f.partial("x") == P("2*x*y")
    assert f.partial("y") == P("x^2 - 6*y^2")


def test_set_variable_dehomogenizes():
    v = ("x0", "x1")
    f = parse_poly("x1^2 - x1*x0", v)
    assert f.set_variable("x0", 1) == parse_poly("x1^2 - x1", ("x1",))


def test_substitute_into_series_ring():
    f = P("x*y + 2*x")
    s = TruncSeries.from_coeffs(3, [0, 1])  # h
    val = substitute(f, {"x": s, "y": s})
    assert val == TruncSeries.from_coeffs(3, [0, 2, 1])
    # powers of a series value: (1 + h)^3 = 1 + 3h + 3h^2 mod h^3
    one_plus_h = TruncSeries.from_coeffs(3, [1, 1])
    assert substitute(P("x^3"), {"x": one_plus_h, "y": s}) == TruncSeries(3, [1, 3, 3])


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


def random_poly(draw, variables=XY, max_deg=3, max_terms=4):
    nterms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(nterms):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in variables)
        terms[exp] = draw(small_fraction)
    return MultiPoly(variables, terms)


polys = st.composite(random_poly)()


@given(polys, polys, polys)
@settings(max_examples=60)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f


@given(polys)
@settings(max_examples=60)
def test_text_roundtrip(f):
    assert parse_poly(f.to_text(), f.variables) == f


coefficients = st.one_of(st.integers(-4, 4), small_fraction)
term_dicts = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             coefficients, max_size=4)


def _int_when_integral(f):
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for c in f.terms.values())


@given(term_dicts, term_dicts, coefficients)
@settings(max_examples=150)
def test_integral_coefficients_are_ints(a, b, c):
    # every constructor and operation stores a coefficient as an int
    # exactly when it is an integer
    f, g = MultiPoly(XY, a), MultiPoly(XY, b)
    built = [f, g, MultiPoly.constant(XY, c), MultiPoly.variable(XY, "y"),
             f + g, f + c, c + f, f - g, f - c, -f, f * g, f * c, c * f,
             f.partial("x"), f.set_variable("x", c), f.extend_variables(("z", "y", "x")),
             parse_poly(f.to_text(), XY)]
    assert all(_int_when_integral(p) for p in built)
    # the same polynomial with every coefficient held as a Fraction, as
    # MultiPoly once held them, equals, hashes and prints alike
    held = object.__new__(MultiPoly)
    held.variables, held._hash = XY, None
    held.terms = {e: Fraction(v) for e, v in f.terms.items()}
    assert held == f and hash(held) == hash(f) and held.to_text() == f.to_text()
    assert MultiPoly(XY, {e: Fraction(v) for e, v in a.items()}).terms == f.terms


@given(term_dicts, st.lists(coefficients, min_size=2, max_size=2))
@settings(max_examples=150)
def test_eval_point_in_integers_is_the_rational_value(a, point):
    # against term-by-term Fraction arithmetic
    f = MultiPoly(XY, a)
    value = sum((Fraction(c) * math.prod(Fraction(v) ** e for v, e in zip(point, exp))
                 for exp, c in f.terms.items()), Fraction(0))
    got = f.eval_point(point)
    assert got == value and type(got) is Fraction


def test_parse_whitespace_insensitive():
    v = ("x0", "x1", "x2")
    assert parse_poly(" 3/2 * x0^2*x1   -x2^3 ", v) == parse_poly("3/2*x0^2*x1-x2^3", v)


def test_parse_builds_one_multipoly(monkeypatch):
    # the terms are summed in one dict and become one MultiPoly; a
    # MultiPoly per term costs a copy of the sum so far for each term
    built = []
    init = MultiPoly.__init__
    monkeypatch.setattr(MultiPoly, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    f = parse_poly("x0^3 + 2*x0*x1*x2 - x1^2*x2 + 3/4*x2^3 - 5", ("x0", "x1", "x2"))
    assert len(built) == 1
    assert len(f.terms) == 5


def test_parse_adds_repeated_and_drops_cancelling_monomials():
    v = ("x0", "x1", "x2")
    f = parse_poly("x0*x1 + x2^2 + 1/2*x1*x0 - x2^2 + 3 - x0^2 + x0^2 - x0^2", v)
    assert f.terms == {(1, 1, 0): Fraction(3, 2), (0, 0, 0): Fraction(3),
                       (2, 0, 0): Fraction(-1)}
    assert parse_poly("x0 - x0", v).terms == {}


def test_parse_rejects_garbage():
    with pytest.raises(PolyParseError):
        parse_poly("x0 + + x1", ("x0", "x1"))
    with pytest.raises(PolyParseError):
        parse_poly("2**x0", ("x0",))


def test_parse_rejects_zero_denominator():
    with pytest.raises(PolyParseError, match="zero denominator"):
        parse_poly("1/0*x0", ("x0",))
    with pytest.raises(PolyParseError):
        parse_poly("x0 - 3/00", ("x0",))


# -- truncated series


def test_inverse_of_one_plus_h():
    s = TruncSeries.from_coeffs(4, [1, 1])
    assert series_inverse(s) == TruncSeries(4, [1, -1, 1, -1])


def test_series_product_truncates():
    a = TruncSeries.from_coeffs(3, [1, 1])
    b = TruncSeries.from_coeffs(3, [1, -1])
    assert a * b == TruncSeries(3, [1, 0, -1])


def test_series_inverse_gives_b_prefix():
    # (1 - e^{-t})/t has coefficients (-1)^i/(i+1)!
    import math
    K = 5
    g = TruncSeries(K, [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(K)])
    assert series_inverse(g) == TruncSeries(K, [1, Fraction(1, 2), Fraction(1, 12), 0,
                                                Fraction(-1, 720)])


def test_series_order_mismatch_is_error():
    with pytest.raises(ValueError):
        TruncSeries.one(3) + TruncSeries.one(4)


def test_series_zero_constant_not_invertible():
    with pytest.raises(ValueError):
        series_inverse(TruncSeries.from_coeffs(3, [0, 1]))


@given(st.lists(small_fraction, min_size=1, max_size=12))
@settings(max_examples=60)
def test_series_inverse_property(coeffs):
    if not coeffs[0]:
        coeffs[0] = Fraction(1)
    K = len(coeffs)
    s = TruncSeries(K, coeffs)
    assert s * series_inverse(s) == TruncSeries.one(K)


def test_series_exp():
    s = TruncSeries.from_coeffs(4, [0, 2])
    assert series_exp(s) == TruncSeries(4, [1, 2, 2, Fraction(4, 3)])


@given(st.lists(small_fraction, min_size=2, max_size=8),
       st.lists(small_fraction, min_size=2, max_size=8))
@settings(max_examples=40)
def test_series_exp_is_additive(a, b):
    K = max(len(a), len(b))
    a[0] = b[0] = Fraction(0)
    sa = TruncSeries.from_coeffs(K, a)
    sb = TruncSeries.from_coeffs(K, b)
    assert series_exp(sa + sb) == series_exp(sa) * series_exp(sb)


# -- univariate polynomials and binomial polynomials


def test_binom_poly_example():
    p = binom_poly(2, 2)
    assert p == UniPoly([1, Fraction(3, 2), Fraction(1, 2)])


def test_binom_poly_degree_zero():
    assert binom_poly(5, 0) == UniPoly([1])


def test_binom_poly_point_value():
    assert poly_value(binom_poly(3, 3).coeffs, 0) == 1


@given(st.integers(0, 8), st.integers(0, 12))
@settings(max_examples=60)
def test_binom_poly_matches_binomials(n, t):
    import math
    assert poly_value(binom_poly(n, n).coeffs, t) == math.comb(t + n, n)


def test_unipoly_divide_by_one_minus_t():
    q = UniPoly([1, -2, 1])  # (1-t)^2
    assert divide_by_one_minus_t(q) == UniPoly([1, -1])
    with pytest.raises(ValueError):
        divide_by_one_minus_t(UniPoly([1, 1]))


def test_unipoly_text():
    p = UniPoly([1, Fraction(3, 2), Fraction(1, 2)])
    assert p.to_text() == "1/2*T^2 + 3/2*T + 1"


def test_floats_are_refused():
    # a float's binary expansion is not the exact value it stands for
    x = MultiPoly.variable(("x", "y"), "x")
    for build in (lambda: UniPoly([0.5]),
                  lambda: MultiPoly(("x",), {(1,): 0.5}),
                  lambda: MultiPoly(("x",), {(1,): 2.0}),
                  lambda: MultiPoly.constant(("x",), 0.5),
                  lambda: x.set_variable("y", 1.0),
                  lambda: MultiPoly.variable(("x",), "x").eval_point([0.5]),
                  lambda: MultiPoly(("x",), {}).eval_point([0.5]),
                  lambda: linalg.integral([[1, 0.5]]),
                  lambda: linalg.rank([[0.5, 1]]),
                  lambda: linalg.det([[1, 0], [0, 0.5]]),
                  lambda: linalg.kernel([[0.5, 1]]),
                  lambda: linalg.solve([[1]], [[0.5]]),
                  lambda: linalg.mat_mul([[1]], [[0.5]])):
        with pytest.raises(TypeError, match="int or a Fraction"):
            build()
    with pytest.raises(TypeError, match="unsupported operand"):
        x * 0.5


def test_eval_point_is_an_exact_fraction():
    # ints, Fractions and a mix of both; the zero polynomial too
    p = parse_poly("x^2*y - 3*x + 1/2", ("x", "y"))
    for point, value in (([2, 5], Fraction(29, 2)),
                         ([Fraction(1, 2), Fraction(3)], Fraction(-1, 4)),
                         ([Fraction(-1), 0], Fraction(7, 2))):
        assert p.eval_point(point) == value and type(p.eval_point(point)) is Fraction
    zero = MultiPoly(("x", "y"), {}).eval_point([1, 2])
    assert zero == 0 and type(zero) is Fraction
    with pytest.raises(ValueError, match="wrong length"):
        p.eval_point([1])
