import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from hilbertpoly import linalg
from hilbertpoly.linalg import (
    det,
    inverse,
    kernel,
    mat_mul,
    rank,
    rref,
    solve,
    transpose,
)
from oracles import rref_by_fractions

# small integers make exact dependences (and so singular matrices) common
entries = st.one_of(st.integers(-2, 2).map(Fraction),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)))


@st.composite
def matrices(draw, nrows=st.integers(0, 5), ncols=st.integers(0, 5)):
    nr, nc = draw(nrows), draw(ncols)
    return [[draw(entries) for _ in range(nc)] for _ in range(nr)]


@st.composite
def squares(draw):
    n = draw(st.integers(0, 5))
    return draw(matrices(st.just(n), st.just(n)))


@st.composite
def singular_squares(draw):
    """Square matrix with one row a combination of the others (the zero
    row when n = 1)."""
    n = draw(st.integers(1, 5))
    a = draw(matrices(st.just(n), st.just(n)))
    k = draw(st.integers(0, n - 1))
    coeffs = [draw(entries) for _ in range(n)]
    a[k] = [sum((c * a[i][j] for i, c in enumerate(coeffs) if i != k), Fraction(0))
            for j in range(n)]
    return a


def leibniz(a):
    """Determinant as the signed sum over all permutations."""
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, p in enumerate(perm):
            term *= a[i][p]
        total += term
    return total


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


@given(st.one_of(squares(), singular_squares()))
@settings(max_examples=60, deadline=None)
def test_det_matches_leibniz(a):
    assert det(a) == leibniz(a)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_matches_transpose_and_kernel(a):
    ncols = len(a[0]) if a else 3
    basis = kernel(a, ncols=ncols)
    assert rank(a) == rank(transpose(a)) == ncols - len(basis)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@given(st.one_of(squares(), singular_squares()))
@settings(max_examples=60, deadline=None)
def test_det_vanishes_exactly_when_rank_deficient(a):
    assert (det(a) == 0) == (rank(a) < len(a))


@given(squares(), st.lists(entries, min_size=15, max_size=15), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_solve_and_inverse_of_nonsingular(a, rhs, k):
    # k right-hand sides at once, and each of them alone
    n = len(a)
    assume(det(a) != 0)
    b = [rhs[k * i:k * (i + 1)] for i in range(n)]
    x = solve(a, b)
    assert mat_mul(a, x) == b
    for j in range(k):
        assert solve(a, [[row[j]] for row in b]) == [[row[j]] for row in x]
    inv = inverse(a)
    assert mat_mul(a, inv) == identity(n) == mat_mul(inv, a)


@st.composite
def integer_matrices(draw):
    """Integer matrices, square about half of the time."""
    nr = draw(st.integers(0, 5))
    nc = nr if draw(st.booleans()) else draw(st.integers(0, 5))
    return [[draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)]


def _refuse_clearing(rows):
    raise AssertionError("an integer matrix was cleared: %r" % (rows,))


@given(integer_matrices())
@example([])
@example([[0]])
@example([[-7]])
@example([[2, 4], [1, 2]])
@settings(max_examples=150, deadline=None)
def test_integer_matrices_skip_clearing(a):
    # an integer matrix is taken as it is, with no integral call; the
    # same matrix with Fraction entries, and with every other row of
    # Fractions, is cleared by one lcm to the same rank and determinant
    fractions = [[Fraction(x) for x in row] for row in a]
    mixed = [row if i % 2 else [Fraction(x) for x in row] for i, row in enumerate(a)]
    square = all(len(row) == len(a) for row in a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "integral", _refuse_clearing)
        rank_a, value = rank(a), det(a) if square else None
    assert rank_a == rank(fractions) == rank(mixed)
    if square:
        assert type(value) is int
        assert value == det(fractions) == det(mixed) == leibniz(a)
        if any(a):
            assert type(det(fractions)) is Fraction


@given(st.one_of(matrices(), singular_squares()))
# a free column left of a later pivot p != prev, which the step scales by
# p / prev; a zero leading column; equal pivots; a rank-deficient rectangle
@example([[1, 2, 3], [2, 4, 9]])
@example([[0, 1, 2], [0, 3, 4]])
@example([[1000, 0, 0], [0, 1000, 0], [0, 0, 1000]])
@example([[1, 2, 3, 4], [2, 4, 6, 8], [1, 0, 1, 0]])
@settings(max_examples=100, deadline=None)
def test_rref_matches_fraction_gauss_jordan(a):
    # matrices() draws empty shapes too: no rows, and rows of no entries
    assert rref(a) == rref_by_fractions(a)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_mat_mul_matches_triple_loop(data):
    a = data.draw(matrices())
    b = data.draw(matrices(st.just(len(a[0]) if a else 0)))
    # a b without rows has no columns either
    ncols = len(b[0]) if b else 0
    naive = [[Fraction(0)] * ncols for _ in a]
    for i, row in enumerate(a):
        for j in range(ncols):
            for k, x in enumerate(row):
                naive[i][j] += x * b[k][j]
    assert mat_mul(a, b) == naive


@given(singular_squares())
@settings(max_examples=40, deadline=None)
def test_singular_matrix_raises(a):
    with pytest.raises(ValueError, match="singular matrix"):
        solve(a, [[Fraction(1)] for _ in a])
    with pytest.raises(ValueError, match="singular matrix"):
        inverse(a)


def test_zero_row_and_rank_deficient_inverse_are_singular():
    # zero rows, given or left by the elimination
    for a in ([[1, 2], [0, 0]], [[0, 0], [1, 2]], [[1, 2], [2, 4]],
              [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 3]]):
        with pytest.raises(ValueError, match="singular matrix"):
            inverse(a)
        with pytest.raises(ValueError, match="singular matrix"):
            solve(a, [[1] for _ in a])
    assert rref([[1, 2], [2, 4], [0, 0]]) == (
        [[1, 2], [0, 0], [0, 0]], [0])


def test_empty_and_degenerate_shapes():
    assert rank([]) == 0
    assert det([]) == 1
    assert rank([[], []]) == 0
    for k in range(4):
        assert kernel([], ncols=k) == identity(k)
    with pytest.raises(ValueError):
        kernel([])
    with pytest.raises(ValueError):
        det([[1, 2]])


@pytest.mark.parametrize("call, message", [
    (lambda: inverse([[1, 0, 0], [0, 1, 0]]), "not square"),
    (lambda: inverse([[1, 2], [3, 4], [5, 6]]), "not square"),
    (lambda: solve([[1, 0, 0], [0, 1, 0]], [[1], [2]]), "not square"),
    (lambda: solve([[1, 0], [0, 1]], [[1], [2], [3]]), "right-hand side has 3 rows"),
    (lambda: mat_mul([[1, 2]], [[1, 2]]), "inner dimensions"),
], ids=["inverse-2x3", "inverse-3x2", "solve-2x3", "solve-rhs-rows", "mat_mul-1x2-1x2"])
def test_shape_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _integral_entries_are_ints(rows):
    return all(type(x) is int for row in rows for x in row
               if Fraction(x).denominator == 1)


@given(squares(), st.lists(entries, min_size=10, max_size=10), st.integers(1, 2))
@example([[Fraction(1, 2), 0], [0, 2]], [Fraction(1)] * 10, 1)
@settings(max_examples=80, deadline=None)
def test_integral_results_are_ints(a, rhs, k):
    # every entry that solve, inverse, kernel, rref and mat_mul return is
    # an int when it is an integer, whatever the types of the input
    n = len(a)
    b = [rhs[k * i:k * (i + 1)] for i in range(n)]
    red, _ = rref(a)
    basis = kernel(a, ncols=n)
    assert _integral_entries_are_ints(red) and _integral_entries_are_ints(basis)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    if det(a) != 0:
        x, inv = solve(a, b), inverse(a)
        assert mat_mul(a, x) == b and mat_mul(inv, a) == identity(n)
        for result in (x, inv, mat_mul(a, x), mat_mul(inv, a), mat_mul(a, inv)):
            assert _integral_entries_are_ints(result)
