"""Exact linear algebra over Q: rank, determinant, solve, inverse,
kernel, RREF and products.

Matrices are lists of rows whose entries are ints or Fractions; a
float, or any other entry, raises TypeError, as arith.frac does.  Every
elimination and product works on integer rows.  An elimination takes a
matrix of ints as it is; integral clears any other by one lcm of all
its denominators, which keeps the ratios of its rows, so a cleared
matrix may meet another one row by row.  There is one elimination,
fraction-free Bareiss (Bareiss 1968).  rank and det run its forward
sweep; rref and kernel carry it on to the rows above each pivot, which
is fraction-free Gauss-Jordan, after which every pivot equals the last
one, p.  kernel's basis vector for a free column f has p at f and
-a[r][f] at the pivot column of each row r, an integer basis of the
kernel.  solve_undivided runs the sweep on [a | b] for a matrix
right-hand side b and returns b's block, the numerators of the solution
over p; solve divides them by p, and inverse is solve(a, I).

det is an int for a matrix of ints and a Fraction for any other.  Every
entry that rref, solve, inverse and mat_mul return is an int when it is
an integer and a Fraction otherwise; kernel and solve_undivided return
ints.  det, solve and inverse raise ValueError("matrix is not square")
on a non-square matrix, solve raises ValueError when b does not have
one row per row of a, and mat_mul when the rows of a are not as long as
b has rows.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .arith import frac


def integral(rows):
    """A rational matrix as one integer matrix over one scalar: (D rows,
    D), D the lcm of its denominators; a copy, Fractions of denominator
    1 as their numerators.  An entry that is neither an int nor a
    Fraction raises TypeError."""
    # one lcm at a time: math.lcm(*generator) raised the peak memory of a
    # 231-report `ci` pass by about 0.3 MiB
    den = 1
    for row in rows:
        for x in row:
            if type(x) is not int and frac(x).denominator != 1:
                den = math.lcm(den, x.denominator)
    if den == 1:
        return [[x if type(x) is int else x.numerator for x in row] for row in rows], 1
    return [[x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row]
            for row in rows], den


def _integer(rows):
    """integral(rows), but for a matrix of ints a copy as it is and None."""
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows], None
    return integral(rows)


def _eliminate(a, full):
    """Fraction-free Bareiss elimination (Bareiss 1968) of the integer
    rows a, in place; returns (pivot columns, sign of the row swaps,
    last pivot), the last pivot 1 when there is none.

    The step with pivot p in row r and column c, after the pivot prev
    (1 at the start), replaces each entry a_ij of a row i > r, j > c, by
    (p a_ij - a_ic a_rj) / prev, which divides exactly.  With full it
    also does so over every column of the rows i < r: this is
    fraction-free Gauss-Jordan (Nakos, Turner and Williams 1997), after
    which every pivot equals the last one."""
    nr, nc = len(a), len(a[0]) if a else 0
    pivots, sign, prev = [], 1, 1
    for col in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[col]
        # an indexed loop over the columns right of the pivot: a
        # comprehension over whole rows made small det 10-25 % slower
        for i in range(r + 1, nr):
            row = a[i]
            f = row[col]
            for j in range(col + 1, nc):
                row[j] = (p * row[j] - f * prow[j]) // prev
            row[col] = 0
        if full:
            # a free column left of c is scaled by p / prev too
            for i in range(r):
                f = a[i][col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
        pivots.append(col)
        prev = p
    return pivots, sign, prev


def rank(rows):
    """Rank of a rational matrix."""
    return len(_eliminate(_integer(rows)[0], False)[0])


def _check_square(rows):
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")


def det(rows):
    """Determinant of a square rational matrix: an int for a matrix of
    ints, a Fraction for any other."""
    _check_square(rows)
    a, scale = _integer(rows)
    pivots, sign, last = _eliminate(a, False)
    # the last pivot of a nonsingular matrix is its determinant, up to
    # the row swaps and the cleared denominators
    value = sign * last if len(pivots) == len(a) else 0
    return value if scale is None else Fraction(value, scale ** len(a))


def divide(rows, d):
    """Integer rows over an int d != 0: ints where d divides, Fractions elsewhere."""
    if d == 1:
        return rows
    return [[x // d if x % d == 0 else Fraction(x, d) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination
    over the integer rows; returns (matrix, pivot column list).  The
    rows below the rank are zero, and every pivot row is divided once by
    the common pivot."""
    a = _integer(rows)[0]
    pivots, _, last = _eliminate(a, True)
    return divide(a, last), pivots


def kernel(rows, ncols=None):
    """Integer basis of the right kernel of a rational matrix, as rows;
    ncols is needed only when the matrix has no rows."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("need ncols for an empty matrix")
    a = _integer(rows)[0]
    pivots, _, last = _eliminate(a, True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = last
        for r, p in enumerate(pivots):
            v[p] = -a[r][f]
        basis.append(v)
    return basis


def solve_undivided(a, b):
    """(N, p) with a N = p b, N integer and p the last pivot, for a square
    nonsingular a and a matrix b (one column per right-hand side)."""
    _check_square(a)
    n = len(a)
    if len(b) != n:
        raise ValueError("right-hand side has %d rows, expected %d" % (len(b), n))
    aug = _integer([list(row) + list(rhs) for row, rhs in zip(a, b)])[0]
    pivots, _, last = _eliminate(aug, True)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    # the block of a is now last times the identity
    return [row[n:] for row in aug], last


def solve(a, b):
    """x with a x = b for a square nonsingular a and a matrix b."""
    return divide(*solve_undivided(a, b))


def inverse(a):
    """Exact inverse of a square nonsingular rational matrix."""
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    """Product of rational matrices in integers: a and b, cleared of
    denominators by one lcm each, D and E, give the entries
    (row . column) / (D E)."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("inner dimensions differ")
    (rows, d), (cols, e) = integral(a), integral(list(zip(*b)))
    return divide([[sum(map(operator.mul, r, c)) for c in cols] for r in rows], d * e)


def transpose(a):
    return [list(col) for col in zip(*a)]
