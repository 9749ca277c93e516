"""Exact linear algebra over Q: rank, determinant, solve, inverse,
kernel, RREF and products.

Matrices are lists of rows whose entries are ints or Fractions.  Every
elimination and product works on integer rows: a matrix of ints is
taken as it is, and any other has each row with a Fraction of
denominator above 1 scaled by the lcm of its denominators.  There is
one elimination, fraction-free Bareiss (Bareiss 1968).  rank and det
run its forward sweep; rref carries the sweep on to the rows above each
pivot, which is fraction-free Gauss-Jordan, and kernel runs rref on the
matrix itself.  solve runs the same sweep on the augmented matrix
[a | b] of a matrix right-hand side b and divides only b's block by the
common pivot, and inverse is solve(a, I).  mat_mul takes integer
dot products of cleared rows and cleared columns.

det is an int for a matrix of ints and a Fraction for any other.  Every
entry that rref, solve, inverse, kernel and mat_mul return is an int
when it is an integer and a Fraction otherwise.  det, solve and inverse
raise ValueError("matrix is not square") on a non-square matrix, solve
raises ValueError when b does not have one row per row of a, and
mat_mul when the rows of a are not as long as b has rows.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def _cleared(rows):
    """Rational rows of ints or Fractions as integer rows, each times
    the lcm of its denominators; returns (integer rows, lcms).  Int
    entries pass through with no lcm, and a row of denominator 1 is
    copied, a Fraction in it as its numerator."""
    out, dens = [], []
    for row in rows:
        # one lcm at a time: math.lcm(*generator) raised the peak memory
        # of a 231-report `ci` pass by about 0.3 MiB
        den = 1
        for x in row:
            if type(x) is not int and x.denominator != 1:
                den = math.lcm(den, x.denominator)
        dens.append(den)
        if den == 1:
            out.append([x if type(x) is int else x.numerator for x in row])
        else:
            out.append([x * den if type(x) is int else x.numerator * (den // x.denominator)
                         for x in row])
    return out, dens


def _quotient(x, d):
    """x / d for ints x and d != 0: an int when d divides x, else a
    Fraction."""
    if d == 1:
        return x
    q, r = divmod(x, d)
    return Fraction(x, d) if r else q


def _integer(rows):
    """A copy of a rational matrix as integer rows, and the product of
    the lcms that cleared it: None for a matrix of ints, which is copied
    as it is."""
    if all(type(x) is int for row in rows for x in row):
        return [list(row) for row in rows], None
    a, dens = _cleared(rows)
    return a, math.prod(dens)


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
    return value if scale is None else Fraction(value, scale)


def rref(rows):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination
    over the integer rows; returns (matrix, pivot column list).  The
    rows below the rank are zero, and every pivot row is divided once by
    the common pivot."""
    a = _integer(rows)[0]
    pivots, _, last = _eliminate(a, True)
    return [[_quotient(x, last) for x in row] for row in a], pivots


def kernel(rows, ncols=None):
    """Basis of the right kernel of a rational matrix, as rows; ncols is
    needed only when the matrix has no rows."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("need ncols for an empty matrix")
    red, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a, b):
    """x with a x = b for a square nonsingular a and a matrix b (one
    column per right-hand side), by fraction-free Gauss-Jordan on
    [a | b]."""
    _check_square(a)
    n = len(a)
    if len(b) != n:
        raise ValueError("right-hand side has %d rows, expected %d" % (len(b), n))
    aug = _integer([list(row) + list(rhs) for row, rhs in zip(a, b)])[0]
    pivots, _, last = _eliminate(aug, True)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    # the block of a is now last times the identity: only b's is divided
    return [[_quotient(x, last) for x in row[n:]] for row in aug]


def inverse(a):
    """Exact inverse of a square nonsingular rational matrix."""
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    """Product of rational matrices in integers: row i of a and column j
    of b, cleared of denominators d_i and e_j, give the entry
    (row . column) / (d_i e_j)."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("inner dimensions differ")
    (rows, ds), (cols, es) = _cleared(a), _cleared(zip(*b))
    return [[_quotient(sum(map(operator.mul, r, c)), d * e) for c, e in zip(cols, es)]
            for r, d in zip(rows, ds)]


def transpose(a):
    return [list(col) for col in zip(*a)]
