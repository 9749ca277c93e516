"""Exact linear algebra over Q: rank, determinant, solve, inverse,
kernel, RREF and products.

Matrices are lists of rows whose entries are ints or Fractions.  Every
elimination and product works on integer rows; an int entry goes in as
it is, and only a row with a Fraction of denominator above 1 is scaled
by the lcm of its denominators.  There are two eliminations: rank and
det share one fraction-free Bareiss elimination (Bareiss 1968), and
rref is the one Gauss-Jordan elimination, also fraction-free, which
solve runs on the augmented matrix [a | b] of a matrix right-hand side
b, inverse as solve(a, I), and kernel on the matrix itself.  mat_mul
takes integer dot products of cleared rows and cleared columns.
Bareiss takes a matrix of ints as given, and its det is then an int;
any other matrix, like every input of rref and mat_mul, has its rows
cleared first.

Every entry that rref, solve, inverse, kernel and mat_mul return is an
int when it is an integer and a Fraction otherwise, as det's value is
for a matrix of ints.  det, solve and inverse raise ValueError("matrix
is not square") on a non-square matrix, solve raises ValueError when b
does not have one row per row of a, and mat_mul when the rows of a are
not as long as b has rows.
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


def _bareiss(rows):
    """Fraction-free Bareiss elimination (Bareiss 1968) of a rational
    matrix; returns (rank, det), det being the determinant when the
    matrix is square and 0 otherwise, an int for a matrix of ints and a
    Fraction for any other."""
    if all(type(x) is int for row in rows for x in row):
        a, scale = [list(row) for row in rows], None
    else:
        a, dens = _cleared(rows)
        scale = math.prod(dens)
    nr, nc = len(a), len(a[0]) if a else 0
    r, sign, prev = 0, 1, 1
    for col in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, nr):
            for j in range(col + 1, nc):
                a[i][j] = (a[r][col] * a[i][j] - a[i][col] * a[r][j]) // prev
            a[i][col] = 0
        prev = a[r][col]
        r += 1
    # the last pivot of a nonsingular square matrix is its determinant,
    # up to the row swaps and the cleared denominators
    value = sign * prev if r == nr == nc else 0
    return r, (value if scale is None else Fraction(value, scale))


def rank(rows):
    """Rank of a rational matrix."""
    return _bareiss(rows)[0]


def _check_square(rows):
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")


def det(rows):
    """Determinant of a square rational matrix."""
    _check_square(rows)
    return _bareiss(rows)[1]


def rref(rows):
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination
    over the cleared integer rows; returns (matrix, pivot column list).

    Each step replaces row i by p row_i - f row_r (p the pivot, f the
    entry of row i in the pivot column) and divides it by its content;
    each pivot row is divided by its pivot once, at the end."""
    a = _cleared(rows)[0]
    nr, nc = len(a), len(a[0]) if a else 0
    pivots = []
    for col in range(nc):
        r = len(pivots)
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        p = prow[col]
        for i in range(nr):
            f = a[i][col]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(a[i], prow)]
                # a row that cancels to zero has content 0
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    red = [[_quotient(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    red += [[0] * nc for _ in range(nr - len(pivots))]
    return red, pivots


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
    column per right-hand side), from the rref of [a | b]."""
    _check_square(a)
    n = len(a)
    if len(b) != n:
        raise ValueError("right-hand side has %d rows, expected %d" % (len(b), n))
    red, pivots = rref([list(row) + list(rhs) for row, rhs in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


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
