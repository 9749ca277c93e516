"""Exact linear algebra over Q: rank, determinant, solve, kernel, RREF,
and an integer check of a claimed inverse.

Matrices are lists of rows whose entries are ints or Fractions.  There
are two eliminations: rank and det share one fraction-free Bareiss
elimination over integer rows (each row's denominators cleared first),
and rref is the one Gauss-Jordan elimination, which solve and inverse
run on the augmented matrix and kernel on the matrix itself.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .arith import frac


def _cleared(rows):
    """Rational rows of ints or Fractions (both carry numerator and
    denominator) as integer rows, each times the lcm of its
    denominators; returns (integer rows, lcms)."""
    out, dens = [], []
    for row in rows:
        # one lcm at a time: math.lcm(*generator) raised the peak memory
        # of a 231-report `ci` pass by about 0.3 MiB
        den = 1
        for x in row:
            den = math.lcm(den, x.denominator)
        dens.append(den)
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out, dens


def _bareiss(rows):
    """Fraction-free Bareiss elimination (Bareiss 1968) of a rational
    matrix; returns (rank, det), det being the determinant when the
    matrix is square and 0 otherwise."""
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
    return r, (Fraction(sign * prev, scale) if r == nr == nc else Fraction(0))


def rank(rows):
    """Rank of a rational matrix."""
    return _bareiss(rows)[0]


def det(rows):
    """Determinant of a square rational matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return _bareiss(rows)[1]


def rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination; returns
    (matrix, pivot column list)."""
    a = [[frac(x) for x in row] for row in rows]
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
        inv = Fraction(1) / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


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
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def _solve_columns(a, b):
    """x with a x = b for a square nonsingular a and a matrix b, from the
    rref of [a | b]."""
    n = len(a)
    red, pivots = rref([list(row) + list(rhs) for row, rhs in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def solve(a, b):
    """Solve a square nonsingular system a x = b exactly."""
    return [row[0] for row in _solve_columns(a, [[v] for v in b])]


def inverse(a):
    """Exact inverse of a square nonsingular rational matrix."""
    n = len(a)
    return _solve_columns(a, [[int(i == j) for j in range(n)] for i in range(n)])


def is_inverse(a, b):
    """a b == I for square rational matrices a and b of one size, in
    integers: row i of a and column j of b, cleared of denominators d_i
    and e_j, have product d_i e_j when i == j and 0 otherwise."""
    k = len(a)
    if len(b) != k or any(len(row) != k for row in (*a, *b)):
        return False
    (rows, ds), (cols, es) = _cleared(a), _cleared(zip(*b))
    return all(sum(map(operator.mul, r, c)) == (d * e if i == j else 0)
               for i, (r, d) in enumerate(zip(rows, ds))
               for j, (c, e) in enumerate(zip(cols, es)))


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]
