"""Exact linear algebra over Q: rank, determinant, solve, kernel, RREF.

Matrices are lists of rows of Fractions.  Rank and integer determinants
go through fraction-free Bareiss elimination after clearing denominators;
everything else is exact Gaussian elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import frac


def _to_fraction_matrix(rows):
    return [[frac(x) for x in row] for row in rows]


def _cleared_int_rows(rows):
    """Scale each row by the lcm of its denominators; returns int rows."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def rank(rows):
    """Rank of a rational matrix (fraction-free Bareiss)."""
    rows = _to_fraction_matrix(rows)
    if not rows or not rows[0]:
        return 0
    a = _cleared_int_rows(rows)
    nr, nc = len(a), len(a[0])
    prev = 1
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            for j in range(col + 1, nc):
                a[i][j] = (a[r][col] * a[i][j] - a[i][col] * a[r][j]) // prev
            a[i][col] = 0
        prev = a[r][col]
        r += 1
        if r == nr:
            break
    return r


def det(rows):
    """Determinant of a square rational matrix."""
    rows = _to_fraction_matrix(rows)
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    scale = Fraction(1)
    a = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        scale *= den
        a.append([int(x * den) for x in row])
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (a[col][col] * a[i][j] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return Fraction(sign * a[n - 1][n - 1]) / scale


def det_ring(rows, one):
    """Division-free determinant over any commutative ring.

    Expansion over column subsets (O(n 2^n) ring products); fine for the
    small Jacobi-Trudi-shaped matrices this package builds.
    """
    n = len(rows)
    if n == 0:
        return one
    zero = one - one
    # state: column subset (bitmask) -> minor determinant of the first
    # popcount(mask) rows on those columns
    states = {0: one}
    for i in range(n):
        new = {}
        for mask, val in states.items():
            # sign of placing row i at column j is (-1)^(used columns > j)
            sign = 1
            for j in range(n - 1, -1, -1):
                bit = 1 << j
                if mask & bit:
                    sign = -sign
                    continue
                entry = rows[i][j]
                m2 = mask | bit
                contrib = val * entry if sign > 0 else -(val * entry)
                if m2 in new:
                    new[m2] = new[m2] + contrib
                else:
                    new[m2] = contrib
        states = new
    return states.get((1 << n) - 1, zero)


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    a = _to_fraction_matrix(rows)
    if not a:
        return [], []
    nr, nc = len(a), len(a[0])
    pivots = []
    r = 0
    for col in range(nc):
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
        r += 1
        if r == nr:
            break
    return a, pivots


def kernel(rows, ncols=None):
    """Basis of the right kernel of a rational matrix, as rows."""
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for an empty matrix")
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    nc = len(rows[0])
    red, pivots = rref(rows)
    free = [j for j in range(nc) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a, b):
    """Solve a square nonsingular system a x = b exactly."""
    n = len(a)
    aug = [[frac(x) for x in row] + [frac(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def inverse(a):
    """Exact inverse of a square nonsingular rational matrix."""
    n = len(a)
    aug = [[frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
