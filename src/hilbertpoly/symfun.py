"""Symmetric-function engine: Jacobi-Trudi-shaped determinants of
rational sequences (plain tuples c_0 = 1, c_1, ...), the
Bernoulli-derived b-sequence, power sums by Newton's identities and the
Todd class by Hirzebruch's multiplicative-sequence recurrence, each
written once over any ring (the tangent Chern numbers of a variety, or
formal Chern classes for the symbolic Todd polynomials), integer
binomial-determinant shift coefficients, and the delta tables that
assemble Hilbert coefficients from projective characters, with a count
of their work.

Sign convention: bernoulli(n) returns the all-positive values
B_1 = 1/6, B_2 = 1/30, B_3 = 1/42, ...  (the alternating signs live in
the series t/(1 - e^{-t}) itself, whose even coefficients are
b_{2j} = (-1)^{j-1} B_j / (2j)!).  Modern references instead attach the
sign to the Bernoulli number; conversions must keep that in mind.

Memoised for the life of the process, since none of them depends on a
variety and each value is immutable: bernoulli (a Fraction for each n),
b_sequence (a tuple for each K), its cleared form (integer numerators
b_i D and one denominator D, for each K), the scaled Delta_lam(b) D^|lam|
(an int for each lam), todd_poly (a MultiPoly), delta_coeff
(delta^{m,k}_mu, a Fraction) and delta_table (a tuple of pairs
(mu, N(k,m) delta^{m,k}_mu), each scaled entry checked to be an int).

A Jacobi-Trudi determinant of a sequence of ints, such as the cleared
b-sequence, the binomials of d_coeff or the Chern numbers of a complete
intersection, is an int: linalg eliminates it without Fractions.  The
Todd recurrence and the delta sums likewise run on integer numerators
over one known denominator and divide once for each value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .arith import CrossCheckFailed, MultiPoly
from .partitions import count_nested_pairs, enumerate_partitions, partitions_in_strip


def delta_det(lam, c):
    """det((c_{lam_i - i + j})_{1<=i,j<=r}) for a sequence c = (c_0 = 1,
    c_1, ...) of rationals, with c_i = 0 for i < 0.

    The largest index read is lam_1 + r - 1 <= |lam|; a read past the end
    of c raises IndexError.  The empty partition gives c_0 and a
    partition of length 1 gives c_{lam_1}, as they are; padding lam with
    zeros does not change the value.
    """
    r = lam.length
    if r <= 1:
        return c[lam.part(1)] if r else c[0]
    rows = []
    for i in range(1, r + 1):
        first = lam.part(i) - i + 1
        rows.append([c[k] if k >= 0 else 0 for k in range(first, first + r)])
    return linalg.det(rows)


@lru_cache(maxsize=None)
def bernoulli(n):
    """All-positive Bernoulli number (1/6, 1/30, 1/42, ...) by double sum.

    B_n = (-1)^(n-1) * sum_{k=1}^{2n} 1/(k+1) sum_{r=1}^{k} (-1)^r C(k,r) r^(2n).
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    total = Fraction(0)
    for k in range(1, 2 * n + 1):
        inner = sum((-1) ** r * math.comb(k, r) * r ** (2 * n) for r in range(1, k + 1))
        total += Fraction(inner, k + 1)
    return (-1) ** (n - 1) * total


@lru_cache(maxsize=None)
def b_sequence(K):
    """Coefficients (b_0, ..., b_K) of t/(1 - e^{-t}) as a tuple.

    b_0 = 1, b_1 = 1/2, b_{2j} = (-1)^(j-1) B_j/(2j)!, b_odd = 0 past b_1.
    """
    values = [Fraction(1)]
    if K >= 1:
        values.append(Fraction(1, 2))
    for i in range(2, K + 1):
        if i % 2:
            values.append(Fraction(0))
        else:
            j = i // 2
            values.append((-1) ** (j - 1) * bernoulli(j) / math.factorial(i))
    return tuple(values)


@lru_cache(maxsize=None)
def _cleared_b(K):
    """(b_0 D, ..., b_K D) as ints, and D, the lcm of the denominators of
    b_sequence(K)."""
    b = b_sequence(K)
    D = math.lcm(*(x.denominator for x in b))
    return tuple(int(x * D) for x in b), D


@lru_cache(maxsize=None)
def _scaled_delta_b(lam):
    """Delta_lam(b) D^|lam| as an int, D the common denominator of
    b_sequence(|lam|) (1 for the empty partition).

    No entry b_i of the determinant has i > lam_1 + len(lam) - 1 <= |lam|,
    so b_sequence(|lam|) holds every one of them.  The determinant is
    taken in integers, on the b_i D: each of its len(lam) rows is D
    times a row of Delta_lam(b), and len(lam) <= |lam|.
    """
    nums, D = _cleared_b(lam.size)
    return delta_det(lam, nums) * D ** (lam.size - lam.length)


def newton_power_sums(c):
    """The power sums p_0 = m, p_1, ..., p_m of the m roots whose
    elementary symmetric functions are c = [1, c_1, ..., c_m], over the
    ring of the c_j, by Newton's identities
    p_k = (-1)^(k-1) k c_k + sum_{j<k} (-1)^(j-1) c_j p_{k-j}."""
    m = len(c) - 1
    p = [c[0] * m]
    for k in range(1, m + 1):
        acc = c[k] * ((-1) ** (k - 1) * k)
        for j in range(1, k):
            acc = acc + (-1) ** (j - 1) * (c[j] * p[k - j])
        p.append(acc)
    return p


def _formal_chern(m):
    """[1, c_1, ..., c_m] as polynomials in the variables c1..cm."""
    names = tuple("c%d" % i for i in range(1, m + 1))
    return [MultiPoly.constant(names, 1)] + [MultiPoly.variable(names, x) for x in names]


def todd_sequence(c):
    """T_0, T_1, ..., T_m at c = [1, c_1, ..., c_m] over any commutative
    ring that holds the rationals: the tangent Chern numbers of a
    variety, or formal Chern classes as polynomials.

    The Todd class is the multiplicative sequence of
    Q(t) = t/(1 - e^{-t}) = sum b_k t^k (Hirzebruch, Topological Methods
    in Algebraic Geometry, section 1): with log Q = sum a_k t^k it is
    exp(sum_k a_k p_k), whose graded parts satisfy
    n T_n = sum_{k<=n} k a_k p_k T_{n-k}.  Since t (log Q)' =
    1 - t/(e^t - 1) = 1 - Q(-t), k a_k = (-1)^(k+1) b_k for k >= 1.

    The recurrence runs on S_n = n! D^n T_n, D the common denominator of
    b_0..b_m, which the integer numerators b_k D take without Fractions
    where the c_j are integers:
    S_n = sum_k (-1)^(k+1) (b_k D) D^(k-1) (n-1)!/(n-k)! p_k S_{n-k}.
    Each T_n is then S_n over n! D^n, one division.
    """
    m = len(c) - 1
    p = newton_power_sums(c)
    nums, D = _cleared_b(m)
    zero = c[0] - c[0]
    scaled, todd = [c[0]], [c[0]]
    for n in range(1, m + 1):
        acc = zero
        for k in range(1, n + 1):
            if nums[k]:  # b_k = 0 for odd k > 1
                weight = nums[k] * D ** (k - 1) * math.perm(n - 1, k - 1)
                acc = acc + p[k] * (weight if k % 2 else -weight) * scaled[n - k]
        scaled.append(acc)
        todd.append(acc * Fraction(1, math.factorial(n) * D ** n))
    return tuple(todd)


@lru_cache(maxsize=None)
def todd_poly(m):
    """m-th Todd polynomial in formal c_1..c_m, by todd_sequence.

    T_1 = c1/2, T_2 = (c1^2 + c2)/12, T_3 = c1*c2/24, ...
    """
    return todd_sequence(_formal_chern(m))[m]


def d_coeff(lam, mu, m):
    """Binomial determinant det C(lam_i+m+1-i, mu_j+m+1-j), 1 <= i, j <= m,
    taken as the determinant of its top-left l x l block, l the longer
    of the lengths of lam and mu.

    That block is enough: for a row i > l the top m+1-i is below the
    bottom mu_j+m+1-j of every column j < i and equals the bottom at
    j = i, so the matrix is block upper triangular and its lower-right
    block is unitriangular.
    """
    if lam.length > m or mu.length > m:
        raise ValueError("partitions must have length <= m")
    ell = max(lam.length, mu.length)
    if ell == 0:
        return 1
    tops = [lam.part(i) + m + 1 - i for i in range(1, ell + 1)]
    bottoms = [mu.part(j) + m + 1 - j for j in range(1, ell + 1)]
    value = linalg.det([[math.comb(t, u) for u in bottoms] for t in tops])
    if value.denominator != 1:
        raise CrossCheckFailed("non-integral binomial determinant %s" % value)
    return int(value)


def scaling_factor(k, m):
    """N(k,m) = [(m-k+1)! (m-k)! ... 2! 1!]^2."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    prod = 1
    for i in range(1, m - k + 2):
        prod *= math.factorial(i)
    return prod * prod


@lru_cache(maxsize=None)
def delta_coeff(m, k, mu):
    """delta^{m,k}_mu = (-1)^|mu| sum over lam of size m-k containing mu
    of Delta_lam(b) d^m_{lam,mu}, summed in integers as the
    Delta_lam(b) D^(m-k) and divided once."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    if mu.size > m - k:
        raise ValueError("need |mu| <= m-k")
    total = 0
    for lam in enumerate_partitions(m - k, max_len=max(m, 1), containing=mu):
        total += _scaled_delta_b(lam) * d_coeff(lam, mu, m)
    # every lam has size m-k, so D^(m-k) scales every term
    return Fraction((-1) ** mu.size * total, _cleared_b(m - k)[1] ** (m - k))


def delta_table_pairs(m, k, n):
    """The work of a cold delta_table(m, k, n), counted without doing it:
    the pairs (lam, mu) whose d_coeff it takes, lam of size m-k
    containing mu and mu_1 <= n-m."""
    if not 0 <= k <= m <= n:
        raise ValueError("need 0 <= k <= m <= n")
    return count_nested_pairs(m - k, n - m)


@lru_cache(maxsize=None)
def delta_table(m, k, n):
    """(mu, N(k,m) delta^{m,k}_mu) for every mu with |mu| <= m-k and
    mu_1 <= n-m, by size and then in the order of partitions_in_strip;
    each scaled entry is checked to be an integer and kept as an int."""
    if not 0 <= k <= m <= n:
        raise ValueError("need 0 <= k <= m <= n")
    N = scaling_factor(k, m)
    entries = []
    for size in range(m - k + 1):
        for mu in partitions_in_strip(size, n - m):
            value = delta_coeff(m, k, mu)
            scaled = N * value
            if scaled.denominator != 1:
                raise CrossCheckFailed("scaled entry %s -> %s not integral" % (mu, value))
            entries.append((mu, int(scaled)))
    return tuple(entries)
