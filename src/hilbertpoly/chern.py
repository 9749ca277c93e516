"""Chern/Todd pipeline for smooth complete intersections in P^n.

Everything lives in the truncated ring Q[h]/(h^(m+1)) where h is the
hyperplane class; the degree functional reads off the h^m coefficient
and multiplies by deg V = prod d_i.  Each Chern class is a monomial
c_i h^i with an integer Chern number c_i: the classes are products and
quotients of factors 1 + a h, which the integer recurrences
c_i = s_i + a s_{i-1} and c_i = s_i - a c_{i-1} take exactly.  So a
determinant Delta_lam of Chern classes is the scalar one of the Chern
numbers times h^|lam|, and the Todd class is the multiplicative-sequence
recurrence of symfun at the Chern numbers; both are taken over scalars,
and no term of weight <= m reads past h^m.  Three independent routes
come out of this module:

* hilbert_poly_hrr             - Riemann-Roch coefficients
                                 k! p_k = deg(h^k T_{m-k})
* hilbert_poly_from_characters - the delta-table combination of the
                                 projective characters of degeneracy
                                 loci (character_table)
* ci_hilbert_series_oracle     - elementary generating-function
                                 bookkeeping for regular sequences (the
                                 acceptance oracle)

Callers compare the routes: the ci report of cli, and the tests.

The identification of the cone normal bundle as a sum of line bundles
of weights d_i - 1 (via the gradient maps) is the one derivation made
here that is pinned by tests rather than quoted: it reproduces the
classical count d(d-1) of tangents through a point for plane curves.

Each total Chern class is the tuple (c_0, ..., c_m) of its Chern
numbers, Python ints.  chern_tangent and chern_cone_normal are
memoised for the life of the process: each class depends only on the
frozen CompleteIntersection and a tuple is immutable, so every caller
shares one build (and one twist cross-check) per complete intersection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import CrossCheckFailed, UniPoly
from .partitions import partitions_in_strip
from .symfun import delta_det, delta_table, scaling_factor, todd_sequence


@dataclass(frozen=True)
class CompleteIntersection:
    """Smooth complete intersection of hypersurfaces of the given degrees
    in projective n-space (smoothness of the generic member is the
    input contract, not re-verified here)."""

    n: int
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        if any(d < 1 for d in self.degrees):
            raise ValueError("degrees must be >= 1")
        if len(self.degrees) > self.n:
            raise ValueError("codimension exceeds ambient dimension")

    @property
    def r(self):
        return len(self.degrees)

    @property
    def m(self):
        return self.n - self.r

    @property
    def degree(self):
        out = 1
        for d in self.degrees:
            out *= d
        return out

    def __str__(self):
        return "CI(n=%d, degrees=%s)" % (self.n, list(self.degrees))


def _times(s, a):
    """The integer sequence s times 1 + a h, truncated to len(s)."""
    return [s[0]] + [s[i] + a * s[i - 1] for i in range(1, len(s))]


def _over(s, a):
    """The integer sequence s over 1 + a h, truncated to len(s):
    c_i = s_i - a c_{i-1}, exact over the integers."""
    out, prev = [], 0
    for x in s:
        prev = x - a * prev
        out.append(prev)
    return out


@lru_cache(maxsize=None)
def chern_cone_normal(ci):
    """Total Chern class of the cone normal bundle: prod (1 + (d_i-1) h)."""
    s = [1] + [0] * ci.m
    for d in ci.degrees:
        s = _times(s, d - 1)
    return tuple(s)


def chern_cone_tangent(ci):
    """Total Chern class of the rank-(m+1) cone tangent bundle, the
    inverse 1/prod (1 + (d_i-1) h) of the cone normal class."""
    s = [1] + [0] * ci.m
    for d in ci.degrees:
        s = _over(s, d - 1)
    return tuple(s)


@lru_cache(maxsize=None)
def chern_tangent(ci):
    """Total Chern class of the tangent bundle.

    Computed by adjunction, (1+h)^(n+1) / prod(1 + d_i h), and checked
    on the spot against the twist route sum_j c_j(cone tangent)
    (1+h)^(m+1-j); a mismatch would mean an internal inconsistency.
    """
    K = ci.m + 1
    adjunction = [math.comb(ci.n + 1, i) for i in range(K)]
    for d in ci.degrees:
        adjunction = _over(adjunction, d)

    # the h^i coefficient of sum_j c_j h^j (1+h)^(K-j)
    cone = chern_cone_tangent(ci)
    twist = [sum(cone[j] * math.comb(K - j, i - j) for j in range(i + 1))
             for i in range(K)]
    if adjunction != twist:
        raise CrossCheckFailed("tangent Chern class routes disagree")
    return tuple(adjunction)


def todd_class(ci):
    """Todd class 1 + sum_i T_i(c_1..c_i) of the tangent Chern classes,
    by the multiplicative-sequence recurrence at the Chern numbers."""
    return todd_sequence(chern_tangent(ci))


def hilbert_poly_hrr(ci):
    """Hilbert polynomial with coefficients p_k = deg(h^k T_{m-k})/k!."""
    td = todd_class(ci)
    return UniPoly([Fraction(td[ci.m - k] * ci.degree, math.factorial(k))
                    for k in range(ci.m + 1)])


def euler_top(ci):
    """Topological Euler characteristic deg(c_m(TV) cap [V])."""
    return chern_tangent(ci)[ci.m] * ci.degree


def projective_character(ci, lam):
    """deg P_lam: degree of the polar degeneracy locus indexed by lam.

    Vanishes when lam_1 > n-m; the empty partition gives deg V.
    """
    if lam.size > ci.m:
        raise ValueError("|lambda| must be at most m")
    if lam.part(1) > ci.n - ci.m:
        return 0
    value = delta_det(lam, chern_cone_normal(ci)) * ci.degree
    if value.denominator != 1 or value < 0:
        raise CrossCheckFailed("character %s -> %s is not a nonnegative integer"
                               % (lam, value))
    return int(value)


def character_table(ci):
    """deg P_mu for every mu with |mu| <= m and mu_1 <= n-m."""
    table = {}
    for size in range(ci.m + 1):
        for mu in partitions_in_strip(size, ci.n - ci.m):
            table[mu] = projective_character(ci, mu)
    return table


def hilbert_poly_from_characters(m, n, chars):
    """Hilbert polynomial of an m-dimensional smooth variety in P^n,
    assembled from delta tables and its projective characters: `chars`
    maps each mu with |mu| <= m and mu_1 <= n-m to deg P_mu (as
    character_table returns them for a complete intersection).

    With N = N(k,m), the sum of the integers N delta^{m,k}_mu times the
    characters is N k! p_k, which is checked to be an integer; p_k is
    built from it as one Fraction."""
    coeffs = []
    for k in range(m + 1):
        scaled = sum(value * chars[mu] for mu, value in delta_table(m, k, n))
        if scaled.denominator != 1:
            raise CrossCheckFailed("scaled coefficient p_%d not integral" % k)
        coeffs.append(Fraction(scaled, scaling_factor(k, m) * math.factorial(k)))
    return UniPoly(coeffs)


def ci_hilbert_series_oracle(ci):
    """Hilbert polynomial from the regular-sequence Hilbert series
    prod(1-t^{d_i})/(1-t)^{n+1} = Q(t)/(1-t)^{m+1} with
    Q = prod(1 + t + ... + t^{d_i-1}); independent of the Chern routes.

    The coefficient q_j of t^j contributes q_j C(T+m-j, m); the
    numerator m! C(T+m-j, m) = prod_{i<m} (T+m-j-i) is an integer
    polynomial, so the sum is taken over the integers and divided by m!
    once."""
    q = [1]
    for d in ci.degrees:
        # prefix sums: (Q (1 + t + ... + t^{d-1}))_i = q_{i-d+1} + ... + q_i
        sums = [0] + list(itertools.accumulate(q))
        q = [sums[min(i + 1, len(q))] - sums[max(i - d + 1, 0)]
             for i in range(len(q) + d - 1)]
    m = ci.m
    num = [0] * (m + 1)
    for j, c in enumerate(q):
        f = [c]
        for i in range(m):
            a = m - j - i  # f times (T + a)
            f = [a * f[0]] + [f[e - 1] + a * f[e] for e in range(1, len(f))] + [f[-1]]
        num = [x + y for x, y in zip(num, f)]
    return UniPoly([Fraction(x, math.factorial(m)) for x in num])


def ci_grid(max_n, max_r, max_degree):
    """Deterministic enumeration of complete intersections with n <= max_n,
    r <= max_r, degrees as multisets from 1..max_degree."""
    out = []
    for n in range(max_n + 1):
        for r in range(min(max_r, n) + 1):
            for degs in itertools.combinations_with_replacement(
                    range(1, max_degree + 1), r):
                out.append(CompleteIntersection(n, tuple(sorted(degs, reverse=True))))
    return out
