"""Rank-based degeneracy tests and the Schubert-chart transversality
decision at exact rational points.

A flag is its nonsingular basis matrix (columns span the flag steps);
the rows of its inverse, computed once, are the linear forms that cut
the steps out.  All rank decisions run in exact rational arithmetic;
projective points are normalized to leading coordinate 1.

The tangency test at a point x with Gauss image on the cell e_mu works
in coordinates x = L z adapted to the chart (L: the flag basis, pivot
columns first), where the variety is the graph of an implicit map h.
By the chain rule, with nothing substituted symbolically, the Jacobian
in z is J(x) L, and J2 h_ab = -(u_a^T H_f(x) u_b) for an invertible
block J2 of it, the Hessians H_f(x) of the input polynomials and the
graph's tangent vectors u_a in x coordinates.  The m+1 matrices of
second derivatives span the image of the Gauss differential;
transversality holds when they fill the chart directions complementary
to the cell.

The partials behind J(x) and H_f(x) are polynomials built once per
InputInstance and cached on it (gradients, hessians), so a second
report on the same instance, at any point and flag, only evaluates them.
A second partial that is a constant (all of them for a form of degree
at most 2) is read once per instance, and only the others are evaluated
at x.  The linear algebra returns an int for every integral entry, so a
report passes integers between its steps without Fractions; the chart
it reports is made of Fractions.

The decision is exposed as separate pieces (smoothness, cell
membership, the tangency verdict) rather than as one bare implication,
so callers see which hypothesis failed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg
from .arith import CrossCheckFailed, MultiPoly, frac
from .partitions import is_admissible, jumps


@dataclass(frozen=True)
class Flag:
    """Complete flag in P^n given by its basis matrix: columns l_0..l_j
    span the cone over F_j.

    The basis is checked square and nonsingular and inverted once, on
    construction; row n - i of the inverse is the linear form dual row
    i, which vanishes on F_0..F_{n-1-i}."""

    basis: tuple  # (n+1) x (n+1), columns l_0..l_n
    inverse: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        basis = tuple(tuple(frac(x) for x in row) for row in self.basis)
        if any(len(row) != len(basis) for row in basis):
            raise ValueError("flag basis is not square")
        try:
            inverse = linalg.inverse(basis)
        except ValueError:
            raise ValueError("flag basis is singular") from None
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "inverse", tuple(map(tuple, inverse)))

    @property
    def n(self):
        return len(self.basis) - 1

    @property
    def dual_matrix(self):
        """n x (n+1): dual row i is row n - i of the inverse."""
        return tuple(self.inverse[self.n - i] for i in range(self.n))

    @classmethod
    def from_basis(cls, basis):
        return cls(basis)


def random_flag(n, seed):
    """Deterministic pseudo-random integer flag; resamples until the
    basis is nonsingular."""
    rng = random.Random(seed)
    while True:
        basis = [[Fraction(rng.randint(-9, 9)) for _ in range(n + 1)]
                 for _ in range(n + 1)]
        try:
            return Flag(basis)
        except ValueError:  # the basis is singular
            pass


@dataclass(frozen=True)
class InputInstance:
    """Homogeneous system f_1..f_r in x0..xn whose m-dimensional locus
    is the variety under study.

    The first and second partials of the f_i are built once per instance,
    on first use, and so are the values of the constant second partials;
    equality and hashing compare the fields only."""

    polys: tuple
    n: int
    m: int

    def __post_init__(self):
        variables = tuple("x%d" % i for i in range(self.n + 1))
        for f in self.polys:
            if f.variables != variables:
                raise ValueError("polynomials must live in x0..x%d" % self.n)
            if f.is_homogeneous() is None:
                raise ValueError("polynomials must be homogeneous")
        if not 0 <= self.m <= self.n:
            raise ValueError("need 0 <= m <= n")

    @property
    def variables(self):
        return tuple("x%d" % i for i in range(self.n + 1))

    @cached_property
    def gradients(self):
        """Row i holds the partials of f_i in x0..xn."""
        return tuple(tuple(f.partial(v) for v in self.variables) for f in self.polys)

    @cached_property
    def hessians(self):
        """Matrix i holds the second partials of f_i."""
        return tuple(tuple(tuple(g.partial(v) for v in self.variables) for g in row)
                     for row in self.gradients)

    @cached_property
    def hessian_entries(self):
        """The hessians with each constant entry read as its value (an
        int when integral) and every other entry left a polynomial."""
        def entry(h):
            if any(any(e) for e in h.terms):
                return h
            c = next(iter(h.terms.values()), 0)  # its one term, if any
            return c.numerator if c.denominator == 1 else c
        return tuple(tuple(tuple(map(entry, row)) for row in hessian)
                     for hessian in self.hessians)


@dataclass(frozen=True)
class GrassPoint:
    """Point of G(m,n) as a full-rank (m+1) x (n+1) span matrix of the cone."""

    span_matrix: tuple

    def __post_init__(self):
        rows = [list(r) for r in self.span_matrix]
        if linalg.rank(rows) != len(rows):
            raise ValueError("span matrix is rank deficient")

    @classmethod
    def _of_kernel(cls, basis):
        """The point spanned by a kernel basis from linalg.kernel, which
        has full rank by construction, so it is not ranked again."""
        point = object.__new__(cls)
        object.__setattr__(point, "span_matrix", tuple(tuple(v) for v in basis))
        return point

    @property
    def dim(self):
        return len(self.span_matrix) - 1


def normalize_point(x):
    """Scale so the first nonzero coordinate is 1."""
    x = [frac(v) for v in x]
    lead = next((v for v in x if v), None)
    if lead is None:
        raise ValueError("zero vector is not a projective point")
    return tuple(v / lead for v in x)


def is_zero_of(inst, x):
    return all(f.eval_point(x) == 0 for f in inst.polys)


def _at(polys, x):
    """A matrix of polynomials evaluated at x."""
    return [[g.eval_point(x) for g in row] for row in polys]


def jacobian_at(inst, x):
    return _at(inst.gradients, x)


def _hessian_at(inst, i, x):
    """Hessian of f_i at x: only its non-constant entries are evaluated."""
    return [[h.eval_point(x) if isinstance(h, MultiPoly) else h for h in row]
            for row in inst.hessian_entries[i]]


def _zero(inst, x):
    """x normalized; raises unless it is a zero of the system."""
    x = normalize_point(x)
    if not is_zero_of(inst, x):
        raise ValueError("point is not a zero of the system")
    return x


def _gauss_point(inst, jac):
    """Kernel of the Jacobian jac at a zero, or None when it is not
    (m+1)-dimensional, that is when the rank of jac is not n-m (x is not
    a smooth point of an m-dimensional variety)."""
    basis = linalg.kernel(jac, ncols=inst.n + 1)
    if len(basis) != inst.m + 1:
        return None
    return GrassPoint._of_kernel(basis)


def gauss_point(inst, x):
    """Tangent space at a smooth point, as the Jacobian kernel."""
    x = _zero(inst, x)
    jac = jacobian_at(inst, x)
    A = _gauss_point(inst, jac)
    if A is None:
        raise ValueError("Jacobian rank %d at %s, expected %d"
                         % (linalg.rank(jac), x, inst.n - inst.m))
    return A


def in_Q_lambda(inst, x, flag, lam):
    """Degeneracy-locus membership by stacked rank tests: for each i the
    first (m - i + lam_{i+1}) dual rows over the Jacobian have rank at
    most n-i."""
    if not is_admissible(lam, inst.n, inst.m):
        raise ValueError("partition not admissible")
    jac = jacobian_at(inst, _zero(inst, x))
    for i in range(inst.m + 1):
        delta = inst.m - i + lam.part(i + 1)
        rows = [list(r) for r in flag.dual_matrix[:delta]] + [list(r) for r in jac]
        if linalg.rank(rows) > inst.n - i:
            return False
    return True


# ---------------------------------------------------------------------------
# Schubert cells via echelon charts


def schubert_cell_coords(A, flag, mu):
    """Chart matrix alpha_mu(A) of shape (n-m) x (m+1), of Fractions, or
    None when A lies outside the chart domain U_mu."""
    n = flag.n
    m = A.dim
    sigma = jumps(mu, n, m)
    B = linalg.mat_mul([list(r) for r in A.span_matrix], linalg.transpose(flag.inverse))
    Bsig = [[row[s] for s in sigma] for row in B]
    try:
        E = linalg.solve(Bsig, B)
    except ValueError:  # Bsig is singular
        return None
    rest = [j for j in range(n + 1) if j not in sigma]
    return tuple(tuple(frac(E[i][j]) for i in range(m + 1)) for j in rest)


def _on_cell(chart, sigma):
    """Echelon zero pattern: a chart (None outside U_mu) lies on the cell
    when every slot (j, i) with j >= sigma_i - i is zero."""
    return chart is not None and all(
        chart[j][i] == 0 for i, s in enumerate(sigma) for j in range(s - i, len(chart)))


def in_cell(A, flag, mu):
    """Cell membership through the echelon zero pattern of the chart."""
    sigma = jumps(mu, flag.n, A.dim)
    return _on_cell(schubert_cell_coords(A, flag, mu), sigma)


# ---------------------------------------------------------------------------
# transversality at a point


def transversality_report(inst, x, flag, mu):
    """Full picture of the tangency test at x; see transversal_at.  At a
    point where the Jacobian rank is not n-m the report has smooth False
    and stops there."""
    n, m = inst.n, inst.m
    x = _zero(inst, x)
    sigma = jumps(mu, n, m)  # raises for a partition that is not admissible
    report = {"point": x, "mu": mu, "smooth": False, "on_cell": False,
              "chart": None, "span_dim": None, "needed": (n - m) * (m + 1),
              "transversal": None}
    jac = jacobian_at(inst, x)
    A = _gauss_point(inst, jac)
    if A is None:
        return report
    report["smooth"] = True
    chart = schubert_cell_coords(A, flag, mu)
    if not _on_cell(chart, sigma):
        return report
    report["on_cell"] = True
    report["chart"] = chart

    rest = [j for j in range(n + 1) if j not in sigma]
    order = list(sigma) + rest
    if report["needed"] == 0:
        report["span_dim"] = 0
        report["transversal"] = True
        return report

    # adapted coordinates: x = L z with L the basis columns reordered so
    # the sigma-columns come first; by the chain rule the Jacobian of
    # f(L z) is J(x) L
    L = [[flag.basis[i][order[k]] for k in range(n + 1)] for i in range(n + 1)]
    jac = linalg.mat_mul(jac, L)
    block = [row[m + 1:] for row in jac]
    # pick n-m rows with an invertible square block: the pivot columns of
    # the transpose are the first rows independent of the rows before them
    rows_pick = linalg.rref(linalg.transpose(block))[1]
    if len(rows_pick) < n - m:
        raise CrossCheckFailed("chart block is singular at a cell point")

    Jsel = [jac[s] for s in rows_pick]
    J2 = [row[m + 1:] for row in Jsel]
    J1 = [row[:m + 1] for row in Jsel]
    # first derivatives of the implicit graph map: J2 H1 = -J1
    H1 = [[-v for v in row] for row in linalg.solve(J2, J1)]
    if tuple(tuple(r) for r in H1) != chart:
        raise CrossCheckFailed("implicit chart disagrees with echelon chart")

    # second derivatives: J2 h_ab = -(u_a^T H_f(x) u_b) over the picked
    # rows f, where the columns u_a = L (e_a ; H1[., a]) of U are the
    # graph's tangent vectors in x coordinates
    U = linalg.mat_mul(L, [[int(i == a) for a in range(m + 1)] for i in range(m + 1)] + H1)
    rhs = []
    for s in rows_pick:
        HU = linalg.mat_mul(_hessian_at(inst, s, x), U)
        rhs.append([-v for row in linalg.mat_mul(linalg.transpose(U), HU) for v in row])
    second = linalg.solve(J2, rhs)
    # the cell's tangent directions are the unit matrices at the free
    # chart slots (t, a), t < sigma_a - a: each adds one to the rank of
    # the matrices (h_ab)_{t,a}, b <= m, at the other slots
    span_rows = [[second[t][a * (m + 1) + b] for t in range(n - m) for a in range(m + 1)
                  if t >= sigma[a] - a] for b in range(m + 1)]
    span_dim = sum(s - a for a, s in enumerate(sigma)) + linalg.rank(span_rows)
    report["span_dim"] = span_dim
    report["transversal"] = span_dim == report["needed"]
    return report


def transversal_at(inst, x, flag, mu):
    """True when the Gauss map meets the cell e_mu transversely at x.

    Preconditions (violations raise): x is an exact zero, the Jacobian
    rank there is exactly n-m, and the tangent space lies on the cell.
    """
    report = transversality_report(inst, x, flag, mu)
    if not report["smooth"]:
        raise ValueError("Jacobian rank at %s is not %d" % (report["point"], inst.n - inst.m))
    if not report["on_cell"]:
        raise ValueError("Gauss image is not on the cell e_%s" % mu)
    return report["transversal"]
