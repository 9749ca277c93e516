"""Rank-based degeneracy tests and the Schubert-chart transversality
decision at exact rational points.

A flag is its nonsingular basis matrix (columns span the flag steps);
the rows of its inverse are the linear forms that cut the steps out.
All rank decisions run in exact rational arithmetic; projective points
are normalized to leading coordinate 1.

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
at x.  A report passes integers between its steps: each matrix is an
integer matrix times one nonzero scalar, which none of the steps sees
(a kernel, the chart E = Bsig^-1 B, J2 H1 = -J1 and a rank).  J(x) is
cleared by one lcm, and so are the Hessians of all picked rows, as the
rows of J2 meet those of the right-hand side; the flag keeps D B and
the numerators of its inverse; each solve leaves its numerators over a
pivot, and the two charts are compared by cross-multiplying.  Only the
point and the chart a report returns are Fractions.

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
from .arith import CrossCheckFailed, InputError, MultiPoly, frac
from .partitions import is_admissible, jumps


@dataclass(frozen=True)
class Flag:
    """Complete flag in P^n given by its basis matrix B: columns l_0..l_j
    span the cone over F_j.

    The basis is checked square and nonsingular on construction by one
    elimination of [D B | I], D the lcm of its denominators, which keeps
    the integer matrix D B and the integer numerators N of B^-1 = D N / p,
    p the last pivot.  Row n - i of the inverse is the linear form dual
    row i, which vanishes on F_0..F_{n-1-i}."""

    basis: tuple  # (n+1) x (n+1), columns l_0..l_n
    _integral: tuple = field(init=False, compare=False, repr=False)  # D B
    _inverse_numerators: tuple = field(init=False, compare=False, repr=False)  # N
    _scale: tuple = field(init=False, compare=False, repr=False)  # (D, p)

    def __post_init__(self):
        basis = tuple(tuple(map(frac, row)) for row in self.basis)
        if any(len(row) != len(basis) for row in basis):
            raise ValueError("flag basis is not square")
        integral, den = linalg.integral(basis)
        identity = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
        try:
            numerators, last = linalg.solve_undivided(integral, identity)
        except ValueError:
            raise ValueError("flag basis is singular") from None
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_integral", integral)
        object.__setattr__(self, "_inverse_numerators", numerators)
        object.__setattr__(self, "_scale", (den, last))

    @property
    def n(self):
        return len(self.basis) - 1

    @property
    def inverse(self):
        """B^-1, from its numerators."""
        den, last = self._scale
        return tuple(map(tuple, linalg.divide(
            [[den * v for v in row] for row in self._inverse_numerators], last)))

    @property
    def dual_matrix(self):
        """n x (n+1): dual row i is row n - i of the inverse."""
        return self.inverse[:0:-1]

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
                raise InputError("polynomials must be homogeneous")
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
        int when integral, as MultiPoly keeps it) and every other entry
        left a polynomial."""
        def entry(h):
            if any(any(e) for e in h.terms):
                return h
            return next(iter(h.terms.values()), 0)  # its one term, if any
        return tuple(tuple(tuple(map(entry, row)) for row in hessian)
                     for hessian in self.hessians)


@dataclass(frozen=True)
class GrassPoint:
    """Point of G(m,n) as a full-rank (m+1) x (n+1) span matrix of the cone."""

    span_matrix: tuple

    def __post_init__(self):
        if linalg.rank(self.span_matrix) != len(self.span_matrix):
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
        raise InputError("zero vector is not a projective point")
    return tuple(x) if lead == 1 else tuple(v / lead for v in x)


def is_zero_of(inst, x):
    return all(f.eval_point(x) == 0 for f in inst.polys)


def jacobian_at(inst, x):
    return [[g.eval_point(x) for g in row] for row in inst.gradients]


def _hessian_at(inst, i, x):
    """Hessian of f_i at x: only its non-constant entries are evaluated."""
    return [[h.eval_point(x) if isinstance(h, MultiPoly) else h for h in row]
            for row in inst.hessian_entries[i]]


def _zero(inst, x):
    """x normalized; raises unless it is a zero of the system."""
    x = normalize_point(x)
    if not is_zero_of(inst, x):
        raise InputError("point is not a zero of the system")
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
    jac, dual = tuple(jacobian_at(inst, _zero(inst, x))), flag.dual_matrix
    for i in range(inst.m + 1):
        delta = inst.m - i + lam.part(i + 1)
        if linalg.rank(dual[:delta] + jac) > inst.n - i:
            return False
    return True


# ---------------------------------------------------------------------------
# Schubert cells via echelon charts


def _chart(A, flag, sigma):
    """The chart of A as (integer numerators, one int denominator), or
    None outside U_mu: E = Bsig^-1 B for B = A (B_flag^-1)^T, where any
    multiple of B_flag^-1, its numerators here, gives the same E."""
    B = linalg.mat_mul(A.span_matrix, linalg.transpose(flag._inverse_numerators))
    rest = [j for j in range(flag.n + 1) if j not in sigma]
    try:  # E is the identity at the sigma-columns
        E, den = linalg.solve_undivided([[row[s] for s in sigma] for row in B],
                                        [[row[j] for j in rest] for row in B])
    except ValueError:  # Bsig is singular
        return None
    return linalg.transpose(E), den


def schubert_cell_coords(A, flag, mu):
    """Chart matrix alpha_mu(A) of shape (n-m) x (m+1), of Fractions, or
    None when A lies outside the chart domain U_mu."""
    chart = _chart(A, flag, jumps(mu, flag.n, A.dim))
    return None if chart is None else tuple(
        tuple(Fraction(v, chart[1]) for v in row) for row in chart[0])


def _on_cell(chart, sigma):
    """Echelon zero pattern: a chart (None outside U_mu), or its
    numerators, lies on the cell when every slot (j, i) with
    j >= sigma_i - i is zero."""
    return chart is not None and all(
        chart[j][i] == 0 for i, s in enumerate(sigma) for j in range(s - i, len(chart)))


def in_cell(A, flag, mu):
    """Cell membership through the echelon zero pattern of the chart."""
    return _on_cell(schubert_cell_coords(A, flag, mu), jumps(mu, flag.n, A.dim))


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
    jac = linalg.integral(jacobian_at(inst, x))[0]
    A = _gauss_point(inst, jac)
    if A is None:
        return report
    report["smooth"] = True
    chart = _chart(A, flag, sigma)
    if not _on_cell(chart and chart[0], sigma):
        return report
    numerators, den = chart
    report["on_cell"] = True
    report["chart"] = tuple(tuple(Fraction(v, den) for v in row) for row in numerators)

    rest = [j for j in range(n + 1) if j not in sigma]
    order = list(sigma) + rest
    if report["needed"] == 0:
        report["span_dim"] = 0
        report["transversal"] = True
        return report

    # adapted coordinates: x = L z with L the basis columns reordered so
    # the sigma-columns come first; by the chain rule the Jacobian of
    # f(L z) is J(x) L; here L is D L, from the flag
    L = [[row[k] for k in order] for row in flag._integral]
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
    # first derivatives of the implicit graph map: J2 H1 = -J1, H1 = -X / h
    X, h = linalg.solve_undivided(J2, J1)
    if any(-p * den != c * h for ps, cs in zip(X, numerators) for p, c in zip(ps, cs)):
        raise CrossCheckFailed("implicit chart disagrees with echelon chart")

    # second derivatives: J2 h_ab = -(u_a^T H_f(x) u_b) over the picked
    # rows f, where the columns u_a = L (e_a ; H1[., a]) of U, h L (I ; H1)
    # here, are the graph's tangent vectors in x coordinates
    U = linalg.mat_mul(L, [[h * (i == a) for a in range(m + 1)] for i in range(m + 1)]
                       + [[-v for v in row] for row in X])
    Ut = linalg.transpose(U)
    # one lcm for the Hessians of all picked rows: row f of rhs meets row f of J2
    hessians = linalg.integral([row for s in rows_pick for row in _hessian_at(inst, s, x)])[0]
    rhs = [[-v for row in linalg.mat_mul(Ut, linalg.mat_mul(hessians[k:k + n + 1], U))
            for v in row] for k in range(0, len(hessians), n + 1)]
    second = linalg.solve_undivided(J2, rhs)[0]
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
