"""Independent reference computations used only by the test suite.

These deliberately avoid the code paths they check: the b-sequence
comes from long division of power series, the Todd polynomials from
the graded parts of a product of one-variable series rewritten in the
elementary symmetric basis, and the Todd class at given Chern numbers
from the determinantal formula sum Delta_{lam'}(b) Delta_lam(c);
determinants over any commutative ring (truncated series, polynomials)
come from a division-free expansion over column subsets, truncated
power series over Q (TruncSeries, with their inverse, exp and powers)
from Fraction convolution, the Chern classes of a complete
intersection from Fraction series products and series inverses, the
Euler characteristics of its twists from exp(d h) td V, the delta
coefficients from one Cauchy-Binet determinant over truncated series,
Schur values from bialternants, the dual sequence (-1)^i c_i by
signs, the zero count of a staircase from the box under its pure powers, the
leads of a Groebner basis by a scan of each element's terms under the
oracle's own grevlex key, division by 1 - t in Fraction arithmetic,
the binomial polynomials C(T+shift, n) as products of Fraction lists,
Hilbert polynomials as Fraction sums of them and Hilbert functions as
binomial sums over the series numerator, series numerators of
monomial ideals by inclusion-exclusion over subsets of generators,
the derivatives of a polynomial in
adapted coordinates from substituting the change of coordinates
symbolically, the reduced row echelon form
from Gauss-Jordan elimination in Fraction arithmetic, the Euler
characteristics of a one-row graded presentation from its Hilbert
polynomial, a polynomial through given points by Lagrange
interpolation, the Schubert conditions by ranks of stacked spans (the
dimension jumps of a point of G(m,n) against a flag, its cell partition
and Schubert-variety membership, with no chart), the Jacobian rank
condition at a zero, and the conjugate and containment of partitions.
Test inputs come from here too: seeded generic complete-intersection
ideals and DIMACS text."""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from hilbertpoly import linalg
from hilbertpoly.arith import ANY_DEGREE, CrossCheckFailed, MultiPoly, UniPoly
from hilbertpoly.chern import todd_class
from hilbertpoly.grobner import INFINITE, HomIdeal, hilbert_data, monomials_of_degree
from hilbertpoly.partitions import Partition, enumerate_partitions, jumps
from hilbertpoly.symfun import delta_b, delta_det
from hilbertpoly.transversality import _zero, jacobian_at


def b_prefix_by_inversion(K):
    """b_0..b_{K-1} from inverting (1 - e^{-t})/t = sum (-1)^i t^i/(i+1)!."""
    g = TruncSeries(K, [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(K)])
    return list(series_inverse(g).coeffs)


def _mul_trunc(f, g, maxdeg):
    terms = {}
    for e1, c1 in f.terms.items():
        d1 = sum(e1)
        for e2, c2 in g.terms.items():
            if d1 + sum(e2) > maxdeg:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, Fraction(0)) + c1 * c2
    return MultiPoly(f.variables, terms)


def _elementary_polys(tvars):
    """e_0..e_m as polynomials in the t variables."""
    m = len(tvars)
    es = [MultiPoly.constant(tvars, 1)] + [MultiPoly(tvars, {})] * m
    for i in range(m):
        ti = MultiPoly.variable(tvars, tvars[i])
        for k in range(min(i + 1, m), 0, -1):
            es[k] = es[k] + ti * es[k - 1]
    return es


def symmetric_to_elementary(g, tvars, cvars):
    """Rewrite a symmetric polynomial in the elementary symmetric basis.

    Standard lex-leading-term reduction: the lex lead t^a of a symmetric
    polynomial has weakly decreasing a, and matches the lead of
    prod_i e_i^(a_i - a_{i+1}).
    """
    es = _elementary_polys(tvars)
    m = len(tvars)
    work = g
    out = MultiPoly(cvars, {})
    while work:
        lead = max(work.terms)  # tuple comparison = lex with t1 > t2 > ...
        coeff = work.terms[lead]
        if any(lead[i] < lead[i + 1] for i in range(m - 1)):
            raise ValueError("not symmetric: lex lead %r is not decreasing" % (lead,))
        cexp = [0] * len(cvars)
        eprod = MultiPoly.constant(tvars, 1)
        for i in range(m):
            mult = lead[i] - (lead[i + 1] if i + 1 < m else 0)
            if mult:
                cexp[i] = mult
                eprod = math.prod([es[i + 1]] * mult, start=eprod)
        out = out + MultiPoly(cvars, {tuple(cexp): coeff})
        work = work - coeff * eprod
    return out


def todd_direct(m):
    """Todd polynomial from the graded-part definition: the degree-m part
    of prod_i f(t_i) with f(t) = t/(1 - e^{-t}), in elementary symmetrics."""
    from hilbertpoly.symfun import b_sequence

    cvars = tuple("c%d" % i for i in range(1, m + 1))
    if m == 0:
        return MultiPoly.constant((), 1)
    tvars = tuple("t%d" % i for i in range(1, m + 1))
    b = b_sequence(m)
    prod = MultiPoly.constant(tvars, 1)
    for i in range(m):
        fi = MultiPoly(tvars, {})
        for k in range(m + 1):
            exp = tuple(k if j == i else 0 for j in range(m))
            fi = fi + MultiPoly(tvars, {exp: b[k]})
        prod = _mul_trunc(prod, fi, m)
    graded = MultiPoly(tvars, {e: c for e, c in prod.terms.items() if sum(e) == m})
    return symmetric_to_elementary(graded, tvars, cvars)


def ring_det(rows, one):
    """Division-free determinant over any commutative ring, by expansion
    over column subsets (O(n 2^n) ring products); one is the ring one."""
    n = len(rows)
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
                contrib = val * rows[i][j] if sign > 0 else -(val * rows[i][j])
                m2 = mask | bit
                new[m2] = new[m2] + contrib if m2 in new else contrib
        states = new
    return states.get((1 << n) - 1, one - one)


def ring_delta(lam, c):
    """Delta_lam(c) = det(c_{lam_i - i + j}) over the ring of c[0], the
    ring one, with c_i zero for i < 0 and past the list c, by ring_det."""
    zero = c[0] - c[0]

    def entry(k):
        return c[k] if 0 <= k < len(c) else zero

    r = lam.length
    return ring_det([[entry(lam.part(i) - i + j) for j in range(1, r + 1)]
                     for i in range(1, r + 1)], c[0])


def formal_chern(m):
    """[1, c_1, ..., c_m] as polynomials in the variables c1..cm."""
    cvars = tuple("c%d" % i for i in range(1, m + 1))
    return [MultiPoly.constant(cvars, 1)] + [MultiPoly.variable(cvars, v) for v in cvars]


def order_key(order):
    """Sort key of grevlex on the variables in order.ranking (most
    significant first), written from the definition: the degree first,
    then the smaller last exponent, then the one before it, ...."""
    ranking = order.ranking

    def key(exp):
        if ranking is not None:
            exp = tuple(exp[i] for i in ranking)
        return sum(exp), tuple(-e for e in reversed(exp))

    return key


def normal_form_by_scan(f, divisors, order):
    """Remainder of f under full division by the divisors, the textbook
    way: scan the whole remainder for its largest term under order_key,
    then divide by the first divisor whose leading monomial divides it."""
    variables = f.variables
    key = order_key(order)
    leads = [(max(g.terms, key=key), g) for g in divisors if g]
    work = f
    rem = MultiPoly(variables, {})
    while work:
        exp = max(work.terms, key=key)
        term = MultiPoly(variables, {exp: work.terms[exp]})
        for lt, g in leads:
            if all(a <= b for a, b in zip(lt, exp)):
                shift = tuple(b - a for a, b in zip(lt, exp))
                quot = MultiPoly(variables, {shift: Fraction(work.terms[exp], g.terms[lt])})
                work = work - quot * g
                break
        else:
            rem = rem + term
            work = work - term
    return rem


def spoly(f, g, order):
    """S-polynomial of f and g from MultiPoly arithmetic: the lcm of the
    leading monomials over each leading term, times the polynomial."""
    variables = f.variables
    key = order_key(order)
    lf = max(f.terms, key=key)
    lg = max(g.terms, key=key)
    u = tuple(max(a, b) for a, b in zip(lf, lg))
    a = MultiPoly(variables, {tuple(p - q for p, q in zip(u, lf)): Fraction(1, f.terms[lf])})
    b = MultiPoly(variables, {tuple(p - q for p, q in zip(u, lg)): Fraction(1, g.terms[lg])})
    return a * f - b * g


def reduced_basis_by_scan(gens, order):
    """Reduced monic Groebner basis, sorted by leading monomial, the
    textbook way in rational arithmetic: keep the basis interreduced
    with normal_form_by_scan, and add the first S-polynomial remainder
    that is not zero until there is none."""
    basis = _interreduce([g for g in gens if g], order)
    while True:
        for i in range(len(basis)):
            for j in range(i):
                r = normal_form_by_scan(spoly(basis[i], basis[j], order), basis, order)
                if r:
                    break
            else:
                continue
            break
        else:
            key = order_key(order)
            return sorted(basis, key=lambda g: key(max(g.terms, key=key)))
        basis = _interreduce(basis + [r], order)


def _interreduce(basis, order):
    """Replace an element by its remainder modulo the others, dropping
    zeros, until no element changes; then make each one monic."""
    i = 0
    while i < len(basis):
        others = basis[:i] + basis[i + 1:]
        r = normal_form_by_scan(basis[i], others, order)
        if r == basis[i]:
            i += 1
        else:
            basis = others + ([r] if r else [])
            i = 0
    key = order_key(order)
    return [g * Fraction(1, g.terms[max(g.terms, key=key)]) for g in basis]


def leading_exponents(basis, order):
    """Leading exponent of each polynomial of the basis, the largest
    term under order_key."""
    key = order_key(order)
    return [max(g.terms, key=key) for g in basis]


def poly_mul(a, b):
    """Product of two coefficient lists (index = degree); UniPoly has no
    arithmetic, so the oracles multiply, sum and evaluate lists."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_sum(terms):
    """Sum of c * p over pairs of a scalar c and a coefficient list p."""
    out = []
    for c, p in terms:
        out += [0] * (len(p) - len(out))
        for i, x in enumerate(p):
            out[i] += c * x
    return out


def poly_value(p, x):
    """Value at x of a coefficient list, by Horner's rule."""
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def divide_by_one_minus_t(p):
    """Exact division of a UniPoly by (1 - t), in Fraction arithmetic;
    requires p(1) == 0."""
    if poly_value(p.coeffs, 1) != 0:
        raise ValueError("not divisible by 1-t")
    # p = (1-t) q  =>  q_k = sum_{j<=k} p_j
    out = []
    acc = Fraction(0)
    for c in p.coeffs[:-1]:
        acc += c
        out.append(acc)
    return UniPoly(out)


@lru_cache(maxsize=None)
def binom_poly(shift, n):
    """The degree-n polynomial (T+shift)(T+shift-1)...(T+shift-n+1)/n!,
    as a UniPoly built from a product of Fraction coefficient lists.

    Takes the value C(k+shift, n) at integer T = k.  Memoised; a UniPoly
    is immutable.
    """
    if n < 0:
        raise ValueError("n must be a natural number")
    p = [Fraction(1, math.factorial(n))]
    for k in range(n):
        p = poly_mul(p, [shift - k, 1])
    return UniPoly(p)


def series_coefficient(q, D, k):
    """Coefficient of t^k in q(t)/(1-t)^D for a UniPoly q, as the sum of
    q_j C(k-j+D-1, D-1) over j <= k; q's own coefficient for D <= 0."""
    if D <= 0:
        return q.coefficient(k)
    return sum(q.coefficient(j) * math.comb(k - j + D - 1, D - 1) for j in range(k + 1))


def hilbert_function(data, k):
    """dim of the degree-k graded piece of HilbertData, read off its
    series numerator by series_coefficient; CrossCheckFailed unless it
    is a natural number."""
    if k < 0:
        return 0
    value = Fraction(series_coefficient(data.series_numerator, data.nvars, k))
    if value.denominator != 1 or value < 0:
        raise CrossCheckFailed("Hilbert function value %s in degree %d "
                               "is not a natural number" % (value, k))
    return int(value)


def hilbert_data_by_fractions(q, nvars):
    """(Hilbert polynomial, index of regularity) of the numerator q over
    (1-t)^nvars in Fraction arithmetic: the factors 1 - t divided out by
    divide_by_one_minus_t, leaving qbar over (1-t)^D; the polynomial
    sum_j qbar_j binom_poly(D-1-j, D-1), 0 for D <= 0; the regularity
    scanned down from len(qbar) while series_coefficient(qbar, D, k)
    equals p(k).  No numerator of a monomial ideal has D < 0; for one
    that does, the scan reads qbar's own coefficients."""
    qbar, D = q, nvars
    while qbar.coeffs and poly_value(qbar.coeffs, 1) == 0:
        qbar = divide_by_one_minus_t(qbar)
        D -= 1
    if not qbar.coeffs:
        return UniPoly(), 0
    p = poly_sum((c, binom_poly(D - 1 - j, D - 1).coeffs)
                 for j, c in enumerate(qbar.coeffs)) if D > 0 else []
    reg = len(qbar.coeffs)
    while reg > 0 and series_coefficient(qbar, D, reg - 1) == poly_value(p, reg - 1):
        reg -= 1
    return UniPoly(p), reg


def hilbert_numerator_by_inclusion_exclusion(exps):
    """Numerator Q(t) over (1-t)^nvars of S/L, L generated by the given
    exponent vectors: sum over all subsets S of them, the empty one
    included, of (-1)^|S| t^deg lcm(S), by inclusion-exclusion on the
    multiples of each generator."""
    coeffs = {}
    for r in range(len(exps) + 1):
        for subset in itertools.combinations(exps, r):
            degree = sum(map(max, zip(*subset))) if subset else 0
            coeffs[degree] = coeffs.get(degree, 0) + (-1) ** r
    return UniPoly([coeffs.get(k, 0) for k in range(max(coeffs) + 1)])


def standard_monomial_count(lts, nvars):
    """Number of exponent vectors in nvars variables that no vector of
    lts divides, by enumerating the box under the smallest pure power of
    each variable; INFINITE when some variable has no pure power."""
    bounds = []
    for v in range(nvars):
        pure = [e[v] for e in lts if all(x == 0 for i, x in enumerate(e) if i != v)]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    return sum(1 for exp in itertools.product(*(range(b) for b in bounds))
               if not any(all(a <= b for a, b in zip(lt, exp)) for lt in lts))


def substituted_derivatives(f, L, x):
    """Gradient and Hessian of f(L z) at z = L^-1 x, by substituting
    x_i = sum_k L[i][k] z_k into f symbolically and differentiating the
    substituted polynomial."""
    from hilbertpoly.linalg import solve

    n = len(L) - 1
    zvars = tuple("z%d" % i for i in range(n + 1))
    lin = {f.variables[i]: sum((L[i][k] * MultiPoly.variable(zvars, zvars[k])
                                for k in range(n + 1)), MultiPoly(zvars, {}))
           for i in range(n + 1)}
    fz = substitute(f, lin)
    if not isinstance(fz, MultiPoly):  # a constant f substitutes to a Fraction
        fz = MultiPoly.constant(zvars, fz)
    z = [row[0] for row in solve(L, [[v] for v in x])]
    grad = [fz.partial(v).eval_point(z) for v in zvars]
    hess = [[fz.partial(v).partial(w).eval_point(z) for w in zvars] for v in zvars]
    return grad, hess


def input_condition_at(inst, x):
    """Rank of the Jacobian at a zero is at least n-m (the kernel is at
    most (m+1)-dimensional)."""
    return linalg.rank(jacobian_at(inst, _zero(inst, x))) >= inst.n - inst.m


def dimension_jumps(A, flag):
    """Jump positions sigma from the raw dimension counts dim(A cap F_j),
    computed by ranks of stacked spans (no charts involved)."""
    n, m = flag.n, A.dim
    cols = linalg.transpose(flag.basis)
    span = [list(r) for r in A.span_matrix]
    sigma = []
    want = 1
    for j in range(n + 1):
        rk = linalg.rank(span + cols[:j + 1])
        cone_dim = (m + 1) + (j + 1) - rk
        if cone_dim >= want and len(sigma) <= m:
            sigma.append(j)
            want += 1
    if len(sigma) != m + 1:
        raise CrossCheckFailed("intersection dimensions did not reach m+1")
    return tuple(sigma)


def partition_from_jumps(sigma, n, m):
    """Inverse of jumps."""
    return Partition(sorted((n - m + i - sigma[i] for i in range(m + 1)), reverse=True))


def cell_partition_of(A, flag):
    """The unique admissible mu with A in e_mu(flag)."""
    n, m = flag.n, A.dim
    return partition_from_jumps(dimension_jumps(A, flag), n, m)


def in_schubert_variety(A, flag, lam):
    """Omega_lam membership: dim(A cap F_{sigma_i}) >= i for all i."""
    n, m = flag.n, A.dim
    sigma = jumps(lam, n, m)
    cols = linalg.transpose(flag.basis)
    span = [list(r) for r in A.span_matrix]
    for i, s in enumerate(sigma):
        rk = linalg.rank(span + cols[:s + 1])
        if (m + 1) + (s + 1) - rk < i + 1:
            return False
    return True


def conjugate(lam):
    """Transpose of the Young diagram."""
    if not lam.parts:
        return Partition()
    cols = [0] * lam.parts[0]
    for p in lam.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def contains(lam, mu):
    """True when mu fits inside lam componentwise (zero-padded)."""
    n = max(lam.length, mu.length)
    return all(mu.part(i) <= lam.part(i) for i in range(1, n + 1))


class TruncSeries:
    """Univariate power series over Q truncated modulo h^K (order K, K
    coefficients).  Mixing different orders in one operation is an
    error; truncation is never silent."""

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != order:
            raise ValueError("need exactly %d coefficients, got %d" % (order, len(coeffs)))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, order, coeffs):
        """Build from at most `order` leading coefficients, zero-padded."""
        coeffs = list(coeffs)
        if len(coeffs) > order:
            raise ValueError("coefficient list longer than order; truncate explicitly")
        return cls(order, coeffs + [0] * (order - len(coeffs)))

    @classmethod
    def truncated(cls, order, coeffs):
        """Build by explicitly discarding coefficients past the order."""
        return cls.from_coeffs(order, list(coeffs)[:order])

    @classmethod
    def zero(cls, order):
        return cls(order, [0] * order)

    @classmethod
    def one(cls, order):
        return cls.monomial(order, 0)

    @classmethod
    def monomial(cls, order, i, c=1):
        """The series c * h^i (zero when i >= order)."""
        coeffs = [0] * order
        if i < order:
            coeffs[i] = c
        return cls(order, coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def _coerce(self, other):
        if isinstance(other, TruncSeries):
            if other.order != self.order:
                raise ValueError("truncation order mismatch: %d vs %d"
                                 % (self.order, other.order))
            return other
        if isinstance(other, (int, Fraction)):
            return TruncSeries.monomial(self.order, 0, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        K = self.order
        out = [Fraction(0)] * K
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(K - i):
                    out[i + j] += a * other.coeffs[j]
        return TruncSeries(K, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, TruncSeries)
                and self.order == other.order and self.coeffs == other.coeffs)

    def __repr__(self):
        return "TruncSeries(%d, %r)" % (self.order, [str(c) for c in self.coeffs])


def series_inverse(s):
    """Multiplicative inverse of a truncated series modulo h^K; needs a
    nonzero constant term."""
    if not s.coeffs[0]:
        raise ValueError("series with zero constant term is not invertible")
    K = s.order
    inv = [Fraction(1) / s.coeffs[0]]
    for k in range(1, K):
        acc = sum(s.coeffs[j] * inv[k - j] for j in range(1, k + 1))
        inv.append(-acc / s.coeffs[0])
    return TruncSeries(K, inv)


def series_exp(s):
    """exp of a truncated series with zero constant term."""
    if s.coeffs[0]:
        raise ValueError("exp needs a zero constant term")
    result = TruncSeries.one(s.order)
    term = TruncSeries.one(s.order)
    for k in range(1, s.order):
        term = term * s * Fraction(1, k)
        result = result + term
    return result


def series_pow(s, n):
    """s^n for a truncated series s and a natural number n, by repeated
    squaring."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a natural number")
    result = TruncSeries.one(s.order)
    base = s
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def substitute(f, mapping):
    """Substitute every variable of the polynomial f by a value from any
    commutative ring: Fractions, truncated series or polynomials.  The
    result lives in the ring of the values (a plain Fraction when f is
    constant or zero)."""
    missing = [v for v in f.variables if v not in mapping]
    if missing:
        raise ValueError("no substitution value for %r" % missing)
    total = Fraction(0)
    for exp, c in f.terms.items():
        t = c
        for name, e in zip(f.variables, exp):
            if e:
                v = mapping[name]
                t = t * (series_pow(v, e) if isinstance(v, TruncSeries) else math.prod([v] * e))
        total = total + t
    return total


def rref_by_fractions(rows):
    """Reduced row echelon form and pivot columns by Gauss-Jordan
    elimination in Fraction arithmetic: scale each pivot row to a leading
    1, then clear its column in every other row."""
    a = [[Fraction(x) for x in row] for row in rows]
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
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


@lru_cache(maxsize=None)
def todd_terms(m):
    """The pairs (lam, Delta_{lam'}(b)) over |lam| = m whose coefficient
    Delta_{lam'}(b) is nonzero, in enumerate_partitions order."""
    terms = ((lam, delta_b(conjugate(lam))) for lam in enumerate_partitions(m))
    return tuple((lam, coeff) for lam, coeff in terms if coeff)


def todd_value(m, c):
    """T_m(c_1..c_m) at the rational sequence c = (1, c_1, ..., c_m, ...),
    by the determinantal formula
    T_m = sum over |lam| = m of Delta_{lam'}(b) Delta_lam(c)."""
    if m == 0:
        return c[0]
    total = 0
    for lam, coeff in todd_terms(m):
        total = total + coeff * delta_det(lam, c)
    return total


def chern_classes_by_series(ci):
    """The total Chern classes (cone normal, cone tangent, tangent) of a
    complete intersection as truncated series, by Fraction series
    products and series inverses: prod (1 + (d_i-1) h), its inverse, and
    the adjunction (1+h)^(n+1) / prod (1 + d_i h)."""
    K = ci.m + 1
    normal = TruncSeries.one(K)
    den = TruncSeries.one(K)
    for d in ci.degrees:
        normal = normal * TruncSeries.truncated(K, [1, d - 1])
        den = den * TruncSeries.truncated(K, [1, d])
    num = TruncSeries(K, [math.comb(ci.n + 1, i) for i in range(K)])
    return normal, series_inverse(normal), num * series_inverse(den)


def euler_char_twist(ci, d):
    """chi(O_V(d)) = deg((e^{dh} td V)_m cap [V]); always an integer."""
    K = ci.m + 1
    expo = series_exp(TruncSeries.monomial(K, 1, d))
    value = (expo * TruncSeries(K, todd_class(ci)))[ci.m] * ci.degree
    if value.denominator != 1:
        raise CrossCheckFailed("non-integral Euler characteristic %s" % value)
    return int(value)


def delta_coeffs_by_cauchy_binet(m, mu):
    """delta^{m,k}_mu for k = 0..m-|mu|, all from one determinant over
    Q[[q]]/(q^(m+1)): (-1)^|mu| [q^(m-k)] det A_mu(q), where
    A_mu(q)_{j,c} = sum_u b_u C(u+m-j+1, mu_c+m-c+1) q^u for j, c = 1..m
    (Cauchy-Binet on the sum over lam of Delta_lam(b) d^m_{lam,mu}).
    The b_u come from series inversion."""
    K = m + 1
    b = b_prefix_by_inversion(K)
    rows = [[TruncSeries(K, [b[u] * math.comb(u + m - j + 1, mu.part(c) + m - c + 1)
                             for u in range(K)])
             for c in range(1, m + 1)]
            for j in range(1, m + 1)]
    det = ring_det(rows, TruncSeries.one(K))
    return [(-1) ** mu.size * det[m - k] for k in range(m - mu.size + 1)]


def dual_sequence(c):
    """The sequence c^v with c^v_i = (-1)^i c_i."""
    return tuple(v if i % 2 == 0 else -v for i, v in enumerate(c))


def complete_homogeneous_values(gamma, upto):
    """h_0..h_upto evaluated at the points gamma, via the product rule
    H_j(k) = H_{j-1}(k) + gamma_j H_j(k-1)."""
    h = [Fraction(1)] + [Fraction(0)] * upto
    for g in gamma:
        for k in range(1, upto + 1):
            h[k] += g * h[k - 1]
    return h


def elementary_symmetric_values(gamma, upto):
    """e_0..e_upto evaluated at the points gamma (zero past len(gamma))."""
    e = [Fraction(1)] + [Fraction(0)] * upto
    for g in gamma:
        for k in range(min(upto, len(gamma)), 0, -1):
            e[k] += g * e[k - 1]
    return e


def schur_eval(lam, gamma):
    """Value of the Schur polynomial s_lam at rational points gamma.

    Uses the bialternant quotient when the points are pairwise
    distinct, otherwise Jacobi-Trudi on complete homogeneous values.
    The standard extension to any lam of length <= len(gamma) is used.
    """
    gamma = [Fraction(g) for g in gamma]
    m = len(gamma)
    if lam.length > m:
        raise ValueError("partition longer than the number of points")
    if len(set(gamma)) == m:
        num = [[gamma[i] ** (lam.part(j + 1) + m - 1 - j) for j in range(m)]
               for i in range(m)]
        den = [[gamma[i] ** (m - 1 - j) for j in range(m)] for i in range(m)]
        return linalg.det(num) / linalg.det(den)
    upto = lam.part(1) + lam.length
    h = tuple(complete_homogeneous_values(gamma, max(upto, 1)))
    return delta_det(lam, h)


@dataclass(frozen=True)
class GradedMatrix:
    """Matrix of homogeneous polynomials presenting a graded morphism
    (+)_j S(e_j) -> (+)_i S(d_i); deg p_ij = d_i - e_j when p_ij != 0."""

    entries: tuple        # rows of MultiPoly
    row_degrees: tuple    # d_i
    col_degrees: tuple    # e_j

    def __post_init__(self):
        if len(self.entries) != len(self.row_degrees):
            raise ValueError("row count mismatch")
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_degrees):
                raise ValueError("column count mismatch")
            for j, p in enumerate(row):
                if not p:
                    continue
                d = p.is_homogeneous()
                if d is None or d is ANY_DEGREE:
                    raise ValueError("entry (%d,%d) not homogeneous" % (i, j))
                if d != self.row_degrees[i] - self.col_degrees[j]:
                    raise ValueError("entry (%d,%d) has degree %d, expected %d"
                                     % (i, j, d, self.row_degrees[i] - self.col_degrees[j]))


def ideal_to_graded_matrix(gens):
    """1-row presentation of S/I for I = (f_1..f_r): column degrees -deg f_j."""
    col_degrees = []
    for g in gens:
        d = g.is_homogeneous()
        if d is None or d is ANY_DEGREE:
            raise ValueError("generators must be non-zero homogeneous")
        col_degrees.append(-d)
    return GradedMatrix(entries=(tuple(gens),), row_degrees=(0,),
                        col_degrees=tuple(col_degrees))


def euler_quotient(gm, d, variables=None, **caps):
    """chi of the d-th twist of the cokernel sheaf, for 1-row matrices:
    equals the Hilbert polynomial of S/(entries) evaluated at d.

    A presentation with no columns is the full ring; it needs an
    explicit variable list since none can be read off the entries.
    """
    if len(gm.entries) != 1:
        raise ValueError("only 1-row graded matrices are supported")
    gens = [p for p in gm.entries[0] if p]
    if gens:
        variables = gens[0].variables
    elif variables is None:
        raise ValueError("empty presentation needs an explicit variable list")
    ideal = HomIdeal.from_polys(variables, gens)
    value = poly_value(hilbert_data(ideal, **caps).hilbert_polynomial.coeffs, d)
    if value.denominator != 1:
        raise CrossCheckFailed("Euler characteristic %s of twist %d is not an "
                               "integer" % (value, d))
    return int(value)


def interpolate(points, degree_bound):
    """Unique polynomial of degree <= degree_bound through the points.

    Needs at least degree_bound+1 distinct nodes; extra points must be
    consistent with the interpolant or a ValueError is raised.
    """
    seen = {}
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        if x in seen and seen[x] != y:
            raise ValueError("conflicting values at node %s" % x)
        seen[x] = y
    if len(seen) < degree_bound + 1:
        raise ValueError("need %d distinct nodes, got %d"
                         % (degree_bound + 1, len(seen)))
    nodes = sorted(seen)[:degree_bound + 1]
    poly = []
    for xi in nodes:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj in nodes:
            if xj == xi:
                continue
            basis = poly_mul(basis, [-xj, 1])
            denom *= xi - xj
        poly = poly_sum([(1, poly), (seen[xi] / denom, basis)])
    for x, y in seen.items():
        if poly_value(poly, x) != y:
            raise ValueError("points are not on a degree-%d polynomial" % degree_bound)
    return UniPoly(poly)


def dimacs_text(phi):
    """DIMACS text of a CnfFormula, which parse_dimacs reads back."""
    out = ["p cnf %d %d" % (phi.num_vars, len(phi.clauses))]
    for clause in phi.clauses:
        out.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(out) + "\n"


def generic_ci_ideal(ci, seed=0, coeff_bound=5):
    """Explicit dense homogeneous forms of the prescribed degrees with
    pseudo-random small integer coefficients (pinned by seed)."""
    rng = random.Random(seed)
    variables = tuple("x%d" % i for i in range(ci.n + 1))
    gens = []
    for d in ci.degrees:
        terms = {}
        for e in monomials_of_degree(ci.n + 1, d):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[e] = Fraction(c)
        if not terms:
            terms[(d,) + (0,) * ci.n] = Fraction(1)
        gens.append(MultiPoly(variables, terms))
    return HomIdeal.from_polys(variables, gens)
