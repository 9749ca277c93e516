"""Independent reference computations used only by the test suite.

These deliberately avoid the code paths they check: the b-sequence
comes from long division of power series, the Todd polynomials from
the graded parts of a product of one-variable series rewritten in the
elementary symmetric basis, determinants over any commutative ring
(truncated series, polynomials) from a division-free expansion over
column subsets, the zero count of a staircase from the box
under its pure powers, the derivatives of a polynomial in adapted
coordinates from substituting the change of coordinates symbolically,
and the reduced row echelon form from Gauss-Jordan elimination in
Fraction arithmetic."""

import itertools
import math
from fractions import Fraction

from hilbertpoly.arith import MultiPoly, TruncSeries
from hilbertpoly.grobner import INFINITE


def b_prefix_by_inversion(K):
    """b_0..b_{K-1} from inverting (1 - e^{-t})/t = sum (-1)^i t^i/(i+1)!."""
    g = TruncSeries(K, [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(K)])
    return list(g.inverse().coeffs)


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
    es = [MultiPoly.constant(tvars, 1)] + [MultiPoly.zero(tvars)] * m
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
    out = MultiPoly.zero(cvars)
    while work:
        lead = max(work.terms)  # tuple comparison = lex with t1 > t2 > ...
        coeff = work.terms[lead]
        assert all(lead[i] >= lead[i + 1] for i in range(m - 1)), lead
        cexp = [0] * len(cvars)
        eprod = MultiPoly.constant(tvars, 1)
        for i in range(m):
            mult = lead[i] - (lead[i + 1] if i + 1 < m else 0)
            if mult:
                cexp[i] = mult
                eprod = eprod * es[i + 1] ** mult
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
        fi = MultiPoly.zero(tvars)
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


def normal_form_by_scan(f, divisors, order):
    """Remainder of f under full division by the divisors, the textbook
    way: scan the whole remainder for its largest term under order.key,
    then divide by the first divisor whose leading monomial divides it."""
    variables = f.variables
    leads = [(max(g.terms, key=order.key), g) for g in divisors if g]
    work = f
    rem = MultiPoly.zero(variables)
    while work:
        exp = max(work.terms, key=order.key)
        term = MultiPoly(variables, {exp: work.terms[exp]})
        for lt, g in leads:
            if all(a <= b for a, b in zip(lt, exp)):
                shift = tuple(b - a for a, b in zip(lt, exp))
                quot = MultiPoly(variables, {shift: work.terms[exp] / g.terms[lt]})
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
    lf = max(f.terms, key=order.key)
    lg = max(g.terms, key=order.key)
    u = tuple(max(a, b) for a, b in zip(lf, lg))
    a = MultiPoly(variables, {tuple(p - q for p, q in zip(u, lf)): 1 / f.terms[lf]})
    b = MultiPoly(variables, {tuple(p - q for p, q in zip(u, lg)): 1 / g.terms[lg]})
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
            return sorted(basis, key=lambda g: order.key(max(g.terms, key=order.key)))
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
    return [g * (1 / g.terms[max(g.terms, key=order.key)]) for g in basis]


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
                                for k in range(n + 1)), MultiPoly.zero(zvars))
           for i in range(n + 1)}
    fz = substitute(f, lin)
    if not isinstance(fz, MultiPoly):  # a constant f substitutes to a Fraction
        fz = MultiPoly.constant(zvars, fz)
    z = solve(L, list(x))
    grad = [fz.partial(v).eval_point(z) for v in zvars]
    hess = [[fz.partial(v).partial(w).eval_point(z) for w in zvars] for v in zvars]
    return grad, hess


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
                t = t * (series_pow(v, e) if isinstance(v, TruncSeries) else v ** e)
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
