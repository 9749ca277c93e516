"""Classical commutative-algebra oracle: Buchberger Groebner bases,
normal forms, Hilbert series and polynomials of homogeneous ideals,
zero-dimensional solution counting, and ideal membership.

Conventions
-----------
* Default order is grevlex (smaller bases in practice); lex is
  available for elimination-style work.  hilbert_data without an order
  picks one from its generators (_revlex_order): grevlex with x_j
  ranked last when, for every other variable x_k, some generator
  restricted to x_j = 0 is c * x_k^d (c != 0, d >= 1), which proves
  that the hyperplane x_j = 0 holds no zero of I; plain grevlex when no
  variable has such a proof.  The caps count the run under the order
  it picked.
* hilbert_data and count_zero_dim need only the leading-term ideal:
  they read its minimal generators off Buchberger's run
  (minimal_leads) and reduce no tail.  buchberger and GrobnerBasis
  return the reduced basis.
* For a possibly non-radical input ideal I the Hilbert data computed is
  that of S/I as given, not of the vanishing ideal of its zero set.
* count_zero_dim counts points with multiplicity (vector-space
  dimension of the quotient); with generic data that is the geometric
  count.  It reads the count off the Hilbert-series numerator of the
  leading-term ideal, the integer series the Hilbert data comes from.
* Inside the Groebner core and the Hilbert-series recursion an exponent
  vector is one Python int (_Packing): fields with a guard bit each,
  laid out so that integer comparison is the monomial order.  Products
  and quotients are + and -, divisibility is a guard-bit test, and the
  normal form takes its next term, the largest left, from a heap of
  negated ints.  Tuples appear only where MultiPoly terms go in and come
  out.
* The field width is derived from the input degrees.  A guard bit is
  checked at every pack, every grevlex lcm and every new term; an
  overflow reruns the whole call at twice the width, so no exponent is
  ever wrapped and the result does not depend on the width.
* The Groebner core works on primitive integer polynomials (content 1,
  positive leading coefficient) and reduces fraction-free; only the
  bases and remainders it returns are rational, and Groebner bases are
  returned reduced and monic.
* Buchberger selects critical pairs by the Gebauer-Moeller update:
  criterion B prunes the old pairs when an element arrives, criteria M
  and F keep one new pair per minimal lcm, and no pair is formed with
  an element whose lead a later lead divides.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .arith import ANY_DEGREE, CrossCheckFailed, MultiPoly, UniPoly, binom_poly, parse_poly


class ResourceCapExceeded(RuntimeError):
    """A configured basis-size or degree cap was hit mid-computation."""


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative well-order on monomials.

    kind is "grevlex" or "lex"; ranking optionally permutes variable
    priority (indices listed from most to least significant).
    """

    kind: str = "grevlex"
    ranking: tuple = None

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError("unknown order %r" % self.kind)

    def key(self, exp):
        if self.ranking is not None:
            exp = tuple(exp[i] for i in self.ranking)
        if self.kind == "lex":
            return tuple(exp)
        return (sum(exp), tuple(-e for e in reversed(exp)))


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


class _FieldOverflow(Exception):
    """A packed exponent outgrew its field; the run starts over wider."""


class _Packing:
    """Exponent vectors in nvars variables packed into Python ints whose
    integer order is the monomial order (Bachmann & Schoenemann, ISSAC
    1998).

    Each field holds bits value bits under one guard bit, clear in every
    valid monomial.  Lex puts the exponents in ranking order, the most
    significant in the top field.  Grevlex puts e_1..e_n, the exponents
    in ranking order, in the low n fields and the weight sums
    S_k = e_1 + ... + e_k in the n fields above them, S_n (the degree)
    on top: comparing S_n, S_{n-1}, ..., S_1 is comparing the degree and
    then the last exponents, smaller first.

    For valid a and b, a + b is the product; a divides b exactly when
    (b - a) & guard is 0, and b - a is then the quotient; a and b are
    coprime exactly when lcm(a, b) == a + b.  A field of a + b or of an
    lcm is less than twice the limit, so it cannot spill into the next
    field, and its guard bit shows whether it overflowed.
    """

    def __init__(self, order, nvars, bits):
        self.bits = bits
        self.grevlex = order.kind == "grevlex"
        w = bits + 1
        field_of = [0] * nvars
        for k, v in enumerate(range(nvars) if order.ranking is None else order.ranking):
            field_of[v] = k if self.grevlex else nvars - 1 - k
        self.shifts = tuple(w * f for f in field_of)
        nfields = 2 * nvars if self.grevlex else nvars
        low = sum(1 << w * f for f in range(nvars))  # a 1 in each exponent field
        self.exp_guard = low << bits
        self.guard = sum(1 << w * f + bits for f in range(nfields))
        self.ones = low * ((1 << bits) - 1)
        self.exp_mask = (1 << w * nvars) - 1
        # times the exponent fields, this puts e_1 + ... + e_k into the
        # field of S_k, and partial sums above S_n that sums_mask drops
        self.sums_mul = low << w * nvars
        self.sums_mask = self.exp_mask << w * nvars
        self.top = w * max(nfields - 1, 0)

    def pack(self, exp):
        if (sum(exp) if self.grevlex else max(exp, default=0)) >> self.bits:
            raise _FieldOverflow
        p = 0
        for e, s in zip(exp, self.shifts):
            p += e << s
        if self.grevlex:
            p += (p * self.sums_mul) & self.sums_mask
        return p

    def unpack(self, p):
        mask = (1 << self.bits) - 1
        return tuple((p >> s) & mask for s in self.shifts)

    def degree(self, p):
        return p >> self.top if self.grevlex else sum(self.unpack(p))

    def lcm(self, a, b):
        """Field-wise max of the exponents: the guard of each field of
        (a | guard) - b stays set where a's exponent is the larger."""
        t = ((a | self.exp_guard) - b) & self.exp_guard
        u = b ^ ((a ^ b) & (t - (t >> self.bits)))
        if self.grevlex:
            u &= self.exp_mask
            u += (u * self.sums_mul) & self.sums_mask
            if u & self.guard:
                raise _FieldOverflow
        return u


def _bits_for(degree):
    """Value bits of a field that holds the product of two monomials of
    the given degree, and at least 8."""
    return max(8, degree.bit_length() + 1)


def _packed(order, polys, run, *args):
    """run(packing, *args) with fields that hold the product of any two
    terms of the polys, twice as wide each time a field overflows: the
    arithmetic is exact, so a rerun gives the same result."""
    bits = _bits_for(max((sum(e) for f in polys for e in f.terms), default=0))
    while True:
        try:
            return run(_Packing(order, len(polys[0].variables), bits), *args)
        except _FieldOverflow:
            bits *= 2


# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class HomIdeal:
    """Ideal given by generators; homogeneous flag is verified, not trusted."""

    variables: tuple
    generators: tuple
    homogeneous: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        gens = []
        for g in self.generators:
            if g.variables != self.variables:
                raise ValueError("generator over wrong variables")
            if g:
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))
        hom = all(g.is_homogeneous() is not None for g in gens)
        object.__setattr__(self, "homogeneous", hom)

    @classmethod
    def from_polys(cls, variables, polys):
        return cls(tuple(variables), tuple(polys))


def parse_ideal_file(text):
    """Ideal file format: first line ``vars: x0 x1 ...``, one polynomial
    per line after that.  Blank lines and ``#`` comments are skipped."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise ValueError("ideal file must start with a 'vars:' line")
    variables = tuple(lines[0][len("vars:"):].split())
    if not variables:
        raise ValueError("empty variable list")
    if len(set(variables)) != len(variables):
        raise ValueError("repeated variable name in %r" % lines[0])
    polys = tuple(parse_poly(ln, variables) for ln in lines[1:])
    return HomIdeal.from_polys(variables, polys)


def ideal_file_text(ideal):
    out = ["vars: " + " ".join(ideal.variables)]
    out.extend(g.to_text() for g in ideal.generators)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Buchberger


def _clear_denominators(f):
    """(integer term dict, d) with the dict equal to d*f, d > 0 the
    least common denominator of f's coefficients."""
    d = math.lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (d // c.denominator) for e, c in f.terms.items()}, d


def _primitive(terms, lt):
    """Integer term dict divided by its content, signed so that the
    coefficient of lt is positive."""
    g = math.gcd(*terms.values())
    if terms[lt] < 0:
        g = -g
    if g == 1:
        return terms
    return {e: c // g for e, c in terms.items()}


def _primitive_form(f, pk):
    """Nonzero f as a primitive integer term dict on packed exponents,
    and its leading exponent."""
    terms, _ = _clear_denominators(f)
    terms = {pk.pack(e): c for e, c in terms.items()}
    lt = max(terms)
    return _primitive(terms, lt), lt


def _reducer(terms, lt, pk):
    """Integer term dict with leading exponent lt, as _normal_form and
    _spoly take it: lt, its coefficient, the other terms and the
    packing."""
    return lt, terms[lt], [(e, c) for e, c in terms.items() if e != lt], pk


def _spoly(ri, rj):
    """S-polynomial of two _reducer, fraction-free: the term dict of
    (l/lc_i)*u_i*f_i - (l/lc_j)*u_j*f_j with l = lcm(lc_i, lc_j) and u_i,
    u_j the cofactors of the leads in their lcm.  The leads cancel and
    are left out."""
    lti, lci, taili, pk = ri
    ltj, lcj, tailj, _ = rj
    u = pk.lcm(lti, ltj)
    l = math.lcm(lci, lcj)
    a, shift = l // lci, u - lti
    terms = {shift + e: a * c for e, c in taili}
    b, shift = l // lcj, u - ltj
    for e, c in tailj:
        e += shift
        v = terms.get(e, 0) - b * c
        if v:
            terms[e] = v
        else:
            del terms[e]
    guard = pk.guard
    if any(e & guard for e in terms):
        raise _FieldOverflow
    return terms


def _normal_form(fterms, reducers, guard):
    """Fraction-free full reduction of an integer term dict against a
    list of _reducer.  Returns (remainder, scale): the remainder is an
    integer term dict, its terms largest first, equal to scale > 0 times
    the exact rational remainder of the same division.

    A term c*m is removed with the first reducer whose lead divides m:
    with g = gcd(c, lc), the remainder so far is multiplied by lc/g and
    (c/g)*shift*tail is subtracted, so the leads cancel without
    division.  A reducer with lc = 1 never scales.

    Every term a reduction adds is smaller than the term it removes, so
    a term once popped from the heap never comes back.  The heap holds
    the negated packed exponents, so it pops the largest first.  An
    exponent is pushed when it enters work; an entry whose exponent has
    since cancelled out of work is skipped when popped.
    """
    work = dict(fterms)
    heap = [-e for e in work]
    heapq.heapify(heap)
    out = {}
    scale = 1
    while heap:
        exp = -heapq.heappop(heap)
        coeff = work.pop(exp, None)
        if not coeff:
            continue
        for lt, lc, tail, _ in reducers:
            shift = exp - lt
            if not shift & guard:
                break
        else:
            out[exp] = coeff
            continue
        if lc != 1:
            g = math.gcd(coeff, lc)
            if g != lc:
                a = lc // g
                work = {e: a * c for e, c in work.items()}
                out = {e: a * c for e, c in out.items()}
                scale *= a
            coeff //= g
        for e2, c2 in tail:
            e = shift + e2
            old = work.get(e)
            if old is None:
                if e & guard:
                    raise _FieldOverflow
                work[e] = -coeff * c2
                heapq.heappush(heap, -e)
                continue
            v = old - coeff * c2
            if v:
                work[e] = v
            else:
                del work[e]
    return out, scale


def normal_form(f, basis_polys, order=GREVLEX):
    """Remainder of f under full division by the given polynomials."""
    divisors = [g for g in basis_polys if g]
    return _packed(order, [f] + divisors, _packed_normal_form, f, divisors)


def _packed_normal_form(pk, f, divisors):
    reducers = [_reducer(*_primitive_form(g, pk), pk) for g in divisors]
    terms, d = _clear_denominators(f)
    out, scale = _normal_form({pk.pack(e): c for e, c in terms.items()}, reducers, pk.guard)
    d *= scale
    return MultiPoly(f.variables, {pk.unpack(e): Fraction(c, d) for e, c in out.items()})


def buchberger(generators, order=GREVLEX, max_basis=None, max_degree=None):
    """Reduced Groebner basis of the given generators.

    Pairs are handled by the Gebauer-Moeller update (Gebauer & Moeller,
    JSC 1988; Becker-Weispfenning's UPDATE).  Each element t, input
    generator or new remainder alike, enters through update(t):
    criterion B deletes the live pairs it makes redundant, criteria M
    and F keep one new pair per minimal lcm, a minimal lcm whose group
    holds a coprime pair (Buchberger's first criterion) gets none, and
    t retires from the active set every element whose lead its lead
    divides.  Only active elements get new pairs; every element stays a
    reducer.

    Resource caps abort with ResourceCapExceeded instead of exhausting
    memory.  max_basis bounds the number of elements the run holds: the
    generators plus every remainder it adds, retired ones included.

    Each element lists its terms largest first, so its lead is the
    first key of its terms.
    """
    generators = [g for g in generators if g]
    if not generators:
        return []
    return _packed(order, generators, _reduced_basis, generators, max_basis, max_degree)


def _reduced_basis(pk, generators, max_basis, max_degree):
    return _autoreduce(*_buchberger(pk, generators, max_basis, max_degree),
                       pk, generators[0].variables)


def minimal_leads(generators, order=GREVLEX, max_basis=None, max_degree=None):
    """Exponent vectors of the minimal generators of the leading-term
    ideal in(I), ascending in the order: the leads of the reduced
    Groebner basis, read off buchberger's run without reducing any tail.
    The caps are buchberger's."""
    generators = [g for g in generators if g]
    if not generators:
        return []
    return _packed(order, generators, _minimal_leads, generators, max_basis, max_degree)


def _minimal_leads(pk, generators, max_basis, max_degree):
    _, lts, _, active = _buchberger(pk, generators, max_basis, max_degree)
    return [pk.unpack(lts[k]) for k in _minimal_active(lts, active, pk.guard)]


def _buchberger(pk, generators, max_basis, max_degree):
    """A Groebner basis (G, lts, reducers, active): primitive integer term
    dicts, their leading exponents, the matching list of _reducer, and
    the elements whose lead no later lead divides."""
    G, lts = map(list, zip(*(_primitive_form(g, pk) for g in generators)))
    reducers = [_reducer(g, lt, pk) for g, lt in zip(G, lts)]
    guard, lcm = pk.guard, pk.lcm

    def check_caps(terms):
        if max_degree is not None and max(map(pk.degree, terms)) > max_degree:
            raise ResourceCapExceeded("degree exceeded %d" % max_degree)
        if max_basis is not None and len(G) > max_basis:
            raise ResourceCapExceeded("basis size exceeded %d" % max_basis)

    heap = []
    # (i, j) -> lcm of the leads for each pair still to reduce; a popped
    # heap entry whose pair is gone is skipped
    live = {}
    active = []  # elements whose lead no later lead divides

    def update(t):
        lt = lts[t]
        # criterion B: lt | lcm(i, j) and lcm(i, j) is neither lcm(t, i)
        # nor lcm(t, j), so the pairs (t, i) and (t, j) cover (i, j)
        dead = [ij for ij, u in live.items()
                if not (u - lt) & guard
                and lcm(lt, lts[ij[0]]) != u and lcm(lt, lts[ij[1]]) != u]
        for ij in dead:
            del live[ij]
        # new pairs grouped by lcm: [first k, whether some pair of the
        # group is coprime]
        groups = {}
        for k in active:
            u = lcm(lt, lts[k])
            group = groups.get(u)
            if group is None:
                groups[u] = [k, u == lt + lts[k]]
            elif u == lt + lts[k]:
                group[1] = True
        # criteria M and F: keep only the minimal lcms; a proper divisor
        # is a smaller monomial, so it is kept before its multiples
        kept = []
        for u in sorted(groups):
            if any(not (u - v) & guard for v in kept):
                continue
            kept.append(u)
            k, coprime = groups[u]
            if not coprime:
                live[t, k] = u
                heapq.heappush(heap, (u, t, k))
        active[:] = [k for k in active if (lts[k] - lt) & guard]
        active.append(t)

    for g in G:
        check_caps(g)
    for t in range(len(G)):
        update(t)
    while heap:
        _, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        r, _ = _normal_form(_spoly(reducers[i], reducers[j]), reducers, guard)
        if not r:
            continue
        t = len(G)
        lts.append(max(r))
        G.append(_primitive(r, lts[t]))
        reducers.append(_reducer(G[t], lts[t], pk))
        check_caps(G[t])
        update(t)
    return G, lts, reducers, active


def _minimal_active(lts, active, guard):
    """The active elements that hold the minimal leads, one per lead,
    sorted by lead.

    Every minimal lead is held by an active element, and no two active
    leads are equal (a newcomer retires an equal lead), so dropping the
    active elements whose lead another active lead divides leaves
    exactly one element per minimal lead."""
    return sorted((i for i in active
                   if all(j == i or (lts[i] - lts[j]) & guard for j in active)),
                  key=lts.__getitem__)


def _autoreduce(G, lts, reducers, active, pk, variables):
    """Reduced monic basis over Q, sorted by lead, each element's terms
    largest first, from _buchberger's Groebner basis."""
    guard = pk.guard
    keep = _minimal_active(lts, active, guard)
    reducers = [reducers[i] for i in keep]
    # fully reduce each survivor against the others; its lead survives
    out = []
    for i, k in enumerate(keep):
        others = reducers[:i] + reducers[i + 1:]
        # _normal_form moves terms to r largest first, and no other lead
        # divides lts[k], so the lead is r's first key
        r, _ = _normal_form(G[k], others, guard)
        if next(iter(r), None) != lts[k]:
            raise CrossCheckFailed("reduced basis element lost its lead")
        lc = r[lts[k]]
        out.append(MultiPoly(variables, {pk.unpack(e): Fraction(c, lc) for e, c in r.items()}))
    return out


@dataclass(frozen=True)
class GrobnerBasis:
    """Reduced, monic, auto-reduced basis under a fixed monomial order."""

    order: MonomialOrder
    elements: tuple

    @classmethod
    def of(cls, ideal_or_polys, order=GREVLEX, max_basis=None, max_degree=None):
        polys = (ideal_or_polys.generators
                 if isinstance(ideal_or_polys, HomIdeal) else tuple(ideal_or_polys))
        basis = buchberger(polys, order, max_basis=max_basis, max_degree=max_degree)
        return cls(order=order, elements=tuple(basis))

    def normal_form(self, f):
        return normal_form(f, self.elements, self.order)

    def contains(self, f):
        return not self.normal_form(f)


def in_ideal(f, ideal, order=GREVLEX, **caps):
    """Membership by normal form against a reduced basis."""
    return GrobnerBasis.of(ideal, order, **caps).contains(f)


# ---------------------------------------------------------------------------
# Hilbert series / function / polynomial


def _minimal_monomials(monos, guard):
    """The packed monomials that no other one divides, in ascending
    order; sorting puts every proper divisor before its multiples."""
    out = []
    for m in sorted(set(monos)):
        for d in out:
            if not (m - d) & guard:
                break
        else:
            out.append(m)
    return out


def hilbert_series_monomial(exps, nvars):
    """Numerator Q(t) with HS_{S/L}(t) = Q(t)/(1-t)^nvars for the monomial
    ideal L generated by the given exponent vectors; the recursion runs
    on integer coefficient lists and on grevlex-packed monomials, whose
    top field is the degree.  It only lowers exponents, so the width that
    holds the generators holds every node."""
    exps = list(exps)
    pk = _Packing(GREVLEX, nvars, _bits_for(max(map(sum, exps), default=0)))
    guard, exp_guard, ones = pk.guard, pk.exp_guard, pk.ones
    # the guard bit of each variable's field -> the variable as a monomial
    units = {1 << s + pk.bits: pk.pack(tuple(int(i == v) for i in range(nvars)))
             for v, s in enumerate(pk.shifts)}

    def rec(gens):
        if not gens:
            return [1]
        if not gens[0]:  # the unit monomial, which is then the only one
            return []
        # the guard of a field of g + ones is set where g's exponent is
        # not zero; find a variable shared by some pair of generators
        nonzero = [(g + ones) & exp_guard for g in gens]
        for a, b in itertools.combinations(nonzero, 2):
            pivot = a & b
            if pivot:
                pivot &= -pivot  # the first variable they share
                break
        else:
            # pairwise coprime: multiply by each 1 - t^d in place
            q = [1]
            for g in gens:
                d = pk.degree(g)
                q += [0] * d
                for k in range(len(q) - 1, d - 1, -1):
                    q[k] -= q[k - d]
            return q
        unit = units[pivot]
        q = rec(_minimal_monomials(
            [unit] + [g for g, m in zip(gens, nonzero) if not m & pivot], guard))
        colon = rec(_minimal_monomials(
            [g - unit if m & pivot else g for g, m in zip(gens, nonzero)], guard))
        q += [0] * (len(colon) + 1 - len(q))  # q + t * colon
        for k, c in enumerate(colon, 1):
            q[k] += c
        return q

    return UniPoly(rec(_minimal_monomials(map(pk.pack, exps), guard)))


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series numerator (over (1-t)^nvars), Hilbert polynomial,
    and the first degree from which function and polynomial agree."""

    nvars: int
    series_numerator: UniPoly
    hilbert_polynomial: UniPoly
    index_of_regularity: int

    def hilbert_function(self, k):
        """dim of the degree-k graded piece, read off the series."""
        if k < 0:
            return 0
        value = _expand_series(self.series_numerator.coeffs, self.nvars, k)[k]
        if value.denominator != 1 or value < 0:
            raise CrossCheckFailed("Hilbert function value %s in degree %d "
                                   "is not a natural number" % (value, k))
        return int(value)


def _cancel_one_minus_t(q):
    """(qbar, k) with q = (1-t)^k * qbar and qbar(1) != 0, or ([], 0)
    for q = 0, for a numerator q with integer coefficients; qbar is
    their integer list.  A zero sum is q(1) = 0, one more factor 1 - t,
    and the quotient's coefficients are the prefix sums of q but the
    last, which is q(1)."""
    qbar = [c.numerator for c in q.coeffs]
    k = 0
    while qbar and not sum(qbar):
        qbar = list(itertools.accumulate(qbar))[:-1]
        k += 1
    return qbar, k


def _hilbert_data_from_numerator(q, nvars):
    qbar, cancelled = _cancel_one_minus_t(q)
    if not qbar:
        return HilbertData(nvars, q, UniPoly(), 0)
    D = nvars - cancelled
    poly = UniPoly()
    if D > 0:
        for j, c in enumerate(qbar):
            if c:
                poly = poly + c * binom_poly(D - 1 - j, D - 1)

    # function and polynomial agree for all k > deg(qbar); scan downwards
    reg = len(qbar)
    hvals = _expand_series(qbar, D, reg)
    while reg > 0 and hvals[reg - 1] == poly(reg - 1):
        reg -= 1
    return HilbertData(nvars, q, poly, reg)


def _expand_series(q, D, upto):
    """First upto+1 coefficients of q(t)/(1-t)^D, q a coefficient list."""
    coeffs = list(q[:upto + 1]) + [0] * (upto + 1 - len(q))
    for _ in range(D):
        coeffs = list(itertools.accumulate(coeffs))
    return coeffs


def _revlex_order(ideal):
    """Grevlex with x_j ranked last, for the first j whose hyperplane
    x_j = 0 the generators prove free of zeros of I; GREVLEX, which
    ranks the last variable last, when no variable has a proof.

    The proof: for every other variable x_k, some generator restricted
    to x_j = 0 is c * x_k^d with c != 0 and d >= 1, so I + (x_j) holds
    x_j and a power of every variable.  Then I : x_j^oo is the
    saturation of I, and with x_j last in revlex in(I : x_j^oo) =
    in(I) : x_j^oo (Bayer & Stillman, Duke Math. J. 1987): the leads of
    I, stripped of x_j, are those of the saturation, which in practice
    keeps Buchberger's run small.  The Hilbert data are the same under
    any order; only the work changes."""
    nvars = len(ideal.variables)
    for j in range(nvars):
        powers = set()
        for g in ideal.generators:
            rest = [e for e in g.terms if not e[j]]
            if len(rest) == 1:
                support = [k for k, a in enumerate(rest[0]) if a]
                if len(support) == 1:
                    powers.add(support[0])
        if len(powers) == nvars - 1:
            if j == nvars - 1:
                return GREVLEX
            return MonomialOrder("grevlex", tuple(k for k in range(nvars) if k != j) + (j,))
    return GREVLEX


def hilbert_data(ideal, order=None, max_basis=None, max_degree=None):
    """Hilbert data of S/I for a homogeneous ideal I, via the standard
    reduction to the leading-term ideal of a Groebner basis: only its
    minimal leads are computed.  Without an order, _revlex_order picks
    one from the generators."""
    if not ideal.homogeneous:
        raise ValueError("hilbert_data needs a homogeneous ideal")
    if order is None:
        order = _revlex_order(ideal)
    leads = minimal_leads(ideal.generators, order, max_basis=max_basis, max_degree=max_degree)
    q = hilbert_series_monomial(leads, len(ideal.variables))
    return _hilbert_data_from_numerator(q, len(ideal.variables))


def monomials_of_degree(nvars, k):
    """All exponent vectors of total degree k (deterministic order)."""
    if nvars == 0:
        return [()] if k == 0 else []
    out = []
    for head in range(k, -1, -1):
        for tail in monomials_of_degree(nvars - 1, k - head):
            out.append((head,) + tail)
    return out


def hilbert_function_direct(ideal, k):
    """dim (S/I)_k by the rank of the span of monomial multiples of the
    generators; independent of any Groebner machinery."""
    if not ideal.homogeneous:
        raise ValueError("needs a homogeneous ideal")
    nvars = len(ideal.variables)
    monos = monomials_of_degree(nvars, k)
    col = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.generators:
        d = g.is_homogeneous()
        if d is ANY_DEGREE or d > k:
            continue
        for shift in monomials_of_degree(nvars, k - d):
            row = [Fraction(0)] * len(monos)
            for e, c in g.terms.items():
                row[col[tuple(map(operator.add, shift, e))]] = c
            rows.append(row)
    return len(monos) - linalg.rank(rows)


INFINITE = float("inf")


def count_zero_dim(gens, order=GREVLEX, max_basis=None, max_degree=None, nvars=None):
    """Number of common zeros (with multiplicity) of an affine system, or
    INFINITE, read off the Hilbert-series numerator q = (1-t)^k * qbar of
    its leading-term ideal: q = 0 means none, k < nvars infinitely many,
    and otherwise the count of standard monomials is qbar(1).

    nvars is read off the polynomials; it is needed only for an empty
    list, whose system has one zero in no variables and infinitely many
    otherwise (nvars None)."""
    if gens:
        nvars = len(gens[0].variables)
    gens = [g for g in gens if g]
    if not gens:
        return 1 if nvars == 0 else INFINITE
    leads = minimal_leads(gens, order, max_basis=max_basis, max_degree=max_degree)
    qbar, cancelled = _cancel_one_minus_t(hilbert_series_monomial(leads, nvars))
    if not qbar:
        return 0
    if cancelled < nvars:
        return INFINITE
    return sum(qbar)


def fresh_variable(variables):
    if "y" not in variables:
        return "y"
    k = 2
    while "y%d" % k in variables:
        k += 1
    return "y%d" % k


def membership_via_hilbert(ideal, g, order=GREVLEX, max_basis=None, max_degree=None):
    """Decide g in I by comparing Hilbert polynomials of I and I+(g)
    after adjoining a fresh variable (which is then a non-zero-divisor
    modulo the extended ideal, making the comparison conclusive)."""
    d = g.is_homogeneous()
    if d is None or d is ANY_DEGREE or d == 0:
        raise ValueError("g must be non-constant homogeneous")
    if not ideal.homogeneous:
        raise ValueError("needs a homogeneous ideal")
    y = fresh_variable(ideal.variables)
    newvars = ideal.variables + (y,)
    ext = [p.extend_variables(newvars) for p in ideal.generators]
    base = HomIdeal.from_polys(newvars, ext)
    extended = HomIdeal.from_polys(newvars, ext + [g.extend_variables(newvars)])
    caps = dict(order=order, max_basis=max_basis, max_degree=max_degree)
    pa = hilbert_data(base, **caps).hilbert_polynomial
    pb = hilbert_data(extended, **caps).hilbert_polynomial
    return pa == pb
