"""Classical commutative-algebra oracle: Buchberger Groebner bases,
normal forms, Hilbert series and polynomials of homogeneous ideals,
zero-dimensional solution counting, and ideal membership.

Conventions
-----------
* The one monomial order is grevlex, with any ranking of the
  variables.  hilbert_data without an order picks a ranking from its
  generators (_revlex_order): x_j ranked last when, for every other
  variable x_k, some generator restricted to x_j = 0 is c * x_k^d
  (c != 0, d >= 1), which proves that the hyperplane x_j = 0 holds no
  zero of I; plain grevlex when no variable has such a proof.  The caps
  count the run under the order it picked.
* hilbert_data and count_zero_dim need only the leading-term ideal:
  they read its minimal generators off Buchberger's run
  (minimal_leads) and reduce no tail.  buchberger returns the reduced
  basis.  in_ideal reduces its polynomial against the elements of the
  run that hold the minimal leads, in the run's own packing.
* For a possibly non-radical input ideal I the Hilbert data computed is
  that of S/I as given, not of the vanishing ideal of its zero set.
* count_zero_dim counts points with multiplicity (vector-space
  dimension of the quotient); with generic data that is the geometric
  count.  It reads the count off the Hilbert-series numerator of the
  leading-term ideal, the integer series the Hilbert data comes from.
* After the run the Hilbert data are integer work: the numerator by
  hilbert_series_monomial's recursion on Bigatti's pivot, which sorts
  out divisors only at its entry, and the Hilbert polynomial as (D-1)!
  times it, an integer coefficient list, with one Fraction per
  coefficient and an integer regularity scan.
* Inside the Groebner core and the Hilbert-series recursion an exponent
  vector is one Python int (_Packing): fields with a guard bit each,
  laid out so that integer comparison is the monomial order.  Products
  and quotients are + and -, divisibility is a guard-bit test, and the
  normal form takes its next term, the largest left, from a heap of
  negated ints.  Tuples appear only where MultiPoly terms go in and come
  out.
* The field width is derived from the input degrees.  A guard bit is
  checked at every pack, every lcm and every new term; an overflow
  reruns the whole call at twice the width, so no exponent is ever
  wrapped and the result does not depend on the width.  A J-pair's
  multiple shift * G[x] needs no check of its own: its lead
  shift * lt(G[x]) is the lcm of two leads, checked when the pair was
  formed, and every field of a packed monomial is at most its degree;
  grevlex is graded, so no term of G[x] has a larger degree than its
  lead, and no field of the multiple is larger than the lcm's degree.
* The Groebner core works on primitive integer polynomials (content 1,
  positive leading coefficient) and reduces fraction-free; only the
  bases and remainders it returns are rational, and Groebner bases are
  returned reduced and monic.
* Buchberger is signature-based (the RB algorithm of Eder & Faugere's
  survey, JSC 2017, with the F5 rewrite order of Faugere, ISSAC 2002):
  the generators enter one at a time, J-pairs are reduced in increasing
  position-over-term signature by regular top-reductions, and the
  Koszul, syzygy, rewrite and singular criteria drop the J-pairs that
  need no reduction.  On a regular sequence nothing reduces to zero.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .arith import ANY_DEGREE, CrossCheckFailed, InputError, MultiPoly, UniPoly, parse_poly


class ResourceCapExceeded(RuntimeError):
    """A configured basis-size or degree cap was hit mid-computation."""


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """Grevlex, the one monomial order, on the variables in ranking
    order: indices listed from most to least significant, by default
    the variables as they come."""

    ranking: tuple = None


GREVLEX = MonomialOrder()


class _FieldOverflow(Exception):
    """A packed exponent outgrew its field; the run starts over wider."""


class _Packing:
    """Exponent vectors in nvars variables packed into Python ints whose
    integer order is the monomial order (Bachmann & Schoenemann, ISSAC
    1998).

    Each field holds bits value bits under one guard bit, clear in every
    valid monomial.  e_1..e_n, the exponents in ranking order, fill the
    low n fields and the weight sums S_k = e_1 + ... + e_k the n fields
    above them, S_n (the degree) on top: comparing S_n, S_{n-1}, ...,
    S_1 is comparing the degree and then the last exponents, smaller
    first, which is grevlex.

    For valid a and b, a + b is the product; a divides b exactly when
    (b - a) & guard is 0, and b - a is then the quotient; a and b are
    coprime exactly when lcm(a, b) == a + b.  A field of a + b or of an
    lcm is less than twice the limit, so it cannot spill into the next
    field, and its guard bit shows whether it overflowed.
    """

    def __init__(self, order, nvars, bits):
        self.bits = bits
        w = bits + 1
        field_of = [0] * nvars
        for k, v in enumerate(range(nvars) if order.ranking is None else order.ranking):
            field_of[v] = k
        self.shifts = tuple(w * f for f in field_of)
        low = sum(1 << w * f for f in range(nvars))  # a 1 in each exponent field
        self.exp_guard = low << bits
        self.guard = sum(1 << w * f + bits for f in range(2 * nvars))
        self.ones = low * ((1 << bits) - 1)
        self.exp_mask = (1 << w * nvars) - 1
        # times the exponent fields, this puts e_1 + ... + e_k into the
        # field of S_k, and partial sums above S_n that sums_mask drops
        self.sums_mul = low << w * nvars
        self.sums_mask = self.exp_mask << w * nvars
        self.top = w * max(2 * nvars - 1, 0)

    def pack(self, exp):
        if sum(exp) >> self.bits:
            raise _FieldOverflow
        p = sum(map(operator.lshift, exp, self.shifts))
        return p + ((p * self.sums_mul) & self.sums_mask)

    def unpack(self, p):
        mask = (1 << self.bits) - 1
        return tuple((p >> s) & mask for s in self.shifts)

    def degree(self, p):
        return p >> self.top

    def lcm(self, a, b):
        """Field-wise max of the exponents: the guard of each field of
        (a | guard) - b stays set where a's exponent is the larger; then
        the weight sums of that max."""
        t = ((a | self.exp_guard) - b) & self.exp_guard
        u = (b ^ ((a ^ b) & (t - (t >> self.bits)))) & self.exp_mask
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
    bits = _bits_for(max((max(f.degrees(), default=0) for f in polys), default=0))
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
    least common denominator of f's coefficients: f's own terms and 1
    when every coefficient is an int."""
    if all(type(c) is int for c in f.terms.values()):
        return f.terms, 1
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


def _reducer(terms, lt, sig=0):
    """Integer term dict with leading exponent lt, as _normal_form takes
    it: lt, its coefficient, the other terms and the signature (unused
    by full reduction)."""
    return lt, terms[lt], [(e, c) for e, c in terms.items() if e != lt], sig


def _normal_form(fterms, reducers, guard, sig=None):
    """Fraction-free reduction of an integer term dict against a list of
    _reducer.  Returns (remainder, scale): the remainder is an integer
    term dict, its lead first (all its terms largest first under full
    reduction), equal to scale > 0 times the exact rational remainder
    of the same division.

    Without sig the reduction is full.  With sig, the signature of the
    element being reduced, it is the regular top-reduction of
    signature-based Buchberger: a reducer is used only when its multiple
    has a smaller signature (shift + its sig < sig), and the reduction
    stops at the first term that no such reducer removes; the terms
    below it are returned as they are.

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
        for lt, lc, tail, s in reducers:
            shift = exp - lt
            if not shift & guard and (sig is None or shift + s < sig):
                break
        else:
            out[exp] = coeff
            if sig is None:
                continue
            out.update(work)
            break
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
    out, d = _reduce(pk, f, [_reducer(*_primitive_form(g, pk)) for g in divisors])
    return MultiPoly(f.variables, {pk.unpack(e): Fraction(c, d) for e, c in out.items()})


def _reduce(pk, f, reducers):
    """(remainder, d): f's denominators cleared, packed and fully reduced
    against the reducers, the remainder an integer term dict equal to
    d > 0 times the exact rational remainder."""
    terms, d = _clear_denominators(f)
    out, scale = _normal_form({pk.pack(e): c for e, c in terms.items()}, reducers, pk.guard)
    return out, d * scale


def buchberger(generators, order=GREVLEX, max_basis=None, max_degree=None):
    """Reduced Groebner basis of the given generators.

    The run is signature-based Buchberger in the RB form of Eder &
    Faugere's survey (JSC 2017) with the F5 rewrite order (Faugere,
    ISSAC 2002).  The generators, sorted by (degree, lead), get the
    signatures e_1 < e_2 < ..., position over term, and the basis of
    f_1..f_i is complete before f_{i+1} enters.  The J-pair of two
    elements is t*x, x the one whose multiple in their lcm has the
    larger signature; two multiples of one signature make no J-pair
    (singular criterion).  J-pairs are reduced in increasing signature
    order, one per signature with the latest x, by regular
    top-reductions, and dropped when the signature is a multiple of a
    lead of the earlier generators' basis (Koszul syzygies), of the
    signature of a reduction to zero (syzygy criterion) or of the
    signature of an element of the same index made after x (rewrite
    criterion).  On a regular sequence no J-pair reduces to zero.

    Resource caps abort with ResourceCapExceeded instead of exhausting
    memory.  max_basis bounds the number of elements the run holds: the
    generators plus every element a J-pair adds.

    Each element lists its terms largest first, so its lead is the
    first key of its terms.
    """
    generators = [g for g in generators if g]
    if not generators:
        return []
    return _packed(order, generators, _autoreduce, generators, max_basis, max_degree)


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
    _, lts, _, minimal = _buchberger(pk, generators, max_basis, max_degree)
    return [pk.unpack(lts[k]) for k in minimal]


def _buchberger(pk, generators, max_basis, max_degree):
    """A Groebner basis (G, lts, reducers, minimal): primitive integer
    term dicts, their leading exponents, the matching list of _reducer
    and the elements that hold the minimal leads, sorted by lead, by
    buchberger's signature-based run.  Each element is kept as its
    regular top-reduction left it: lead reduced, tail as it came.

    The signature t*e_i of an element is the packed monomial t of index
    i; its _reducer sig is (i << width) + t, whose integer order is
    position over term.  A reducer's multiple keeps its index: shift + t
    is a product of two valid monomials, which fits in width bits."""
    guard, lcm = pk.guard, pk.lcm
    width = pk.top + pk.bits + 1  # the bits of a packed monomial
    # a lead is the largest term, of the largest degree under grevlex,
    # and the packed order compares degrees first: sorting by lead is
    # sorting by (degree, lead)
    forms = sorted((_primitive_form(g, pk) for g in generators), key=lambda f: f[1])

    def check_degree(lead):
        if max_degree is not None and pk.degree(lead) > max_degree:
            raise ResourceCapExceeded("degree exceeded %d" % max_degree)

    for _, lead in forms:
        check_degree(lead)
    held = len(forms)
    if max_basis is not None and held > max_basis:
        raise ResourceCapExceeded("basis size exceeded %d" % max_basis)
    G, lts, sigs, reducers = [], [], [], []
    holder = {}  # lead -> the element that holds it

    def add(r, u):
        """Add the element r of signature u*e_i and queue its J-pairs
        that no Koszul signature drops."""
        p = len(G)
        lp = next(iter(r))
        G.append(_primitive(r, lp))
        lts.append(lp)
        sigs.append(u)
        holder[lp] = p
        reducers.append(_reducer(G[p], lp, base + u))
        active.append(reducers[p])
        check_degree(lp)
        # With an element of lower index, p's multiple has the larger
        # signature.  Only the minimal leads lk of the earlier basis
        # are paired, as in F5C (Eder & Perry, JSC 2010): a lead that lk
        # divides gives a J-pair of p whose signature is a multiple of
        # this one, and the criteria drop it once this one is handled.
        pairs = []
        for lk in koszul:
            v = lcm(lp, lk) - lp + u
            if (v - lk) & guard:  # else v is a multiple of lk itself
                pairs.append((v, p))
        for k in range(first, p):
            lk = lts[k]
            t = lcm(lp, lk)
            v = t - lp + u
            w = t - lk + sigs[k]
            if w > v:
                pairs.append((w, k))
            elif w < v:
                pairs.append((v, p))
            # w == v: singular, the multiples have one signature
        for v, x in pairs:
            old = pending.get(v)
            if old is not None:
                if x > old:
                    pending[v] = x
                continue
            if v in multiples:
                continue
            if v & guard:
                raise _FieldOverflow
            # a divisor of v is not larger than v
            for m in koszul[:bisect.bisect_right(koszul, v)]:
                if not (v - m) & guard:
                    multiples.add(v)
                    break
            else:
                pending[v] = x
                heapq.heappush(heap, v)

    koszul = []  # the minimal leads of the basis of f_1, ..., f_{i-1}
    for i, (f, _) in enumerate(forms):
        base = i << width
        first = len(G)  # G[first:] has index i
        syz = []  # signatures of index i that reduced to zero
        pending = {}  # J-pair signature -> the latest x with it
        multiples = set()  # J-pair signatures found in in(f_1, ..., f_{i-1})
        heap = []  # the pending signatures
        # every reducer of lower index is regular, and a minimal lead
        # divides whatever another lead of lower index divides
        active = [reducers[holder[m]] for m in koszul]
        r, _ = _normal_form(f, active, guard, base)
        if not r:
            continue  # f_i lies in (f_1, ..., f_{i-1})
        add(r, 0)
        while heap:
            u = heapq.heappop(heap)
            x = pending.pop(u)
            # syzygy and rewrite criteria: u is a multiple of the
            # signature of a reduction to zero or of an element after x
            for m in itertools.chain(syz, sigs[x + 1:]):
                if not (u - m) & guard:
                    break
            else:
                shift = u - sigs[x]
                # shift + lts[x] is the lcm that formed the pair, and
                # lcm checked its guard bits; every field of shift + e is
                # at most its degree, which is at most the lcm's
                r = {shift + e: c for e, c in G[x].items()}
                r, _ = _normal_form(r, active, guard, base + u)
                if not r:
                    syz.append(u)
                    continue
                held += 1
                if max_basis is not None and held > max_basis:
                    raise ResourceCapExceeded("basis size exceeded %d" % max_basis)
                add(r, u)
        # no lead of index i is a multiple of an earlier one, which would
        # have reduced it, so only earlier leads can stop being minimal
        new = _minimal_monomials(lts[first:], guard)
        koszul = sorted(new + [m for m in koszul if all((m - l) & guard for l in new)])
    return G, lts, reducers, [holder[m] for m in koszul]


def _autoreduce(pk, generators, max_basis, max_degree):
    """Reduced monic basis over Q, sorted by lead, each element's terms
    largest first, from _buchberger's Groebner basis."""
    G, lts, reducers, keep = _buchberger(pk, generators, max_basis, max_degree)
    guard, variables = pk.guard, generators[0].variables
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


def in_ideal(f, ideal, max_basis=None, max_degree=None):
    """Whether f lies in the ideal: f fully reduces to zero against the
    elements of buchberger's run that hold the minimal leads, which are a
    Groebner basis, in the run's own packing.  The caps are
    buchberger's."""
    return _packed(GREVLEX, list(ideal.generators) + [f], _in_ideal, f,
                   ideal.generators, max_basis, max_degree)


def _in_ideal(pk, f, generators, max_basis, max_degree):
    _, _, reducers, minimal = _buchberger(pk, generators, max_basis, max_degree)
    return not _reduce(pk, f, [reducers[k] for k in minimal])[0]


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
    top field is the degree.  It only lowers exponents and no node has
    more generators than the entry, so fields that hold the generators'
    degrees and count to len(exps) hold every node.

    Each node holds the minimal generators of L, ascending, and splits
    on Bigatti's pivot (JPAA 119, 1997), the variable x that lies in the
    most of them: Q(L) = Q(L + (x)) + t * Q(L : x).  Only the entry
    minimalizes.  L + (x) is generated by x and the generators without
    x, already minimal.  L : x is generated by the g / x of the g with x,
    an antichain as the g are, and the generators without x, none of
    which divides a g / x (it would divide g); so the one change is that
    a generator without x that some g / x divides drops out.  A node
    whose generators share no variable multiplies by each 1 - t^deg."""
    exps = list(exps)
    # a field of bits + 1 bits counts 2^(bits+1) - 1 > len(exps)
    # generators without a carry
    pk = _Packing(GREVLEX, nvars, max(_bits_for(max(map(sum, exps), default=0)),
                                      len(exps).bit_length() - 1))
    guard, exp_guard, ones, bits = pk.guard, pk.exp_guard, pk.ones, pk.bits
    # the low bit of a variable's field -> the variable as a monomial
    units = {s: pk.pack(tuple(int(i == v) for i in range(nvars)))
             for v, s in enumerate(pk.shifts)}
    field_mask = (1 << bits + 1) - 1

    def rec(gens):
        if not gens:
            return [1]
        if not gens[0]:  # the unit monomial, which is then the only one
            return []
        # the guard of a field of g + ones is set where g's exponent is
        # not zero; shifted to the field's low bit, the supports sum to
        # the number of generators that each variable lies in
        supports = [((g + ones) & exp_guard) >> bits for g in gens]
        total = sum(supports)
        counts = {s: (total >> s) & field_mask for s in units}
        s = max(counts, key=counts.get)
        if counts[s] < 2:
            # pairwise coprime: multiply by each 1 - t^d in place
            q = [1]
            for g in gens:
                d = pk.degree(g)
                q += [0] * d
                for k in range(len(q) - 1, d - 1, -1):
                    q[k] -= q[k - d]
            return q
        unit, pivot = units[s], 1 << s
        without, divided = [], []
        for g, m in zip(gens, supports):
            if m & pivot:
                divided.append(g - unit)
            else:
                without.append(g)
        # a divisor is not larger than its multiple
        kept = [g for g in without
                if all((g - d) & guard for d in divided[:bisect.bisect_right(divided, g)])]
        bisect.insort(without, unit)
        q = rec(without)
        colon = rec(sorted(kept + divided))
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
    """HilbertData of the numerator q over (1-t)^nvars, in integers.

    With q = (1-t)^k * qbar and D = nvars - k, the polynomial is
    p(T) = sum_j qbar_j C(T + D-1-j, D-1).  N = (D-1)! times it is the
    integer polynomial sum_j qbar_j prod_{i=1}^{D-1} (T - j + i), built
    as a coefficient list; each p_k is one Fraction of it over N, and
    the regularity scan compares N h(k) with N p(k) as ints.  p = 0 for
    D <= 0."""
    qbar, cancelled = _cancel_one_minus_t(q)
    if not qbar:
        return HilbertData(nvars, q, UniPoly(), 0)
    D = nvars - cancelled
    scaled = []  # N p, lowest degree first
    if D > 0:
        scaled = [0] * D
        for j, c in enumerate(qbar):
            if not c:
                continue
            f = [c]
            for i in range(1, D):
                a = i - j  # f times (T + a)
                f = [a * f[0]] + [f[e - 1] + a * f[e] for e in range(1, len(f))] + [f[-1]]
            scaled = [x + y for x, y in zip(scaled, f)]
    N = math.factorial(D - 1) if D > 0 else 1

    def scaled_at(k):
        v = 0
        for c in reversed(scaled):
            v = v * k + c
        return v

    # function and polynomial agree for all k > deg(qbar); scan downwards
    reg = len(qbar)
    hvals = _expand_series(qbar, D, reg)
    while reg > 0 and N * hvals[reg - 1] == scaled_at(reg - 1):
        reg -= 1
    return HilbertData(nvars, q, UniPoly([Fraction(c, N) for c in scaled]), reg)


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
            return MonomialOrder(tuple(k for k in range(nvars) if k != j) + (j,))
    return GREVLEX


def hilbert_data(ideal, order=None, max_basis=None, max_degree=None):
    """Hilbert data of S/I for a homogeneous ideal I, via the standard
    reduction to the leading-term ideal of a Groebner basis: only its
    minimal leads are computed.  Without an order, _revlex_order picks
    one from the generators."""
    if not ideal.homogeneous:
        raise InputError("hilbert_data needs a homogeneous ideal")
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
        raise InputError("needs a homogeneous ideal")
    nvars = len(ideal.variables)
    monos = monomials_of_degree(nvars, k)
    col = {m: i for i, m in enumerate(monos)}
    shifts = {}  # generator degree d -> the monomials of degree k - d
    rows = []
    for g in ideal.generators:
        d = g.is_homogeneous()
        if d is ANY_DEGREE or d > k:
            continue
        if d not in shifts:
            shifts[d] = monomials_of_degree(nvars, k - d)
        for shift in shifts[d]:
            row = [0] * len(monos)
            for e, c in g.terms.items():
                row[col[tuple(map(operator.add, shift, e))]] = c
            rows.append(row)
    return len(monos) - linalg.rank(rows)


INFINITE = float("inf")


def count_zero_dim(gens, max_basis=None, max_degree=None, nvars=None):
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
    leads = minimal_leads(gens, max_basis=max_basis, max_degree=max_degree)
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


def membership_via_hilbert(ideal, g, max_basis=None, max_degree=None):
    """Decide g in I by comparing Hilbert polynomials of I and I+(g)
    after adjoining a fresh variable (which is then a non-zero-divisor
    modulo the extended ideal, making the comparison conclusive)."""
    d = g.is_homogeneous()
    if d is None or d is ANY_DEGREE or d == 0:
        raise InputError("g must be non-constant homogeneous")
    if not ideal.homogeneous:
        raise InputError("needs a homogeneous ideal")
    y = fresh_variable(ideal.variables)
    newvars = ideal.variables + (y,)
    ext = [p.extend_variables(newvars) for p in ideal.generators]
    base = HomIdeal.from_polys(newvars, ext)
    extended = HomIdeal.from_polys(newvars, ext + [g.extend_variables(newvars)])
    caps = dict(order=GREVLEX, max_basis=max_basis, max_degree=max_degree)
    pa = hilbert_data(base, **caps).hilbert_polynomial
    pb = hilbert_data(extended, **caps).hilbert_polynomial
    return pa == pb
