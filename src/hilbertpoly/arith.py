"""Exact arithmetic substrate over Q: sparse multivariate polynomials
with ring arithmetic, and dense univariate polynomials as values.

A MultiPoly coefficient is an int when it is an integer and a Fraction
otherwise, the rule linalg's results keep: every constructor and
operation stores it so, and a float, whose binary expansion is not the
exact value it stands for, raises TypeError.  3 == Fraction(3) and both
hash and print alike, so equality, hashing and to_text do not depend on
the form a coefficient came in.  eval_point works in integers and
returns a Fraction.

A UniPoly is a Hilbert polynomial or series numerator that a route
builds once from a coefficient list; it is then only compared, printed
and read coefficient by coefficient, so it has no arithmetic.

Values are immutable after construction; every operation is a pure
function, so they are safe to share between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# Homogeneity degree reported for the zero polynomial, which is
# homogeneous of every degree.
ANY_DEGREE = "any"


class PolyParseError(ValueError):
    """Raised when polynomial text cannot be parsed."""


class InputError(ValueError):
    """A well-formed input that the computation is not defined on: an
    inhomogeneous ideal where a homogeneous one is needed, a point that
    is no zero of the system, a negative order."""


class CrossCheckFailed(ArithmeticError):
    """An exact check between two routes, or an integrality the theory
    guarantees, failed: a fault in the program, not in its input."""


def frac(x) -> Fraction:
    """An int or a Fraction as a Fraction.  Anything else, a float
    above all, raises TypeError: a float's binary expansion is not the
    exact value it stands for."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected an int or a Fraction, got %r" % (x,))


def _coefficient(x):
    """An int or a Fraction as a MultiPoly coefficient: an int when it
    is an integer, else the Fraction.  Anything else raises TypeError,
    as in frac."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("expected an int or a Fraction, got %r" % (x,))


# ---------------------------------------------------------------------------
# Multivariate polynomials


class MultiPoly:
    """Sparse multivariate polynomial over Q.

    ``terms`` maps exponent tuples (length = number of variables) to
    nonzero rational coefficients, each an int when it is an integer and
    a Fraction otherwise.  No zero coefficient is ever stored, so
    equality is structural.
    """

    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        nv = len(self.variables)
        clean = {}
        for exp, c in terms.items():
            if type(c) is not int:
                c = _coefficient(c)
            if not c:
                continue
            exp = tuple(exp)
            if len(exp) != nv or min(exp, default=0) < 0:
                raise ValueError("exponent vector %r does not fit %d variables" % (exp, nv))
            clean[exp] = c
        self.terms = clean
        self._hash = None
        self._degrees = None

    # -- constructors

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {exp: 1})

    # -- ring structure

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("variable-list mismatch: %r vs %r"
                                 % (self.variables, other.variables))
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return MultiPoly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coefficient(other)
            if not c:
                return MultiPoly(self.variables, {})
            return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly(self.variables, terms)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return "MultiPoly(%r)" % self.to_text()

    # -- queries

    def degrees(self):
        """The set of the total degrees of the terms, computed once."""
        if self._degrees is None:
            self._degrees = frozenset(map(sum, self.terms))
        return self._degrees

    def is_homogeneous(self):
        """Common total degree of all terms, ANY_DEGREE for 0, None if mixed."""
        if not self.terms:
            return ANY_DEGREE
        degs = self.degrees()
        if len(degs) == 1:
            return next(iter(degs))
        return None

    # -- calculus / substitution

    def partial(self, name):
        """Partial derivative with respect to the named variable."""
        i = self.variables.index(name)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            e[i] -= 1
            e = tuple(e)
            terms[e] = terms.get(e, 0) + c * exp[i]
        return MultiPoly(self.variables, terms)

    def eval_point(self, values):
        """Evaluate at a rational point (sequence aligned with variables)
        of ints and Fractions; the value is an exact Fraction, and a float
        coordinate raises TypeError, as frac does.

        The work is in integers: the point is X / D with integer X and D
        the lcm of its denominators, the coefficients are c' / L with L
        the lcm of theirs, and with top the largest term degree the value
        is sum c' X^e D^(top - |e|) over L D^top, one division."""
        if len(values) != len(self.variables):
            raise ValueError("point has wrong length")
        D = 1
        for v in values:
            if type(v) is not int:
                D = math.lcm(D, frac(v).denominator)
        X = [v * D if type(v) is int else v.numerator * (D // v.denominator) for v in values]
        L = 1
        for c in self.terms.values():
            if type(c) is not int:
                L = math.lcm(L, c.denominator)
        top = max(self.degrees(), default=0)
        mixed = D != 1 and len(self.degrees()) > 1
        total = 0
        for exp, c in self.terms.items():
            t = c * L if type(c) is int else c.numerator * (L // c.denominator)
            for x, e in zip(X, exp):
                if e == 1:
                    t *= x
                elif e:
                    t *= x ** e
            if mixed:
                t *= D ** (top - sum(exp))
            total += t
        return Fraction(total, L * D ** top)

    def set_variable(self, name, value):
        """Fix one variable to a rational value; drops it from the list."""
        i = self.variables.index(name)
        value = _coefficient(value)
        newvars = self.variables[:i] + self.variables[i + 1:]
        terms = {}
        for exp, c in self.terms.items():
            e = exp[:i] + exp[i + 1:]
            terms[e] = terms.get(e, 0) + c * value ** exp[i]
        return MultiPoly(newvars, terms)

    def extend_variables(self, newvars):
        """Re-express over a variable superset (order given by newvars)."""
        newvars = tuple(newvars)
        pos = {name: newvars.index(name) for name in self.variables}
        terms = {}
        for exp, c in self.terms.items():
            e = [0] * len(newvars)
            for name, d in zip(self.variables, exp):
                e[pos[name]] = d
            terms[tuple(e)] = c
        return MultiPoly(newvars, terms)

    # -- text format

    def to_text(self):
        """Render in the ideal-file format, e.g. ``3/2*x0^2*x1 - x2^3``."""
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(),
                       key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        pieces = []
        for i, (exp, c) in enumerate(items):
            factors = []
            for name, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mag = abs(c)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if i == 0:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)


_NUM_FACTOR = re.compile(r"^(\d+)(?:/(\d+))?$")
_VAR_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")


def parse_poly(text, variables):
    """Parse the polynomial text format over the given variable list;
    inverse of MultiPoly.to_text.  A variable not in the list raises
    PolyParseError."""
    s = "".join(text.split())
    if not s:
        raise PolyParseError("empty polynomial text")
    variables = tuple(variables)

    # split into signed terms on top-level + and -
    chunks = []
    sign = 1
    cur = ""
    for ch in s:
        if ch not in "+-":
            cur += ch
        elif cur:
            chunks.append((sign, cur))
            cur = ""
            sign = 1 if ch == "+" else -1
        elif not chunks:
            sign *= 1 if ch == "+" else -1  # leading sign
        else:
            raise PolyParseError("dangling sign in %r" % text)
    if not cur:
        raise PolyParseError("trailing operator in %r" % text)
    chunks.append((sign, cur))

    # the terms are summed in one dict, so that a line of N terms takes
    # time linear in N: nothing caps the length of an ideal-file line
    terms = {}
    index = {name: i for i, name in enumerate(variables)}
    for sign, body in chunks:
        coeff = Fraction(sign)
        exp = [0] * len(variables)
        for factor in body.split("*"):
            m = _NUM_FACTOR.match(factor)
            if m:
                num, den = m.group(1), m.group(2)
                den = int(den) if den else 1
                if not den:
                    raise PolyParseError("zero denominator in %r" % text)
                coeff *= Fraction(int(num), den)
                continue
            m = _VAR_FACTOR.match(factor)
            if m:
                name, e = m.group(1), m.group(2)
                if name not in index:
                    raise PolyParseError("unknown variable %r" % name)
                exp[index[name]] += int(e) if e else 1
                continue
            raise PolyParseError("bad factor %r in %r" % (factor, text))
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + coeff
    return MultiPoly(variables, terms)


# ---------------------------------------------------------------------------
# Dense univariate polynomials


class UniPoly:
    """Dense univariate polynomial over Q as a value: coefficient index =
    degree, no trailing zeros, no arithmetic."""

    def __init__(self, coeffs=()):
        coeffs = [frac(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "UniPoly(%r)" % (self.to_text(),)

    def to_text(self, var="T"):
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            num, den = c.numerator, c.denominator
            if not num:
                continue
            size = str(abs(num)) if den == 1 else "%d/%d" % (abs(num), den)
            if k == 0:
                body = size
            else:
                mono = var if k == 1 else "%s^%d" % (var, k)
                body = mono if size == "1" else "%s*%s" % (size, mono)
            if not pieces:
                pieces.append(body if num > 0 else "-" + body)
            else:
                pieces.append((" + " if num > 0 else " - ") + body)
        return "".join(pieces)
