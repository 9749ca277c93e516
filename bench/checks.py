"""Independent checks of the benchmark's outputs.

Nothing here imports hilbertpoly or the test oracles: every expected
value is recomputed from first principles with integers, Fractions and
math.comb, or is a property the method must have.  Each check returns a
list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# small exact helpers


def poly_mul(a, b):
    """Product of two coefficient lists (index = degree)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def strip(coeffs):
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def eval_poly(coeffs, x):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def binom_value(x, m):
    """C(x, m) as a polynomial in x, evaluated at any integer x."""
    num = 1
    for i in range(m):
        num *= x - i
    return Fraction(num, math.factorial(m))


def binom_shift_coeffs(shift, m):
    """Coefficients in T of C(T + shift, m) = prod_{i<m} (T + shift - i) / m!."""
    coeffs = [1]
    for i in range(m):
        coeffs = poly_mul(coeffs, [shift - i, 1])
    return [Fraction(c, math.factorial(m)) for c in coeffs]


def ci_numerator(degrees):
    """q = prod (1 + t + ... + t^(d-1)) as an integer coefficient list."""
    q = [1]
    for d in degrees:
        q = poly_mul(q, [1] * d)
    return q


def ci_hilbert_polynomial(n, degrees):
    """sum_j q_j C(T + m - j, m) with m = n - r, as exact coefficients."""
    m = n - len(degrees)
    total = [Fraction(0)] * (m + 1)
    for j, qj in enumerate(ci_numerator(degrees)):
        for k, c in enumerate(binom_shift_coeffs(m - j, m)):
            total[k] += qj * c
    return strip(total)


def euler_top_expected(n, degrees):
    """[h^m] (1+h)^(n+1) / prod (1 + d h), times prod d, in integers."""
    m = n - len(degrees)
    series = [math.comb(n + 1, k) for k in range(m + 1)]
    for d in degrees:
        inverse = [(-d) ** k for k in range(m + 1)]
        series = poly_mul(series, inverse)[:m + 1]
    return series[m] * math.prod(degrees)


def regular_sequence_numerator(degrees):
    """prod (1 - t^d) as an integer coefficient list."""
    numerator = [1]
    for d in degrees:
        numerator = poly_mul(numerator, [1] + [0] * (d - 1) + [-1])
    return numerator


def regular_sequence_series(n, degrees, upto):
    """Coefficients 0..upto of prod (1 - t^d) / (1 - t)^(n+1)."""
    numerator = regular_sequence_numerator(degrees)
    return [sum(a * math.comb(k - j + n, n)
                for j, a in enumerate(numerator) if j <= k)
            for k in range(upto + 1)]


def model_count(num_vars, clauses):
    """Satisfying assignments, by evaluating every clause on every assignment."""
    count = 0
    for mask in range(1 << num_vars):
        value = [None] + [bool(mask >> i & 1) for i in range(num_vars)]
        if all(any(value[lit] if lit > 0 else not value[-lit] for lit in clause)
               for clause in clauses):
            count += 1
    return count


def conic_value(p):
    """x0*x2 - x1^2 at the point p."""
    return p[0] * p[2] - p[1] * p[1]


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# one check per workload


def check_ci_report(n, degrees, rc, report):
    """`report` is the decoded JSON of `ci n=.. degrees=..`."""
    problems = []
    if rc != 0:
        problems.append("exit code %r" % rc)
    m = n - len(degrees)
    if report.get("n") != n or report.get("degrees") != list(degrees):
        problems.append("report names another complete intersection")
    if report.get("dimension") != m:
        problems.append("dimension %r, expected %d" % (report.get("dimension"), m))
    expected = ci_hilbert_polynomial(n, degrees)
    for key in ("hilbert_hrr", "hilbert_characters", "hilbert_series"):
        poly = report.get(key) or {}
        got = strip(Fraction(str(c)) for c in poly.get("coefficients", []))
        if got != expected or poly.get("degree") != m:
            problems.append("%s is %s, expected %s" % (key, got, expected))
    if report.get("agreement") is not True:
        problems.append("agreement is %r" % report.get("agreement"))
    chars = report.get("characters") or {}
    if chars.get("[]") != math.prod(degrees):
        problems.append("character [] is %r, expected %d"
                        % (chars.get("[]"), math.prod(degrees)))
    bad = sorted(k for k, v in chars.items() if not _is_int(v) or v < 0)
    if bad:
        problems.append("characters %s are not non-negative integers" % bad)
    euler = euler_top_expected(n, degrees)
    if report.get("euler_top") != euler:
        problems.append("euler_top %r, expected %d" % (report.get("euler_top"), euler))
    return problems


def check_sat_count(num_vars, clauses, hilbert, zero_count):
    """`hilbert` is the coefficient list of the Hilbert polynomial of the
    homogeneous encoding, `zero_count` the affine zero count."""
    problems = []
    count = model_count(num_vars, clauses)
    hilbert = strip(hilbert)
    if len(hilbert) > 1:
        problems.append("Hilbert polynomial %s is not constant" % hilbert)
    elif (hilbert[0] if hilbert else 0) != count:
        problems.append("Hilbert constant %s, model count %d" % (hilbert, count))
    if not _is_int(zero_count) or zero_count != count:
        problems.append("zero count %r, model count %d" % (zero_count, count))
    return problems


def check_generic_ci(n, degrees, hilbert, regularity, direct):
    """`hilbert`: Hilbert polynomial coefficients; `regularity`: the
    reported index of regularity; `direct`: {k: dim (S/I)_k} by linear
    algebra for every k in 0..regularity+1."""
    problems = []
    m = n - len(degrees)
    top = sum(degrees)  # beyond this degree function and polynomial agree
    series = regular_sequence_series(n, degrees, top + m + 2)
    hilbert = strip(hilbert)
    if len(hilbert) != m + 1:
        problems.append("Hilbert polynomial %s has degree %d, expected %d"
                        % (hilbert, len(hilbert) - 1, m))
    elif any(eval_poly(hilbert, k) != series[k] for k in range(top + 1, top + m + 2)):
        problems.append("Hilbert polynomial %s does not match the series" % hilbert)
    numerator = regular_sequence_numerator(degrees)
    poly_at = [sum(a * binom_value(k - j + n, n) for j, a in enumerate(numerator))
               for k in range(top + 2)]
    expected_reg = top + 1
    while expected_reg > 0 and poly_at[expected_reg - 1] == series[expected_reg - 1]:
        expected_reg -= 1
    if regularity != expected_reg:
        problems.append("index of regularity %r, expected %d" % (regularity, expected_reg))
    if sorted(direct) != list(range(expected_reg + 2)):
        problems.append("direct values at %s, expected 0..%d"
                        % (sorted(direct), expected_reg + 1))
    wrong = {k: v for k, v in direct.items() if k >= len(series) or v != series[k]}
    if wrong:
        problems.append("direct Hilbert function wrong at %s" % sorted(wrong))
    return problems


def check_tangency(f0, smooth, on_cell, transversal):
    """The flag's first point f0 lies on the tangent line at x, so the
    Gauss image is on the cell and the verdict is 'f0 is off the conic'."""
    problems = []
    if smooth is not True or on_cell is not True:
        problems.append("smooth=%r on_cell=%r, expected both true" % (smooth, on_cell))
    expected = conic_value(f0) != 0
    if transversal is not expected:
        problems.append("transversal=%r, expected %r" % (transversal, expected))
    return problems
