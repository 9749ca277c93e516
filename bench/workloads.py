"""The four workloads: input generation, one program call per instance,
and the independent check of its answer.

A workload object is built after `hilbertpoly` has been imported.  It
keeps module objects, not functions, and looks each entry point up at
call time, so the traced run sees the wrappers installed after set-up.
Inputs are plain data made by the benchmark from a seeded
`random.Random`; only they reach the program.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from fractions import Fraction

import checks


def _coefficients(poly):
    return [poly.coefficient(k) for k in range(poly.degree + 1)]


class CiReport:
    """`ci` reports through the CLI for every complete intersection with
    n <= 8, r <= 3 and degrees <= 4, in a seeded order."""

    MAX_N, MAX_R, MAX_D = 8, 3, 4

    def __init__(self):
        from hilbertpoly import cli
        self.cli = cli

    def inputs(self, rng):
        grid = [(n, degs)
                for n in range(self.MAX_N + 1)
                for r in range(min(self.MAX_R, n) + 1)
                for degs in itertools.combinations_with_replacement(
                    range(self.MAX_D, 0, -1), r)]
        rng.shuffle(grid)
        return grid

    def run(self, inp):
        n, degrees = inp
        argv = ["ci", "n=%d" % n]
        if degrees:
            argv.append("degrees=" + ",".join(map(str, degrees)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def check(self, inp, answer):
        rc, text = answer
        try:
            report = json.loads(text)
        except ValueError:
            return ["output is not JSON: %r" % text[:80]]
        return checks.check_ci_report(inp[0], inp[1], rc, report)


class SatCount:
    """Random 3-CNF with 2n clauses; the homogeneous encoding goes through
    hilbert_data and the affine one through count_zero_dim."""

    # formulas per pass for each number of variables; one size holds the
    # middle half, so instance_iqm_ms does not jump between two sizes
    MIX = {6: 2, 7: 6}

    def __init__(self):
        from hilbertpoly import grobner, reductions
        self.grobner = grobner
        self.reductions = reductions

    def inputs(self, rng):
        out = []
        for n, count in self.MIX.items():
            for _ in range(count):
                clauses = []
                for _ in range(2 * n):
                    lits = rng.sample(range(1, n + 1), 3)
                    clauses.append(tuple(v if rng.random() < 0.5 else -v for v in lits))
                out.append((n, tuple(clauses)))
        rng.shuffle(out)
        return out

    def run(self, inp):
        n, clauses = inp
        ideal = self.reductions.sat_to_ideal(self.reductions.CnfFormula(n, clauses))
        hilbert = self.grobner.hilbert_data(ideal).hilbert_polynomial
        affine = [g.set_variable("x0", 1) for g in ideal.generators]
        return _coefficients(hilbert), self.grobner.count_zero_dim(affine)

    def check(self, inp, answer):
        return checks.check_sat_count(inp[0], inp[1], *answer)


def monomials(nvars, degree):
    """Exponent vectors of the given total degree."""
    if nvars == 1:
        return [(degree,)]
    return [(head,) + tail for head in range(degree, -1, -1)
            for tail in monomials(nvars - 1, degree - head)]


class GenericCi:
    """Dense forms with coefficients in [-5, 5] for complete intersections
    up to n = 7, degrees (2,2,2,2): hilbert_data, then
    hilbert_function_direct at every degree up to one past the index of
    regularity."""

    # sorted by time; the middle half of a run's instances runs from
    # (5,(2,2,2)) to (6,(3,2,2)), leaving out the smallest case and n = 7
    CASES = [(4, (3, 3)), (5, (2, 2, 2)), (6, (2, 2, 2)), (5, (4, 3)), (6, (3, 3)),
             (6, (3, 2, 2)), (7, (2, 2, 2, 2))]
    COEFF_BOUND = 5

    def __init__(self):
        from hilbertpoly import arith, grobner
        self.arith = arith
        self.grobner = grobner

    def inputs(self, rng):
        out = []
        for n, degrees in self.CASES:
            forms = []
            for d in degrees:
                terms = {}
                for e in monomials(n + 1, d):
                    c = rng.randint(-self.COEFF_BOUND, self.COEFF_BOUND)
                    if c:
                        terms[e] = c
                forms.append(terms)
            out.append((n, degrees, forms))
        return out

    def run(self, inp):
        n, _, forms = inp
        variables = tuple("x%d" % i for i in range(n + 1))
        ideal = self.grobner.HomIdeal.from_polys(
            variables, [self.arith.MultiPoly(variables, terms) for terms in forms])
        data = self.grobner.hilbert_data(ideal)
        reg = data.index_of_regularity
        direct = {k: self.grobner.hilbert_function_direct(ideal, k) for k in range(reg + 2)}
        return _coefficients(data.hilbert_polynomial), reg, direct

    def check(self, inp, answer):
        return checks.check_generic_ci(inp[0], inp[1], *answer)


class Tangency:
    """The conic x0*x2 - x1^2 at seeded rational points x, against flags
    whose first point F0 lies on the tangent line at x; every fourth
    flag has F0 = x, where the verdict is 'not transversal'."""

    PER_PASS = 300

    def __init__(self):
        from hilbertpoly import arith, partitions, transversality
        self.transversality = transversality
        variables = ("x0", "x1", "x2")
        conic = arith.MultiPoly(variables, {(1, 0, 1): 1, (0, 2, 0): -1})
        self.instance = transversality.InputInstance(polys=(conic,), n=2, m=1)
        self.mu = partitions.Partition([1])

    @staticmethod
    def _det3(a, b, c):
        return (a[0] * (b[1] * c[2] - b[2] * c[1])
                - a[1] * (b[0] * c[2] - b[2] * c[0])
                + a[2] * (b[0] * c[1] - b[1] * c[0]))

    def inputs(self, rng):
        out = []
        for i in range(self.PER_PASS):
            t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            x = (Fraction(1), t, t * t)
            tangent = (0, 1, 2 * t)
            s = 0 if i % 4 == 0 else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                                rng.randint(1, 3))
            f0 = tuple(a + s * b for a, b in zip(x, tangent))
            # the tangent line must differ from span(F0, l1), and the basis
            # must be nonsingular: then the Gauss image lies on the cell [1]
            while True:
                l1, l2 = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(2)]
                if self._det3(x, tangent, l1) and self._det3(f0, l1, l2):
                    break
            basis = [[f0[k], Fraction(l1[k]), Fraction(l2[k])] for k in range(3)]
            out.append((x, f0, basis))
        return out

    def run(self, inp):
        x, _, basis = inp
        flag = self.transversality.Flag.from_basis(basis)
        report = self.transversality.transversality_report(self.instance, x, flag, self.mu)
        return report["smooth"], report["on_cell"], report["transversal"]

    def check(self, inp, answer):
        return checks.check_tangency(inp[1], *answer)


WORKLOADS = {
    "ci_report": CiReport,
    "sat_count": SatCount,
    "generic_ci": GenericCi,
    "tangency": Tangency,
}
