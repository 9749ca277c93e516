#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must accept a right answer
and reject answers that are wrong in one place.

Usage: python3 bench/selftest/check_checkers.py   (exit 0 when all hold)

The right answers are worked out by hand for small cases, so this test
needs neither hilbertpoly nor the checks' own formulas.
"""

from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402


def ci_report_cases():
    # smooth plane conic: p(T) = 2T + 1, deg P_[1] = 2, Euler characteristic 2
    poly = {"text": "2*T + 1", "coefficients": [1, 2], "degree": 1}
    right = {"n": 2, "degrees": [2], "dimension": 1, "hilbert_hrr": dict(poly),
             "hilbert_characters": dict(poly), "hilbert_series": dict(poly),
             "characters": {"[]": 2, "[1]": 2}, "euler_top": 2, "agreement": True}

    def wrong(edit):
        report = copy.deepcopy(right)
        edit(report)
        return report

    yield "right", (2, (2,), 0, right), True
    yield "coefficient +1", (2, (2,), 0, wrong(
        lambda r: r["hilbert_characters"].update(coefficients=[2, 2]))), False
    yield "agreement false", (2, (2,), 0, wrong(lambda r: r.update(agreement=False))), False
    yield "character [] off by one", (2, (2,), 0, wrong(
        lambda r: r["characters"].update({"[]": 3}))), False
    yield "negative character", (2, (2,), 0, wrong(
        lambda r: r["characters"].update({"[1]": -2}))), False
    yield "fractional character", (2, (2,), 0, wrong(
        lambda r: r["characters"].update({"[1]": "3/2"}))), False
    yield "euler_top off by one", (2, (2,), 0, wrong(lambda r: r.update(euler_top=3))), False
    yield "exit code 2", (2, (2,), 2, right), False


def sat_count_cases():
    # (x1 or x2): three models out of four
    clauses = ((1, 2),)
    yield "right", (2, clauses, [Fraction(3)], 3), True
    yield "zero count off by one", (2, clauses, [Fraction(3)], 4), False
    yield "Hilbert constant off by one", (2, clauses, [Fraction(2)], 3), False
    yield "Hilbert polynomial not constant", (2, clauses, [Fraction(3), Fraction(1)], 3), False
    yield "infinite zero count", (2, clauses, [Fraction(3)], float("inf")), False


def generic_ci_cases():
    # two conics in P^2: Hilbert function 1, 3, 4, 4, ...; p(T) = 4; regular from 2
    direct = {0: 1, 1: 3, 2: 4, 3: 4}
    yield "right", (2, (2, 2), [Fraction(4)], 2, direct), True
    yield "Hilbert polynomial perturbed", (2, (2, 2), [Fraction(5)], 2, direct), False
    yield "direct value at k=1 off by one", (2, (2, 2), [Fraction(4)], 2, {**direct, 1: 2}), False
    yield "regularity off by one", (2, (2, 2), [Fraction(4)], 1,
                                    {k: v for k, v in direct.items() if k < 3}), False
    yield "direct degree missing", (2, (2, 2), [Fraction(4)], 2,
                                    {k: v for k, v in direct.items() if k != 3}), False


def tangency_cases():
    # tangent line at x = (1, 0, 0) is x2 = 0; F0 = x lies on the conic
    on_conic, off_conic = (1, 0, 0), (1, 1, 0)
    yield "right, F0 = x", (on_conic, True, True, False), True
    yield "right, F0 off the conic", (off_conic, True, True, True), True
    yield "verdict flipped at F0 = x", (on_conic, True, True, True), False
    yield "verdict flipped off the conic", (off_conic, True, True, False), False
    yield "not on the cell", (off_conic, True, False, None), False


CHECKERS = {
    "ci_report": (checks.check_ci_report, ci_report_cases),
    "sat_count": (checks.check_sat_count, sat_count_cases),
    "generic_ci": (checks.check_generic_ci, generic_ci_cases),
    "tangency": (checks.check_tangency, tangency_cases),
}


def main():
    failures = 0
    for workload, (check, cases) in CHECKERS.items():
        for label, args, should_pass in cases():
            problems = check(*args)
            ok = (not problems) == should_pass
            failures += not ok
            verdict = "accepted" if not problems else "rejected"
            print("%-4s %-10s %-32s %s" % ("ok" if ok else "FAIL", workload, label, verdict))
    print("%d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
