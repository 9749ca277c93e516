#!/usr/bin/env python3
"""Random-CNF counting experiment: for each instance compare the
brute-force model count, the Hilbert-polynomial constant of the
homogeneous encoding, and the affine zero-dimensional quotient count.
Times are the processor time (time.process_time) of the two algebraic
routes, for each instance and in total.

Usage: python scripts/run_sat_corpus.py [count] [max_vars] [seed]
"""

import random
import sys
import time

sys.path.insert(0, "src")

from hilbertpoly.grobner import count_zero_dim, hilbert_data  # noqa: E402
from hilbertpoly.reductions import (  # noqa: E402
    CnfFormula,
    count_sat_bruteforce,
    sat_to_ideal,
)


def random_cnf(rng, max_vars):
    n = rng.randint(2, max_vars)
    clauses = []
    for _ in range(rng.randint(1, 15)):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, n + 1), min(width, n))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(num_vars=n, clauses=tuple(clauses))


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    max_vars = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 777
    rng = random.Random(seed)
    total = 0.0
    bad = 0
    for i in range(count):
        phi = random_cnf(rng, max_vars)
        brute = count_sat_bruteforce(phi)
        t0 = time.process_time()
        ideal = sat_to_ideal(phi)
        poly = hilbert_data(ideal).hilbert_polynomial
        affine = [g.set_variable("x0", 1) for g in ideal.generators]
        zdim = count_zero_dim(affine)
        elapsed = time.process_time() - t0
        total += elapsed
        agree = poly.degree <= 0 and poly.coefficient(0) == brute and zdim == brute
        bad += not agree
        print("#%02d n=%d clauses=%d brute=%d hilbert=%s zerodim=%s %.3fs %s"
              % (i, phi.num_vars, len(phi.clauses), brute,
                 poly.coefficient(0), zdim, elapsed, "ok" if agree else "MISMATCH"))
    print("%d instances in %.2fs processor time, %d mismatches" % (count, total, bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
