#!/usr/bin/env python3
"""Transversality sweep on the conic: for pinned rational points and a
batch of random flags conditioned to touch the tangent line, report the
tangency verdict of the Gauss map against the codimension-1 Schubert
cell.

Usage: python scripts/run_transversality_sweep.py [flags_per_point] [seed]
"""

import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, "src")

from hilbertpoly.arith import parse_poly  # noqa: E402
from hilbertpoly.partitions import Partition  # noqa: E402
from hilbertpoly.transversality import (  # noqa: E402
    Flag,
    InputInstance,
    gauss_point,
    in_cell,
    transversal_at,
)


def main():
    per_point = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = random.Random(seed)
    conic = InputInstance(
        polys=(parse_poly("x0*x2 - x1^2", ("x0", "x1", "x2")),), n=2, m=1)
    mu = Partition([1])
    t0 = time.time()
    total = good = 0
    for t in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)):
        x = (1, t, t * t)
        tangent_dir = (0, 1, 2 * t)
        for _ in range(per_point):
            s = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            f0 = tuple(a + s * b for a, b in zip(x, tangent_dir))
            while True:
                cols = [f0] + [tuple(rng.randint(-9, 9) for _ in range(3))
                               for _ in range(2)]
                basis = [[Fraction(cols[j][i]) for j in range(3)]
                         for i in range(3)]
                try:
                    flag = Flag.from_basis(basis)
                except ValueError:  # the basis is singular
                    continue
                if in_cell(gauss_point(conic, x), flag, mu):
                    break
            verdict = transversal_at(conic, x, flag, mu)
            total += 1
            good += bool(verdict)
            if not verdict:
                print("  non-transversal flag at t=%s, F0=%s" % (t, f0))
    print("%d/%d transversal in %.2fs" % (good, total, time.time() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
