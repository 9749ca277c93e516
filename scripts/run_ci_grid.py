#!/usr/bin/env python3
"""Sweep the complete-intersection grid and cross-validate all three
Hilbert-polynomial routes; prints one line per ambient dimension and a
final summary.  The summary time is the processor time
(time.process_time) of the three routes over the whole grid.

Usage: python scripts/run_ci_grid.py [max_n] [max_r] [max_degree]
"""

import sys
import time

sys.path.insert(0, "src")

from hilbertpoly.chern import (  # noqa: E402
    character_table,
    ci_grid,
    ci_hilbert_series_oracle,
    euler_top,
    hilbert_poly_from_characters,
    hilbert_poly_hrr,
)


def main():
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    max_r = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    max_d = int(sys.argv[3]) if len(sys.argv) > 3 else 4
    grid = ci_grid(max_n, max_r, max_d)
    t0 = time.process_time()
    disagreements = []
    by_n = {}
    for ci in grid:
        hrr = hilbert_poly_hrr(ci)
        chars = hilbert_poly_from_characters(ci.m, ci.n, character_table(ci))
        ok = hrr == chars == ci_hilbert_series_oracle(ci)
        if not ok:
            disagreements.append(ci)
        by_n.setdefault(ci.n, [0, 0])
        by_n[ci.n][0] += ok
        by_n[ci.n][1] += 1
    for n in sorted(by_n):
        ok, total = by_n[n]
        print("n=%d: %d/%d cases agree" % (n, ok, total))
    print("total %d cases in %.2fs, %d disagreements"
          % (len(grid), time.process_time() - t0, len(disagreements)))
    for ci in disagreements:
        print("  DISAGREE:", ci)
    sample = grid[len(grid) // 2]
    print("sample %s: p(T) = %s, euler_top = %d"
          % (sample, hilbert_poly_hrr(sample).to_text(), euler_top(sample)))
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
