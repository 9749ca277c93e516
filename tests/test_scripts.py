"""Each sweep in scripts/ at its smallest size: it must exit 0 and print
its summary line."""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args, summary", [
    ("run_ci_grid.py", ["3", "2", "2"], r"total \d+ cases in [\d.]+s, 0 disagreements"),
    ("run_sat_corpus.py", ["3", "4", "1"],
     r"3 instances in [\d.]+s processor time, 0 mismatches"),
    ("run_transversality_sweep.py", ["2", "0"], r"\d+/8 transversal in [\d.]+s"),
])
def test_script_runs_and_summarises(script, args, summary):
    out = subprocess.run([sys.executable, os.path.join("scripts", script)] + args,
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert re.search(summary, out.stdout), out.stdout
