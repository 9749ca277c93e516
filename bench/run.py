#!/usr/bin/env python3
"""hilbertpoly benchmark: one workload, measured in fresh processes.

Usage (from the root of a checkout):

    python3 bench/run.py --workload ci_report --seed 1 --seconds 25 --trace 0

Untraced (--trace 0): a few set-up probes, then rounds until --seconds
have passed.  Each round is a fresh process that imports hilbertpoly,
generates one pass of inputs from the seed and runs the pass once,
checking every answer.  Prints the end-to-end metrics, with every time
scaled to the reference speed of speed.py (the times as measured go to
stderr).

Traced (--trace 1): pairs of rounds on the same inputs (the seed's first
pass), one untraced and one with every public function of each layer
wrapped, until --seconds have passed.  Prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exits 2 without a result when
the program's source is missing, a process of the benchmark fails or
every operation of an untraced run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layertrace import LAYERS
from speed import REF_KERNEL_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 3
PROCESS_TIMEOUT_S = 150

# per-layer call-count metric -> wrapped function it counts
CALL_METRICS = {
    "grobner.buchberger_calls": "grobner.buchberger",
    "arith.multipoly_mul_calls": "arith.MultiPoly.__mul__",
    "arith.truncseries_mul_calls": "arith.TruncSeries.__mul__",
    "arith.unipoly_mul_calls": "arith.UniPoly.__mul__",
    "symfun.delta_table_calls": "symfun.delta_table",
    "symfun.delta_coeff_calls": "symfun.delta_coeff",
    "symfun.delta_det_calls": "symfun.delta_det",
    "partitions.enumerate_partitions_calls": "partitions.enumerate_partitions",
    "chern.hilbert_poly_hrr_calls": "chern.hilbert_poly_hrr",
    "chern.chern_tangent_calls": "chern.chern_tangent",
    "chern.character_table_calls": "chern.character_table",
    "linalg.det_calls": "linalg.det",
    "linalg.rank_calls": "linalg.rank",
    "linalg.solve_calls": "linalg.solve",
    "linalg.inverse_calls": "linalg.inverse",
    "transversality.report_calls": "transversality.transversality_report",
}


class BenchError(RuntimeError):
    pass


def spawn(workload, pass_seed, mode):
    """Run one worker process to its end; returns its result."""
    spec = {"root": ROOT, "workload": workload, "pass_seed": pass_seed, "mode": mode}
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT,
                              timeout=PROCESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker exceeded %d s" % (mode, PROCESS_TIMEOUT_S)) from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s worker exited with %d" % (mode, proc.returncode))
    return json.loads(lines[-1])


def rounds_until(seconds, make_round):
    """Call make_round(i) for i = 0, 1, ... while another round, of the
    mean length so far, would end less than half a round past `seconds`;
    returns what the calls returned.  There is always at least one round."""
    start = time.monotonic()
    out = []
    while True:
        out.append(make_round(len(out)))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(out) / 2 >= seconds:
            return out


def pass_seed(workload, seed, i):
    return "%s:%d:%d" % (workload, seed, i)


def report_problems(rounds):
    for r in rounds:
        for problem in r.get("problems", []):
            print("problem: " + problem, file=sys.stderr)


def interquartile_mean(values):
    """Mean of the values between the first and the third quartile."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def end_to_end(probes, rounds, scaled):
    """The end-to-end metrics: in seconds at the reference speed of
    speed.py if `scaled`, else as measured."""
    def ref(r, seconds, scale):
        return r[seconds] * r[scale] if scaled else r[seconds]

    times = "ref_times" if scaled else "times"
    return {
        "setup_s": (statistics.median(ref(r, "setup_s", "setup_scale")
                                      for r in probes + rounds), "s"),
        # pooled over the run: the inputs of one round differ in difficulty
        # (on sat_count the work of a round varies by about 20 %)
        "instances_per_s": (sum(len(r["times"]) for r in rounds)
                            / sum(ref(r, "pass_s", "scale") for r in rounds), "1/s"),
        # per round, so that the mix of instances does not depend on how
        # many rounds fit into the run
        "instance_iqm_ms": (1000 * statistics.fmean(
            interquartile_mean(r[times]) for r in rounds if r[times]), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kib"] for r in rounds) / 1024, "MiB"),
    }


def untraced(workload, seed, seconds):
    probes = [spawn(workload, pass_seed(workload, seed, i), "probe")
              for i in range(SETUP_PROBES)]
    rounds = rounds_until(seconds, lambda i: spawn(
        workload, pass_seed(workload, seed, i), "timed"))
    report_problems(rounds)
    if not any(r["times"] for r in rounds):
        raise BenchError("all %d operations failed" % sum(r["attempted"] for r in rounds))
    metrics = end_to_end(probes, rounds, scaled=True)
    measured = end_to_end(probes, rounds, scaled=False)
    print("measured, unscaled: %s; reference kernel %.1f us (median over rounds)" % (
        ", ".join("%s %.4g %s" % (k, v, u) for k, (v, u) in measured.items()),
        1e6 * REF_KERNEL_S / statistics.median(r["scale"] for r in rounds)),
        file=sys.stderr)
    return rounds, metrics


def traced(workload, seed, seconds):
    seed0 = pass_seed(workload, seed, 0)
    pairs = rounds_until(seconds, lambda i: (spawn(workload, seed0, "timed"),
                                             spawn(workload, seed0, "traced")))
    plain = [p[0] for p in pairs]
    rounds = [r for p in pairs for r in p]
    report_problems(rounds)
    traces = [p[1]["trace"] for p in pairs]
    first = traces[0]
    if any(t["calls"] != first["calls"] for t in traces):
        print("warning: call counts differ between traced rounds", file=sys.stderr)

    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (
            statistics.median(t["self_s"].get(layer, 0.0) for t in traces), "s")
    for name, key in CALL_METRICS.items():
        metrics[name] = (first["calls"].get(key, 0), "count")
    metrics["grobner.basis_size_max"] = (first["basis_size_max"], "count")
    metrics["grobner.max_coeff_digits"] = (first["max_coeff_digits"], "digits")
    metrics["grobner.hilbert_series_monomial_s"] = (statistics.median(
        t["inclusive_s"].get("grobner.hilbert_series_monomial", 0.0) for t in traces), "s")
    metrics["cli.import_s"] = (statistics.median(r["import_s"] for r in rounds), "s")
    metrics["trace.overhead_s"] = (statistics.median(p[1]["pass_s"] for p in pairs)
                                   - statistics.median(r["pass_s"] for r in plain), "s")
    return rounds, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hilbertpoly", "cli.py")):
        print("error: no hilbertpoly source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    run = traced if args.trace else untraced
    try:
        rounds, metrics = run(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
