"""One fresh process of the benchmark: set-up, then one pass.

Usage: python3 worker.py '<json spec>' with keys root (checkout root),
workload, pass_seed and mode ("probe", "timed" or "traced").  Set-up is
the import of hilbertpoly.cli plus the generation of the pass's inputs;
a probe stops there.  A timed or traced process then runs every input
once, checking each answer before the next call, and prints one JSON
line with its measurements.

Times are processor time.  The reference kernel of `speed.py` samples
the machine's speed all through set-up and through a timed pass; its
own time is left out of every time reported.  `setup_scale` and `scale`
are the factors that turn set-up and pass times into seconds at the
reference speed, and `ref_times` are the instance times so turned.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

from speed import REF_KERNEL_S, SpeedSampler


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    speed = SpeedSampler()

    def now():
        return time.thread_time(), speed.kernel_s, speed.samples, speed.inverse_sum

    def elapsed(since):
        """Time since `since`, less the kernel's, and the scale of the
        samples taken meanwhile (of all samples when there were none)."""
        end = now()
        seconds = end[0] - since[0] - (end[1] - since[1])
        samples = end[2] - since[2]
        scale = (REF_KERNEL_S * (end[3] - since[3]) / samples if samples
                 else speed.scale())
        return seconds, scale

    speed.start()
    start = now()
    import hilbertpoly.cli  # noqa: F401  (the import being timed)
    import_s, _ = elapsed(start)
    from workloads import WORKLOADS
    workload = WORKLOADS[spec["workload"]]()
    inputs = workload.inputs(random.Random(spec["pass_seed"]))
    speed.stop()
    # processor time since the process started: interpreter start-up,
    # the import and the inputs
    result = {"setup_s": time.process_time() - speed.kernel_s,
              "setup_scale": speed.scale(), "import_s": import_s}
    if spec["mode"] == "probe":
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["mode"] == "traced":
        from layertrace import LayerTracer
        tracer = LayerTracer().install()

    times, ref_times, failed, wrong, problems = [], [], 0, 0, []
    # not in a traced pass: the kernel's time would count toward the
    # self time of the layer it interrupts
    if tracer is None:
        speed.start()
    start = now()
    for inp in inputs:
        t = now()
        try:
            answer = workload.run(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            problems.append("%r raised %r" % (inp[:2], exc))
            continue
        seconds, scale = elapsed(t)
        times.append(seconds)
        ref_times.append(seconds * scale)
        bad = workload.check(inp, answer)
        if bad:
            wrong += 1
            problems.append("%r: %s" % (inp[:2], "; ".join(bad)))
    pass_s, scale = elapsed(start)
    speed.stop()

    result.update(
        attempted=len(inputs), failed=failed, wrong=wrong, problems=problems[:5],
        times=times, pass_s=pass_s,
        rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is None:
        result.update(ref_times=ref_times, scale=scale)
    else:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
