"""The machine's speed, measured next to the program so its times can be
scaled to one reference speed.

The host of the benchmark shares its processors with other machines.
Time in which it runs another machine (steal time) adds to wall time but
not to the processor time of a process, so the benchmark measures
processor time.  The load on the shared cores also changes the speed of
the time that is left: by up to a factor of two, for seconds or for tens
of minutes.  A fixed pure-Python kernel, which uses no `hilbertpoly`
code, slows down in step with the program.  Over ten fresh-process
passes of the same `generic_ci` inputs, wall time varied by 17-25 %
(coefficient of variation), processor time by 9-10 %, and processor time
scaled by the kernel by 2 %.

While the sampler is started, a SIGPROF handler runs the kernel once
every `INTERVAL_S` of processor time, so the samples are spread evenly
over what is measured, inside long instances too.  `scale()` is
`REF_KERNEL_S` times the mean of 1/(kernel time) over the samples: the
factor that turns processor seconds measured in the process into
seconds at the reference speed, at which one kernel call takes
`REF_KERNEL_S`.  A change to the program moves the scaled times as it
moves the measured ones; a change of the machine's speed moves both the
times and the kernel, and cancels out.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import thread_time

REF_KERNEL_S = 200e-6   # about one kernel call on this host's slower state
INTERVAL_S = 0.005      # one kernel call (~4 % of the time) per interval

_FACTOR = {(i, j, 3 - i): i - 2 * j + 1 for i in range(4) for j in range(4)}


def kernel():
    """A product of two sparse integer polynomials and a Fraction sum: the
    dict, tuple and rational arithmetic that the program spends its time on."""
    product = {}
    for ea, ca in _FACTOR.items():
        for eb, cb in _FACTOR.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            product[e] = product.get(e, 0) + ca * cb
    total = Fraction(0)
    for k in range(1, 25):
        total += Fraction(k, k + 1)
    return len(product), total


class SpeedSampler:
    """Kernel samples taken from a timer while the sampler is started.
    `kernel_s` is the time spent in them, which the caller takes out of
    its own timings."""

    def __init__(self):
        self.kernel_s = 0.0
        self.samples = 0
        self.inverse_sum = 0.0

    def _sample(self, *_signal_args):
        start = thread_time()
        kernel()
        elapsed = thread_time() - start
        self.samples += 1
        self.inverse_sum += 1.0 / elapsed
        self.kernel_s += thread_time() - start

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def scale(self):
        """Reference seconds per second measured in this process."""
        if not self.samples:
            self._sample()
        return REF_KERNEL_S * self.inverse_sum / self.samples
