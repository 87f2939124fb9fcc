"""Machine-speed reference: every reported time is scaled to one fixed speed.

On the 2-vCPU Xeon virtual machine this benchmark was built on, the same
code ran at anything from full to half speed, in stretches from under a
second to minutes, because other guests share the cores (CPU time rose
with wall time, so it was not stolen time). Raw seconds measured a minute
apart differed by up to 2x for identical work, more than any bound a
comparison between commits can use. So each timed span is scaled:

    scaled = measured * REF_KERNEL_S / kernel

``kernel`` is the mean time of a fixed ``Fraction`` multiply-add kernel
(the kind of work ``Poly.__mul__`` does) measured right before and right
after the span and, for spans longer than SAMPLE_EVERY_S, from a timer
every SAMPLE_EVERY_S inside it; the time those inner samples take is
removed from the span first. ``REF_KERNEL_S`` is the kernel's undisturbed
time on that machine, so a scaled second is a second at its full speed. A
change to the program moves the measured time and not the kernel, so it
shows in the scaled time in full.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the kernel's time at full speed on the reference machine (Python 3.11)
REF_KERNEL_S = 0.002
KERNEL_SIZE = 24
KERNEL_RUNS = 3
SAMPLE_EVERY_S = 0.05


def _kernel() -> None:
    a = [Fraction(i * 7919 + 1, 3 ** (i % 7) + 1) for i in range(KERNEL_SIZE)]
    b = [Fraction(i * 104729 + 3, 5 ** (i % 5) + 2) for i in range(KERNEL_SIZE)]
    out = [Fraction(0)] * (2 * KERNEL_SIZE - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y


def kernel_time() -> float:
    """Seconds the kernel takes now: the fastest of a few runs."""
    best = float("inf")
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Span:
    """Times one span of work and scales it by the kernel samples around and inside it.

    Use as ``with Span(sample=True) as span: work()``, then read
    ``span.seconds`` (measured, sampling removed), ``span.scaled`` and
    ``span.pauses``, the (start, end) ``perf_counter_ns`` of each sample
    taken inside the span.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.kernels = [kernel_time()]
        self.pauses: list[tuple[int, int]] = []
        self.seconds = self.scaled = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.kernels.append(kernel_time())
        self.pauses.append((start, time.perf_counter_ns()))

    def __enter__(self):
        if self.sample:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        paused = sum(e - s for s, e in self.pauses)
        self.seconds = (end - self.start - paused) / 1e9
        self.kernels.append(kernel_time())
        self.scaled = self.seconds * REF_KERNEL_S / statistics.fmean(self.kernels)
