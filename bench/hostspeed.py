"""Host-speed calibration of the benchmark's timings.

The benchmark runs on shared virtual machines whose single-core speed drifts.
On a 2-vCPU x86 VM, the rate of the fixed kernel below jumped between about
1500 and 2500 per second within seconds, with no steal time reported, and
30-second runs of the same cells spread by up to 38% from run to run. The
drift slows the Monte Carlo cells and the kernel alike, so while the cells
run, ``Sampler`` times a short slice of the kernel every ``SAMPLE_PERIOD``
seconds and the benchmark scales each cell's time to the host speed at which
the kernel runs ``REFERENCE_RATE`` iterations per second:

    reported time = (measured time - slice time) * mean kernel rate / REFERENCE_RATE

The kernel uses nothing from irs_multicast, so no change to the package moves
it. It mixes interpreter work with small complex SVD, QR and matrix products,
as a Monte Carlo cell does. Timings are comparable only between runs with the
same kernel, sampling and ``REFERENCE_RATE``.
"""

from __future__ import annotations

import math
import signal
import time
from array import array
from bisect import bisect_left, bisect_right

import numpy as np

# Kernel iterations per second on the reference host, about the rate of one
# core of a 2-vCPU x86 VM; it only sets the scale of the reported timings.
REFERENCE_RATE = 2000.0
# One kernel slice of SAMPLE_SECONDS every SAMPLE_PERIOD seconds: about 5% of
# the measured time goes to sampling.
SAMPLE_PERIOD = 0.1
SAMPLE_SECONDS = 0.005

_rng = np.random.default_rng(20220815)
_SQUARE = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))
_TALL = _rng.standard_normal((64, 16)) + 1j * _rng.standard_normal((64, 16))


def kernel_iteration() -> float:
    acc = 0.0
    for i in range(2000):
        acc += i * 0.5
    np.linalg.svd(_SQUARE)
    acc += float(np.abs(_TALL.conj().T @ _TALL).sum())
    np.linalg.qr(_TALL)
    return acc


class Sampler:
    """Host speed, sampled by a kernel slice from a SIGALRM interval timer.

    The slices interrupt the measured code in the main thread; ``spent`` adds
    up the seconds they take, so callers can take them out of their timings.
    """

    def __init__(self, period: float = SAMPLE_PERIOD,
                 slice_seconds: float = SAMPLE_SECONDS):
        self.period = period
        self.slice_seconds = slice_seconds
        self.times = array("d")    # middle of each slice, perf_counter seconds
        self.rates = array("d")    # kernel iterations per second in the slice
        self.spent = 0.0
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        n = 0
        while True:
            kernel_iteration()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= self.slice_seconds:
                break
        self.times.append(t0 + 0.5 * elapsed)
        self.rates.append(n / elapsed)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: float, end: float) -> float:
        """Mean speed factor of the samples in [start, end], else of the nearest one."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi > lo:
            return math.fsum(self.rates[lo:hi]) / (hi - lo) / REFERENCE_RATE
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
        i = min(near, key=lambda i: min(abs(self.times[i] - start),
                                        abs(self.times[i] - end)))
        return self.rates[i] / REFERENCE_RATE
