"""Host-speed calibration for the timed metrics.

The shared 2-core host this benchmark was tuned on changes speed by tens
of percent every few seconds, on each core on its own, without steal
time or run-queue contention showing: a fixed pure-Python loop ran
anywhere from 276k to 637k iterations per second inside one five-minute
window. Wall-clock throughput then spreads more between runs than any
regression worth catching.

So while a timed segment runs, a wall-clock timer interrupts it every
``SAMPLE_EVERY_S`` and runs a fixed calibration kernel for a few
milliseconds; the kernel mixes what a step does (interpreted float math,
small NumPy vectors, float-to-text formatting).  The pauses are taken out
of the segment's time, and the mean kernel rate over the segment rescales
its seconds to a host that runs the kernel at ``REFERENCE_RATE``.  The
kernel does not touch sgident, so a change to the program cannot move the
yardstick.
"""

from __future__ import annotations

import csv
import io
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_RATE = 400_000.0  # kernel iterations per second of the reference host
SAMPLE_ITERATIONS = 4_000  # about 10 ms per sample during a segment
EDGE_ITERATIONS = 40_000  # about 100 ms per sample at a segment's edges
SAMPLE_EVERY_S = 0.25


def kernel_rate(iterations=SAMPLE_ITERATIONS):
    """Iterations per second of the calibration kernel."""
    a = np.linspace(0.1, 0.5, 5)
    writer = csv.writer(io.StringIO())
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(iterations):
        b = np.array(a, dtype=float)
        z = float(np.dot(a, b))
        acc += math.tanh(z * 1e-3 + i * 1e-9)
        if i % 8 == 0:
            writer.writerow([i, repr(acc), repr(z)])
    return iterations / (time.perf_counter() - t0)


class Stopwatch:
    """Times segments at reference host speed.

    ``time(fn, *args)`` returns ``(result, seconds, reference_seconds)``:
    the wall time of ``fn`` without the calibration pauses, and that time
    scaled by the mean kernel rate sampled before, during and after it.
    With ``sample_during=False`` only the two edge samples are taken, for
    segments that are being traced (a sample would land inside a span).
    Segments must run in the main thread, which receives SIGALRM.
    """

    def __init__(self, sample_during=True):
        self.sample_during = sample_during
        self.rates = []
        self._paused = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.rates.append(kernel_rate())
        self._paused += time.perf_counter() - t0

    def time(self, fn, *args):
        sample_during = self.sample_during
        first = len(self.rates)
        self.rates.append(kernel_rate(EDGE_ITERATIONS))
        self._paused = 0.0
        if sample_during:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = time.perf_counter() - t0
            if sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        seconds -= self._paused
        self.rates.append(kernel_rate(EDGE_ITERATIONS))
        speed = statistics.fmean(self.rates[first:]) / REFERENCE_RATE
        return result, seconds, seconds * speed
