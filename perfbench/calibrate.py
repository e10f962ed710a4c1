"""Reference seconds: timings corrected for the current speed of the CPU.

On a shared host the speed of a virtual CPU changes by tens of percent over
seconds to minutes, with a neighbour on the sibling hyperthread or a
frequency change, while the guest sees no lost time.  Raw wall times of one
op list then spread by 30% between runs.  So the benchmark times a fixed
pure-Python kernel next to every op, and during long ops every PERIOD
seconds from a SIGALRM handler, and reports reference seconds: the op's
seconds (handler time removed) times REFERENCE_S over the median kernel
time.  On a CPU that runs the kernel in REFERENCE_S, reference seconds are
wall seconds.  The kernel does float arithmetic, builds tuples and calls a
function, like the integrator's inner loop, and does not use the program,
so a faster program still reads faster.

This module imports only `time` and `signal`, which the program does not
use, so the set-up probe can load it before it times an import.
"""

import signal
from time import perf_counter

REFERENCE_S = 0.005
ITERATIONS = 12000
PERIOD = 0.25


def _stage(y, h):
    return (y[1] * h + 0.1, y[2] - y[0] * 0.25, abs(y[0]) + 1e-3)


def kernel_seconds():
    """Wall seconds of one run of the kernel."""
    y = (0.1, 0.2, 0.3)
    t0 = perf_counter()
    for _ in range(ITERATIONS):
        y = _stage(y, 0.5)
        y = (y[0] + 0.5 * y[1], y[1] - 0.5 * y[2], max(y[2], 0.0))
    return perf_counter() - t0


def _median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


class Probe:
    """Times calls and the kernel around and, when `sample` is set, during
    them.  One kernel run between two calls serves both."""

    def __init__(self, sample=True):
        self.sample = sample
        self.last = kernel_seconds()
        self.samples = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(kernel_seconds())
        self.paused += perf_counter() - t0

    def time(self, fn, *args):
        """Run fn(*args); return (result, seconds, scale), where seconds
        excludes the kernel runs and seconds * scale is reference seconds."""
        self.samples = [self.last]
        self.paused = 0.0
        if self.sample:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = perf_counter() - t0
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self.last = kernel_seconds()
        self.samples.append(self.last)
        return result, seconds - self.paused, REFERENCE_S / _median(self.samples)
