"""Machine-speed probe of the bmoblo benchmark.

The development machine is a shared 2-vCPU virtual machine whose speed
drifts by up to 1.7x within seconds, on both CPUs at once and in CPU time as
much as in wall time; raw op times then spread by 20-45 % from run to run.
The harness therefore times a fixed kernel every 0.25 s, from a SIGALRM
handler that interrupts the op in the main thread, and divides each op's
time by the kernel's slowdown during it. The handler's own time is taken
out of the op's time. This tracks the speed within a 6 s op as well as
across 5 ms ones, and needs no second thread or process.

The kernel mixes the kinds of work the CLI does: Python allocation, numpy
calls on one-element arrays and numpy arithmetic on large arrays. It runs
once untimed to warm the caches the op evicted, then once timed, with the
garbage collector off so that the size of the program's heap cannot change
its time. It does not use bmoblo, so no change to the program changes it.
"""

import bisect
import gc
import signal
import statistics
import time
from collections import deque

import numpy as np

# Kernel time at the development machine's fast state. Normalised times are
# the times the ops would take at that speed.
REF_S = 0.009
# Interval of the periodic samples, and the reach of the samples that set
# an op's slowdown.
PERIOD_S = 0.25
WINDOW_S = 0.5

# Every buffer the kernel touches is allocated once, so that a sample taken
# at an op's peak memory does not raise the process's peak RSS.
_BIG = np.linspace(0.0, 1.0, 100_000)
_TMP = np.empty_like(_BIG)


def kernel():
    q = deque([(0, 0, 0)] * 64)
    for i in range(40_000):
        d, c, p = q.popleft()
        q.append((d + 1, c ^ i, (p * 3 + i) & 1023))
    a = _TMP
    np.copyto(a, _BIG)
    for _ in range(5):
        np.multiply(a, a, out=a)
        np.add(a, 1.0, out=a)
        np.sqrt(a, out=a)
        np.subtract(a, 0.5, out=a)
    s = 0.0
    for i in range(200):
        s += float(np.sqrt(np.atleast_1d(float(i)))[0])
    return q[-1], float(a[-1]), s


class SpeedProbe:
    """Kernel samples, taken on demand or every PERIOD_S inside `with probe:`."""

    def __init__(self):
        self.starts = []  # handler entry
        self.ends = []
        self.times = []  # timed kernel run
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _on_alarm(self, signum, frame):
        # On a machine so slow that a sample outlasts the period, skip
        # alarms that queued up during it rather than starve the op.
        if not self.ends or time.perf_counter() - self.ends[-1] >= PERIOD_S / 2:
            self.sample()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self):
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(t1)
        self.times.append(t1 - t0)

    def _inside(self, t0, t1):
        return range(bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1))

    def busy(self, t0, t1):
        """Time the probe took inside [t0, t1]."""
        return sum(self.ends[i] - self.starts[i] for i in self._inside(t0, t1))

    def slowdown(self, t0, t1):
        """Median kernel time of the samples within WINDOW_S of [t0, t1]
        (else the nearest one on either side), over REF_S. The window
        smooths the jitter of single samples, which the tail of the op
        times would otherwise pick up."""
        near = self._inside(t0 - WINDOW_S, t1 + WINDOW_S)
        if not near:
            near = [i for i in (near.start - 1, near.start) if 0 <= i < len(self.times)]
        return statistics.median(self.times[i] for i in near) / REF_S
