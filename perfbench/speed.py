"""Machine-speed probe for normalising wall times on a shared host.

On a virtual machine whose host is shared, the speed of a CPU can change by
a factor of two within a second and drift for minutes, so raw wall times of
the same work differ by tens of percent between runs.  The probe runs a
fixed kernel on a background thread every ``PERIOD_S`` seconds and records
how long each run of it took on that thread's CPU clock.  The kernel is
half small-array NumPy calls and half scalar Python math, the two mixes the
learner and the solvers spend their time in.  A pass's wall time integrated
at the sampled speed is a count of kernel durations, which moves when
teamgames gets faster or slower but much less when the host does.

The kernel never calls teamgames, but it shares the CPU's caches with the
workload, so the program's footprint moves the yardstick a little (see
perfbench/README.md for the measured size).  Pin the process to one CPU
before starting the probe, so that the thread samples the CPU the workload
runs on.
"""

from __future__ import annotations

import math
import threading
from time import perf_counter, thread_time

import numpy as np

# Kernel duration at nominal speed (an unloaded vCPU of a 2.1 GHz Xeon KVM
# guest).  It only converts kernel counts back into seconds for setup_s.
NOMINAL_KERNEL_S = 0.7e-3
PERIOD_S = 0.025  # pause between kernel samples
_X = np.linspace(0.1, 1.0, 101)
_VALUES = [0.3, 0.5, 0.7, 0.9]


def _bisect_log(shift: float) -> float:
    """Scalar bisection on a log-domain first-order condition, as the solvers do."""
    def f(r):
        return math.log(10.0 - r / 0.5) + math.log(0.25) - 11.0 * math.log(r) - shift

    lo, hi = 1e-9, 5.0
    f_lo = f(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo


def kernel() -> float:
    """Half small-array NumPy calls (the learner's mix), half scalar Python
    math (the solvers' mix): host contention slows the two by different
    factors, and the workloads blend them."""
    acc = 0.0
    for _ in range(30):
        t = np.log(np.asarray(_VALUES, dtype=float)) * -2.0
        m = float(t.max())
        acc += math.exp((m + math.log(float(np.exp(t - m).sum()))) / -2.0)
        p = np.exp(_X * 0.3)
        p /= p.sum()
        acc += int(np.searchsorted(np.cumsum(p), 0.5))
    for j in range(11):
        acc += _bisect_log(3.0 + 0.1 * j)
    return acc


class SpeedProbe:
    """Background sampler of kernel CPU time; a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self):
        c0 = thread_time()
        kernel()
        self.samples.append((perf_counter(), thread_time() - c0))

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def __enter__(self):
        self._sample()  # so that every later interval has a sample before it
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def kernels(self, t0: float, t1: float) -> float:
        """Integral of dt / kernel time over [t0, t1]: the interval in kernel durations.

        Each sample's kernel time stands for the speed since the previous
        sample, so a slow second and a fast second each count at their own
        speed.  Takes a sample on the calling thread if none follows t1 yet.
        """
        if not self.samples or self.samples[-1][0] < t1:
            self._sample()
        total, prev = 0.0, None
        for t, k in sorted(self.samples):
            if prev is not None:
                overlap = min(t, t1) - max(prev, t0)
                if overlap > 0:
                    total += overlap / k
            if t >= t1:
                return total
            prev = t
        raise RuntimeError("speed samples end before the measured interval does")
