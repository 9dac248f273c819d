"""Host-speed reference for timing on a shared, drifting host.

The host this benchmark was defined on changes speed by 15-40 % over seconds
to minutes as other tenants load it, far more than the changes a benchmark
must resolve. A fixed pure-Python kernel (the probe) is timed between the
workload's operations, and every ``INTERVAL_S`` inside them, so that a long
operation is scaled by the speed the host had while it ran. The probe's time
inside an operation is taken out of the operation's time. Each operation's
host time is scaled by ``PROBE_REF_S`` over the probe's typical time (the
mean of the middle half of its samples) from ``WINDOW_S`` before the
operation starts to ``WINDOW_S`` after it ends, which expresses it at the
reference host speed. The probe runs benchmark code only, so a change to
dyncomp changes the operations' times and not the probe's. It runs in the
workload's interpreter with the garbage collector off, and after an
operation only once the garbage the operation left behind has been
collected (worker.py).
"""
from __future__ import annotations

import bisect
import contextlib
import gc
import math
import signal
import statistics
from dataclasses import dataclass, replace
from time import perf_counter

# Probe time that defines the reference speed: a round figure within the
# range of its medians (0.4-0.65 ms) on the 2-vCPU Xeon (2.1 GHz) host,
# Python 3.11, on which the benchmark was defined.
PROBE_REF_S = 0.5e-3
WINDOW_S = 0.5
# Probe period inside operations: 1-2 % of the run, about 60 samples in a
# 3-second Monte Carlo call.
INTERVAL_S = 0.05
# Seconds to spawn an interpreter that only prints a line, at the reference
# speed: a round figure near its median (0.051 s) on the same host. Set-up
# times are scaled by this over an adjacent spawn (run_bench.py).
SPAWN_REF_S = 0.05


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _step(x: float, i: int) -> float:
    return math.sqrt(x + i) * 0.5


def _kernel() -> float:
    # Two halves, like the simulator's code: float arithmetic with a call
    # per iteration, then frozen-dataclass updates through replace(). Of the
    # kernels tried, this mix tracked the simulator's speed changes closest.
    acc = 0.0
    x = 1.0
    for i in range(1000):
        x = _step(x, i)
        acc += x / (1.0 + x * x)
    point = _Point(1.0, 2.0)
    for _ in range(200):
        point = replace(point, x=point.x + 1e-3)
        acc += point.x * point.y
    return acc


def _typical(seconds: list[float]) -> float:
    """Mean of the middle half: steadier than the median, deaf to a preempted sample."""
    ordered = sorted(seconds)
    k = len(ordered) // 4
    return statistics.fmean(ordered[k:len(ordered) - k])


class HostClock:
    """Probe samples with their start times, and the speed factor they imply.

    ``exponent`` states how strongly the measured work follows the probe: the
    factor is the probe's speed ratio raised to it (workloads.SPEED_EXPONENT).
    """

    def __init__(self, exponent: float = 1.0):
        self.exponent = exponent
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.inside_s = 0.0         # probe time spent inside operations

    def sample(self, n: int = 2) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                t0 = perf_counter()
                _kernel()
                self.starts.append(t0)
                self.seconds.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.sample(1)
        self.inside_s += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        """Probe every INTERVAL_S while the body runs; ``inside_s`` grows by the probe time."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Multiplier that scales host seconds measured from start to end to the reference speed."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return (PROBE_REF_S / _typical(self.seconds[lo:hi] or self.seconds)) ** self.exponent

    def speed(self) -> float:
        """Host speed over the whole record, relative to the reference (1 = reference)."""
        return PROBE_REF_S / _typical(self.seconds)
