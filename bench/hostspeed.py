"""Host speed, sampled during a run, and run time scaled to a fixed speed.

The benchmark's host is a shared virtual machine whose speed switches
between levels that differ by up to 1.8x, for seconds to minutes at a time,
and wall time follows. To measure the lab rather than the host, a fixed
reference slice of work (`reference_slice`, this file's own code, never the
lab's) is timed before a run, every `INTERVAL_S` seconds during it (from a
SIGALRM handler, so the lab is not touched) and after it. Each stretch of
the run between two samples is scaled by NOMINAL_S over the mean of the two
samples around it, and the slices' own time is left out. The result is the
run's time on a host on which the slice takes NOMINAL_S: it moves with the
lab's speed and, to first order, not with the host's. Set-up time runs in
child processes and is not scaled here (see `measure_setup` in `run.py`).

The slice mixes the lab's kinds of work: small-matrix numpy calls and a
bisection on tiny arrays (ADMM iterations), uint64 array mixing (the RNG)
and two-column SVDs (exact gamma). Plain Python arithmetic is left out:
it slows down less than numpy-call-bound code when the host is slow.
"""

from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.2
# the slice's time on the benchmark's 2-CPU host at its fast level
NOMINAL_S = 0.005

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((24, 64))
_V = _rng.standard_normal(64)
_B = _rng.standard_normal((6, 2))
_W = np.arange(1, 65, dtype=np.uint64)


def reference_slice() -> float:
    """Seconds taken by one fixed slice of reference work."""
    t0 = time.perf_counter()
    acc = 0.0
    lo, hi = 0.0, 1.0
    for i in range(300):
        x = _A @ _V
        z = np.maximum(_A.T @ x - 0.1, 0.0)
        acc += float(np.linalg.norm(z))
        mid = 0.5 * (lo + hi)
        if float(np.linalg.norm(_V[:8] / (1.0 + mid * _V[8:16] ** 2))) > 1.0:
            lo = mid
        else:
            hi = mid
        w = (_W ^ (_W >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        acc += float(w[i % 64] >> np.uint64(53))
        if i % 3 == 0:
            acc += float(np.linalg.svd(_B, compute_uv=False)[-1])
    return time.perf_counter() - t0


class HostClock:
    """Samples of the reference slice: their start times and durations."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.durations.append(reference_slice())
        self.starts.append(t0)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def sampling(self):
        """Sample every INTERVAL_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """Call fn(*args): (result, wall seconds, scaled seconds, slow-down factor).

        The wall seconds include the samples taken during the call; the
        scaled seconds exclude them. If fn raises, the exception propagates.
        """
        first = len(self.starts)
        self.sample()
        t0 = time.perf_counter()
        with self.sampling():
            result = fn(*args)
        t1 = time.perf_counter()
        self.sample()
        starts = self.starts[first:]
        durs = self.durations[first:]
        # stretches of lab work between consecutive samples
        scaled = 0.0
        work = 0.0
        for k in range(len(durs) - 1):
            begin = t0 if k == 0 else starts[k] + durs[k]
            end = t1 if k == len(durs) - 2 else starts[k + 1]
            stretch = max(end - begin, 0.0)
            work += stretch
            scaled += stretch * NOMINAL_S / (0.5 * (durs[k] + durs[k + 1]))
        factor = work / scaled if scaled else 1.0
        return result, t1 - t0, scaled, factor
