"""The machine's speed, sampled during a run by a fixed reference computation.

The benchmark runs on virtual machines whose share of a host core changes by
up to a factor of two over minutes, and CPU time follows wall time, so no
statistic of the workload's own times alone is steady from run to run.  A
run therefore also times a fixed computation that does not use crdf, the
reference, interleaved with the work, and reports every time in reference
seconds:

    time_ref = time_measured * REF_S / mean(reference time during that work)

On a machine that runs the reference in ``REF_S`` seconds a reference second
is a wall-clock second; when the host slows the process down, the work and the
reference slow down together and the ratio stays.

During the timed rounds an interval timer (``SIGALRM``) runs the reference
every ``INTERVAL_S`` seconds, between two bytecodes of whatever crdf is doing,
so long steps are sampled throughout.  ``Sampler.paused`` is the total time
spent in samples, which the caller subtracts from the time of its steps.
"""
from __future__ import annotations

import signal
import time

import numpy as np

REF_S = 0.020          # nominal time of one reference() call
INTERVAL_S = 0.25      # gap between the end of one sample and the next
REF_ITERATIONS = 4400

_COST = np.random.default_rng(20120204).random((3, 3)) * 2.0
_P = np.array([0.4, 0.3, 0.3])


def reference() -> float:
    """Blahut-Arimoto on a 3 x 3 cost table, a fixed number of iterations.

    Each iteration is a few numpy calls on 3 x 3 arrays, so, like crdf's
    solver, its time is mostly interpreter and numpy call overhead.  Of the
    reference computations tried, this one tracked the slowdowns of all
    four workloads most closely (perfbench/README.md).
    """
    a = np.exp(-1.5 * _COST)
    nu = np.full(3, 1.0 / 3.0)
    for _ in range(REF_ITERATIONS):
        w = a * nu
        w /= w.sum(axis=1, keepdims=True)
        nu = _P @ w
    return float(nu[0])


class Sampler:
    """Runs ``reference()`` every INTERVAL_S seconds while armed."""

    def __init__(self) -> None:
        self.samples: list = []      # (start, seconds) of each reference call
        self.paused = 0.0            # total time spent inside the handler
        self._armed = False
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference()
        self.samples.append((t0, time.perf_counter() - t0))

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self.paused += time.perf_counter() - t0

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def disarm(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mean_between(self, start: float, end: float) -> float | None:
        """Mean reference time of the samples taken in [start, end)."""
        times = [dt for t, dt in self.samples if start <= t < end]
        return sum(times) / len(times) if times else None

    def mean(self) -> float:
        return self.mean_between(float("-inf"), float("inf"))
