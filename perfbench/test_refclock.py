"""Tests of the reference sampler: run with ``python3 -m pytest perfbench``."""
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refclock  # noqa: E402


def test_reference_is_deterministic():
    assert refclock.reference() == refclock.reference()


def test_sampler_samples_during_work_and_accounts_for_its_time():
    sampler = refclock.Sampler()
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    sampler.arm()
    try:
        while time.perf_counter() - t0 < 1.2:   # busy work, as a step would be
            sum(range(1000))
    finally:
        sampler.disarm()
    t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(sampler.samples) >= 3
    spent = sum(dt for _, dt in sampler.samples)
    assert spent <= sampler.paused < t1 - t0
    assert sampler.mean_between(t0, t1) == sampler.mean()
    assert sampler.mean_between(t1, t1 + 1.0) is None
    n = len(sampler.samples)
    time.sleep(2 * refclock.INTERVAL_S)     # disarmed: no further samples
    assert len(sampler.samples) == n
