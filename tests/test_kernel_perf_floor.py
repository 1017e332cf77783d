"""Nightly perf floor: the bare-callback fast lane must stay fast.

The committed trajectory lives in ``benchmarks/results/
BENCH_perf_core.json``; this wall is the tripwire that fails a nightly
run (``pytest -m slow``) if the fast lane regresses back toward the
seed shape's throughput (one generator process per timer chain, a
fresh ``Timeout`` per wait).  The floor is a live same-machine ratio,
set well under the recorded ~2x margin so shared-runner noise cannot
trip it, while a real regression — a lost inline, an accidental
allocation on the hot path — still does.
"""

from __future__ import annotations

import time

import pytest

from repro.net.env import Environment

pytestmark = pytest.mark.slow


class _Ticker:
    __slots__ = ("call_later", "remaining")

    def __init__(self, call_later, remaining):
        self.call_later = call_later
        self.remaining = remaining

    def __call__(self):
        left = self.remaining - 1
        if left:
            self.remaining = left
            self.call_later(0.001, self)


def _callback_storm(chains: int = 50, depth: int = 1000) -> float:
    env = Environment()
    for _ in range(chains):
        env.call_later(0.001, _Ticker(env.call_later, depth))
    start = time.perf_counter()
    env.run()
    return env.scheduled_count / (time.perf_counter() - start)


def _generator_storm(procs: int = 50, timeouts: int = 1000) -> float:
    def worker(env, n):
        for _ in range(n):
            yield env.timeout(0.001)

    env = Environment()
    for _ in range(procs):
        env.process(worker(env, timeouts))
    start = time.perf_counter()
    env.run()
    return env.scheduled_count / (time.perf_counter() - start)


def _best_of(fn, repeats: int = 3) -> float:
    return max(fn() for _ in range(repeats))


def test_fast_lane_beats_seed_shape():
    """Heap + bare-callback fast lane vs the seed shape (heap + generator
    timeouts), live on this machine: the fast lane's headline ratio."""
    seed_shape = _best_of(_generator_storm)
    fast_lane = _best_of(_callback_storm)
    ratio = fast_lane / seed_shape
    assert ratio >= 1.5, f"fast lane regressed to {ratio:.2f}x the seed shape"
