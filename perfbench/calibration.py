"""How fast the host runs interpreter-bound code at this moment.

The machine this benchmark was tuned on shares its cores with other
tenants, and their load slows every Python process by up to half for
minutes at a time.  :func:`calibrate` times a fixed pure-Python event
loop (a heap of timers, generator resumes, dict and float updates: the
same kinds of work the simulator's kernel does) that no change to
``repro`` can speed up or slow down.  Runs interleave it with the timed
studies and scale their times by ``REFERENCE_S / mean(calibration)``,
so a figure reads as seconds on the host at its reference speed.
"""

from __future__ import annotations

import heapq
import time

#: Calibration seconds at the reference speed (about the loop's time on
#: a quiet 2-CPU container, python 3.11.7).  A fixed constant: it only
#: sets the scale of normalised figures, never their ratio between commits.
REFERENCE_S = 0.037


def _process(state: list):
    while True:
        state[0] += (yield) * 1.0001
        state[1] += 1


def calibrate(events: int = 60_000) -> float:
    """Seconds one fixed event loop takes now."""
    start = time.perf_counter()
    states = [[0.0, 0] for _ in range(64)]
    processes = [_process(state) for state in states]
    for process in processes:
        next(process)
    heap = [(0.001 * index, index, index) for index in range(64)]
    heapq.heapify(heap)
    tally: dict[int, int] = {}
    sequence = 64
    for _ in range(events):
        when, _, index = heapq.heappop(heap)
        processes[index].send(0.01)
        tally[index & 15] = tally.get(index & 15, 0) + 1
        sequence += 1
        heapq.heappush(heap, (when + 0.01 + (index % 7) * 0.001, sequence, index))
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """The factor that turns times taken alongside ``samples`` into
    seconds at the reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)
