"""BENCH-PERF-CORE — kernel and campaign throughput trajectory.

Unlike the figure benches (which assert paper *shapes*), this one
tracks *speed*: raw kernel event throughput, TCP exchange throughput
(the hot path the closed-form slow start optimizes), end-to-end trial
throughput serial vs ``--jobs auto``, whole-sweep campaign submission
vs the per-configuration barrier path, and columnar (OutcomeBatch /
vectorized bootstrap) vs per-trial Python-loop aggregation.  Numbers
land in ``benchmarks/results/BENCH_perf_core.json`` so the perf
trajectory is populated run over run.

Determinism is asserted alongside speed: the parallel campaign must
reproduce the serial outcomes byte-for-byte.

Speedup assertions are scaled to the runner's usable CPUs (the
process's affinity set where the platform reports one, else
``os.cpu_count()``): the ≥3× parallel target only applies with ≥4 CPUs
(trials are embarrassingly parallel, so the pool scales with cores);
single-core CI still measures and archives.
``--smoke`` (CI) shrinks every workload and skips the speedup floors —
shared runners are too noisy to assert ratios on — while still
exercising each path and archiving what it measured.
"""

from __future__ import annotations

import json
import os
import pickle
import time

import numpy as np
import pytest
from conftest import RESULTS_DIR

from repro.analysis.stats import bootstrap_ci, summarize
from repro.core.config import PlayerConfig
from repro.net.bandwidth import ConstantBandwidth
from repro.net.env import Environment
from repro.net.latency import ConstantLatency
from repro.net.link import Link
from repro.net.tcp import TCPConnection, TCPParams
from repro.sim.campaign import Campaign, OutcomeBatch
from repro.sim.profiles import testbed_profile
from repro.sim.runner import TrialRunner
from repro.sim.shm import OutcomeArena, encode_side
from repro.units import KB, mbit

RESULT_FILE = RESULTS_DIR / "BENCH_perf_core.json"

#: Trial count of the paper's campaigns (§5.2) — the parallel target.
CAMPAIGN_TRIALS = 20

#: The seed tree's archived ``kernel_events_per_sec`` (commit 89e28d2,
#: this machine): the monolithic heapq kernel driving the same periodic
#: wake-up storm through generator timeouts — the workload the fast
#: lane replaced.  The recorded ``kernel_speedup_vs_seed`` is the
#: fast lane's headline ratio against this pinned number.
SEED_KERNEL_EVENTS_PER_SEC = 516_785


def _usable_cpus() -> int:
    """CPUs this process may run on: the affinity set where the
    platform reports one (a container's CPU limit), else cpu_count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def perf_record(smoke):
    record: dict[str, object] = {
        "schema": "perf_core/v2",
        "cpu_count": _usable_cpus(),
        "smoke": smoke,
    }
    yield record
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


class _Ticker:
    """A periodic wake-up churner on the bare-callback fast lane — the
    link ``_arm_wake`` pattern distilled: each firing re-arms itself
    until its budget runs out, so every event is one fast-lane push and
    one dispatch with zero Event allocations."""

    __slots__ = ("call_later", "remaining")

    def __init__(self, call_later, remaining):
        self.call_later = call_later
        self.remaining = remaining

    def __call__(self):
        left = self.remaining - 1
        if left:
            self.remaining = left
            self.call_later(0.001, self)


def _callback_storm(chains: int, depth: int) -> float:
    """Fast-lane events per second: ``chains`` concurrent churners,
    ``depth`` wake-ups each — the same logical workload the seed
    baseline drove through generator timeouts."""
    env = Environment()
    for _ in range(chains):
        env.call_later(0.001, _Ticker(env.call_later, depth))
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return env.scheduled_count / elapsed


def _generator_storm(procs: int, timeouts: int) -> float:
    """Generator-timeout events per second — the seed's exact workload
    (``kernel_events_per_sec`` in the archived baseline), kept so the
    classic lane's trajectory stays visible too."""

    def worker(env, n):
        for _ in range(n):
            yield env.timeout(0.001)

    env = Environment()
    for _ in range(procs):
        env.process(worker(env, timeouts))
    start = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - start
    return env.scheduled_count / elapsed


def test_kernel_event_throughput(perf_record, smoke):
    """Dispatch rate of the bare discrete-event kernel, per lane.  The
    headline ``kernel_events_per_sec`` is the fast lane — the
    production hot path — and ``kernel_speedup_vs_seed`` is its ratio
    against the pinned seed baseline (same logical workload)."""
    chains, depth = (10, 300) if smoke else (50, 2000)
    repeats = 1 if smoke else 5
    # Interleaved best-of: a burst of host load then slows both lanes
    # alike instead of skewing the live ratio below.
    fast = classic = 0.0
    for _ in range(repeats):
        fast = max(fast, _callback_storm(chains, depth))
        classic = max(classic, _generator_storm(chains, depth))
    assert fast > 10_000  # sanity floor, not a target
    perf_record["kernel_events_per_sec"] = round(fast)
    perf_record["kernel_generator_events_per_sec"] = round(classic)
    perf_record["kernel_speedup_vs_seed"] = round(fast / SEED_KERNEL_EVENTS_PER_SEC, 3)
    if not smoke:
        # Live same-machine floor (the nightly wall re-asserts this via
        # tests/test_kernel_perf_floor.py): the fast lane must
        # comfortably beat the seed-shaped generator path.
        live_ratio = fast / classic
        perf_record["kernel_live_speedup"] = round(live_ratio, 3)
        assert live_ratio >= 1.8, f"fast lane only {live_ratio:.2f}x the generator lane"


def test_tcp_exchange_throughput(perf_record, smoke):
    """Slow-start exchanges per second — the path where the closed-form
    cap schedule replaced a pacer process and the pooled timers
    replaced per-exchange Timeout allocations."""
    exchanges = 300 if smoke else 2000
    repeats = 1 if smoke else 2

    def run() -> float:
        env = Environment()
        link = Link(env, ConstantBandwidth(mbit(80.0)))
        conn = TCPConnection(
            env, link, ConstantLatency(0.020), TCPParams(idle_reset_after=0.05)
        )

        def main(env):
            yield env.process(conn.connect())
            for _ in range(exchanges):
                yield env.process(conn.exchange(64 * KB))
                yield env.timeout(0.2)  # idle reset: fresh slow start each time

        proc = env.process(main(env))
        start = time.perf_counter()
        env.run(until=proc)
        return exchanges / (time.perf_counter() - start)

    rate = max(run() for _ in range(repeats))
    assert rate > 100  # sanity floor
    perf_record["tcp_exchanges_per_sec"] = round(rate)


def test_campaign_throughput_serial_vs_parallel(perf_record, smoke):
    """A 20-trial fig3-style configuration, serial vs ``jobs='auto'``."""
    config = PlayerConfig(scheduler="harmonic", base_chunk_bytes=64 * KB)
    trials = 6 if smoke else CAMPAIGN_TRIALS

    def run(jobs):
        runner = TrialRunner(testbed_profile, trials=trials, jobs=jobs)
        start = time.perf_counter()
        result = runner.run("perf-core", runner.msplayer(config))
        return time.perf_counter() - start, result

    serial_s, serial = run("serial")
    parallel_s, parallel = run("auto")
    speedup = serial_s / parallel_s

    perf_record["campaign_trials"] = trials
    perf_record["campaign_serial_s"] = round(serial_s, 4)
    perf_record["campaign_auto_s"] = round(parallel_s, 4)
    perf_record["campaign_auto_speedup"] = round(speedup, 3)
    perf_record["campaign_trials_per_sec_serial"] = round(trials / serial_s, 2)
    perf_record["campaign_trials_per_sec_auto"] = round(trials / parallel_s, 2)

    # Determinism before speed: byte-identical outcomes.
    assert serial.startup_delays() == parallel.startup_delays()
    assert [o.finished_at for o in serial.outcomes] == [
        o.finished_at for o in parallel.outcomes
    ]

    cpus = _usable_cpus()
    if smoke:
        pass  # measured and archived; shared runners are too noisy to gate on
    elif cpus >= 4:
        assert speedup >= 3.0, f"expected >=3x on {cpus} CPUs, got {speedup:.2f}x"
    elif cpus >= 2:
        assert speedup >= 1.2, f"expected >=1.2x on {cpus} CPUs, got {speedup:.2f}x"


def _sweep_configs() -> list[tuple[str, PlayerConfig]]:
    """A fig3-slice sweep: 6 configurations, heterogeneous durations."""
    configs = []
    for scheduler in ("harmonic", "ewma", "ratio"):
        for chunk in (64 * KB, 256 * KB):
            configs.append(
                (
                    f"{scheduler}-{chunk // KB}KB",
                    PlayerConfig(scheduler=scheduler, base_chunk_bytes=chunk),
                )
            )
    return configs


def test_campaign_vs_barrier_throughput(perf_record, smoke):
    """Whole-sweep campaign submission vs the PR-1 per-configuration
    barrier path (``TrialRunner.run`` once per configuration), both on
    ``jobs='auto'``.  The campaign feeds every configuration's trials
    to the pool at once, so workers never idle at configuration
    boundaries."""
    trials = 3 if smoke else 8

    # Warm the shared pool outside both timed regions so neither path
    # pays the one-off fork cost (pools are cached by worker count —
    # whichever run went first would otherwise absorb it).
    warmup = TrialRunner(testbed_profile, trials=2, jobs="auto")
    warmup.run("warmup", warmup.msplayer(PlayerConfig()))

    def run_barrier():
        runner = TrialRunner(testbed_profile, trials=trials, jobs="auto")
        start = time.perf_counter()
        results = {
            label: runner.run(label, runner.msplayer(config))
            for label, config in _sweep_configs()
        }
        return time.perf_counter() - start, results

    def run_campaign():
        runner = TrialRunner(testbed_profile, trials=trials)
        campaign = Campaign(jobs="auto")
        # Spec construction inside the timed region, symmetric with the
        # barrier path (TrialRunner.run builds specs per call).
        start = time.perf_counter()
        for label, config in _sweep_configs():
            campaign.add_run(runner, label, runner.msplayer(config))
        results = campaign.run()
        return time.perf_counter() - start, results

    barrier_s, barrier = run_barrier()
    campaign_s, campaign = run_campaign()
    speedup = barrier_s / campaign_s

    perf_record["sweep_configurations"] = len(_sweep_configs())
    perf_record["sweep_trials_per_config"] = trials
    perf_record["sweep_barrier_s"] = round(barrier_s, 4)
    perf_record["sweep_campaign_s"] = round(campaign_s, 4)
    perf_record["sweep_campaign_speedup"] = round(speedup, 3)

    # Determinism first: interleaving changes nothing per label.
    for label, _config in _sweep_configs():
        assert campaign[label].startup_delays() == barrier[label].startup_delays()
        assert [o.finished_at for o in campaign[label].outcomes] == [
            o.finished_at for o in barrier[label].outcomes
        ]

    # Barrier removal only shows with real workers to keep busy; the
    # serial fallback (1 CPU) runs the same trials either way.
    if not smoke and _usable_cpus() >= 4:
        assert speedup >= 1.05, f"campaign slower than barrier path: {speedup:.2f}x"


def test_columnar_aggregation_throughput(perf_record, smoke):
    """OutcomeBatch-vectorized analysis vs the retired per-trial
    Python-loop accessors, on a campaign-sized outcome list."""
    runner = TrialRunner(testbed_profile, trials=4)
    seed_result = runner.run(
        "agg", runner.msplayer(PlayerConfig(), stop="cycles", target_cycles=1)
    )
    # Campaign-scale sample without campaign-scale simulation time:
    # replicate the real outcomes (aggregation cost is what's measured).
    outcomes = (seed_result.outcomes * 500)[: (400 if smoke else 2000)]

    def python_loop_queries():
        """What the retired accessors did: every statistic re-walks the
        outcome objects (TrialResult.startup_delays / cycle_durations /
        traffic_fractions were each their own pass over the Python
        objects, and Table 1 alone made four of them)."""
        startups = [o.startup_delay for o in outcomes if o.startup_delay is not None]
        cycles: list[float] = []
        for outcome in outcomes:
            cycles.extend(outcome.metrics.completed_cycle_durations())
        values = [summarize(startups).median, summarize(cycles).median]
        for path_id in (0, 1):
            for phase in ("prebuffer", "rebuffer"):
                fractions = [
                    o.metrics.traffic_fraction(path_id, phase) for o in outcomes
                ]
                values.append(float(np.mean(fractions)))
                values.append(float(np.std(fractions)))
        return values

    batch = OutcomeBatch.from_outcomes(outcomes)

    def columnar_queries():
        """Vectorized queries on the cached batch — TrialResult builds
        its OutcomeBatch once and every accessor rides on it."""
        values = [
            summarize(batch.startup_delays()).median,
            summarize(batch.cycle_durations).median,
        ]
        for path_id in (0, 1):
            for phase in ("prebuffer", "rebuffer"):
                fractions = batch.traffic_fractions(path_id, phase)
                values.append(float(np.mean(fractions)))
                values.append(float(np.std(fractions)))
        return values

    assert python_loop_queries() == columnar_queries()

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    extract_s = best_of(lambda: OutcomeBatch.from_outcomes(outcomes))
    loop_s = best_of(python_loop_queries)
    columnar_s = best_of(columnar_queries)
    query_speedup = loop_s / columnar_s
    # Including the one-off extraction pass (amortized across every
    # accessor call in real use — TrialResult caches the batch).
    total_speedup = loop_s / (extract_s + columnar_s)

    perf_record["aggregation_outcomes"] = len(outcomes)
    perf_record["aggregation_extract_ms"] = round(extract_s * 1000, 3)
    perf_record["aggregation_python_loop_ms"] = round(loop_s * 1000, 3)
    perf_record["aggregation_columnar_ms"] = round(columnar_s * 1000, 3)
    perf_record["aggregation_query_speedup"] = round(query_speedup, 3)
    perf_record["aggregation_total_speedup"] = round(total_speedup, 3)

    if not smoke:
        assert query_speedup > 2.0, (
            f"vectorized queries should beat per-trial walks, got {query_speedup:.2f}x"
        )


def test_ipc_collection_pickle_vs_shm(perf_record, smoke):
    """The trial-result collection layer in isolation, per IPC mode.

    Pickle path (``REPRO_IPC=pickle``): every outcome crosses the pool
    pipe as a deep pickle of the ``SessionOutcome`` object graph, and
    the parent unpickles it all back before transposing into an
    ``OutcomeBatch``.  Shm path (the default): the worker stores the
    dense scalars straight into the arena row and pickles only the
    flat ``SideRecord`` remainder; the parent assembles the batch from
    the arena columns without materializing a single outcome object.
    Simulation time is excluded on purpose — this measures collection,
    the part the shm arena changes.
    """
    n = 400 if smoke else 2000
    runner = TrialRunner(testbed_profile, trials=4)
    seed_result = runner.run(
        "ipc", runner.msplayer(PlayerConfig(), stop="cycles", target_cycles=1)
    )
    outcomes = (seed_result.outcomes * (1 + n // len(seed_result.outcomes)))[:n]

    def pickle_collection() -> OutcomeBatch:
        received = [pickle.loads(pickle.dumps(o)) for o in outcomes]
        return OutcomeBatch.from_outcomes(received)

    def shm_collection() -> OutcomeBatch:
        arena = OutcomeArena.create(len(outcomes))
        try:
            for i, outcome in enumerate(outcomes):  # worker side, in place
                arena.write(i, outcome)
            sides = [
                pickle.loads(pickle.dumps(encode_side(o))) for o in outcomes
            ]  # the side channel through the pipe
            dense = arena.read_columns()
        finally:
            arena.destroy()
        return OutcomeBatch.from_dense_and_sides(dense, sides)

    # Determinism before speed: both collection paths assemble the
    # same batch, bit for bit — every column the dataclass declares.
    via_pickle, via_shm = pickle_collection(), shm_collection()
    assert via_pickle.column_mismatches(via_shm) == []

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    pickle_s = best_of(pickle_collection)
    shm_s = best_of(shm_collection)
    speedup = pickle_s / shm_s

    perf_record["ipc_outcomes"] = n
    perf_record["ipc_side_record_bytes"] = len(pickle.dumps(encode_side(outcomes[0])))
    perf_record["ipc_full_outcome_bytes"] = len(pickle.dumps(outcomes[0]))
    perf_record["ipc_pickle_collection_ms"] = round(pickle_s * 1000, 3)
    perf_record["ipc_shm_collection_ms"] = round(shm_s * 1000, 3)
    perf_record["ipc_shm_speedup"] = round(speedup, 3)

    if not smoke:
        assert speedup > 1.1, (
            f"shm collection should beat full-outcome pickling, got {speedup:.2f}x"
        )


def test_bootstrap_vectorization_throughput(perf_record, smoke):
    """Vectorized bootstrap (one ``(resamples, n)`` draw) vs the
    retired 2000-``rng.choice``-calls implementation."""
    rng = np.random.Generator(np.random.PCG64(1))
    values = rng.normal(10.0, 2.0, size=200)

    def old_bootstrap():
        gen = np.random.Generator(np.random.PCG64(0))
        stats = np.empty(2000)
        for i in range(2000):
            stats[i] = np.median(gen.choice(values, size=values.size, replace=True))
        return float(np.quantile(stats, 0.025)), float(np.quantile(stats, 0.975))

    start = time.perf_counter()
    old_ci = old_bootstrap()
    old_s = time.perf_counter() - start

    start = time.perf_counter()
    new_ci = bootstrap_ci(values)
    new_s = time.perf_counter() - start
    speedup = old_s / new_s

    perf_record["bootstrap_loop_ms"] = round(old_s * 1000, 3)
    perf_record["bootstrap_vectorized_ms"] = round(new_s * 1000, 3)
    perf_record["bootstrap_speedup"] = round(speedup, 3)

    # Different resample draw, same distribution: intervals overlap.
    assert max(old_ci[0], new_ci[0]) < min(old_ci[1], new_ci[1])
    if not smoke:
        assert speedup > 2.0, f"vectorized bootstrap should win big, got {speedup:.2f}x"
