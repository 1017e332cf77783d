"""Child processes of the benchmark: one set-up probe, or one workload run.

``run.py`` starts this file in a fresh interpreter, so each set-up probe
pays the whole import, and the run process holds only its workload (its
peak RSS is the workload's).  The last line of standard output is one
JSON record.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from calibration import calibrate
from tracing import COUNT_TARGETS, SPAN_TARGETS, Tracer, self_shares

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"

#: Timed cycles a run makes at least, whatever ``--seconds`` says.
MIN_CYCLES = 3
#: Untraced and traced cycles of a traced run.
TRACE_CYCLES = 2
#: Calibration runs on each side of a set-up probe.
SETUP_CALIBRATIONS = 2


def setup(workload: workloads.WorkloadDef, seed: int) -> dict:
    """Import ``repro``, fill the registry, build every cell's plan;
    calibrate the host on either side."""
    sys.path.insert(0, str(ROOT / "src"))
    calibration = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    start = time.perf_counter()
    import repro.study

    repro.study.experiment_ids()
    workloads.build_plans(workloads.make_studies(workload, seed))
    setup_s = time.perf_counter() - start
    calibration += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return {"setup_s": setup_s, "calibration": calibration}


class Ledger:
    """Passes attempted and the problems found in them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])


class Runner:
    """The passes of one run, each verified against the warm-up pass."""

    def __init__(self, workload: workloads.WorkloadDef, seed: int, work: Path) -> None:
        self.workload = workload
        self.studies = workloads.make_studies(workload, seed)
        self.work = work
        self.ledger = Ledger()
        self.warm_dir = work / "warm"
        # The warm-up pass fills the cache and lets lazy set-up (the
        # worker pool, the code fingerprint) finish; it is not timed.
        self.reference, _ = workloads.run_pass(self.studies, workload.jobs, self.warm_dir)
        problems, self.archive_bytes = workloads.round_trip_problems(
            self.reference, work / "round-trip"
        )
        self.ledger.check(
            workloads.cache_problems(self.reference, warm=False)
            + workloads.shape_problems(self.reference)
            + problems
        )
        self.cycles = 0
        #: Calibration seconds, one run ahead of each timed study.
        self.calibration: list[float] = []

    def _calibrate(self) -> None:
        self.calibration.append(calibrate())

    def cycle(self, jobs: str | None = None) -> tuple[list[float], list[float], list, list]:
        """A cold pass, then a re-run served from the cache; both verified.

        Returns each pass's seconds per study, then each pass's results.
        """
        jobs = jobs or self.workload.jobs
        self.cycles += 1
        if self.workload.cold_cache:
            cache = self.work / f"cold-{self.cycles}"
            cold, cold_s = workloads.run_pass(self.studies, jobs, cache, self._calibrate)
            cold_problems = workloads.cache_problems(cold, warm=False)
        else:
            cache = self.warm_dir
            cold, cold_s = workloads.run_pass(self.studies, jobs, None, self._calibrate)
            cold_problems = []
        self.ledger.check(workloads.mismatches(self.reference, cold) + cold_problems)
        warm, warm_s = workloads.run_pass(self.studies, jobs, cache, self._calibrate)
        self.ledger.check(
            workloads.mismatches(self.reference, warm)
            + workloads.cache_problems(warm, warm=True)
        )
        if self.workload.cold_cache:
            shutil.rmtree(cache)
        return cold_s, warm_s, cold, warm


def fingerprint(workload: workloads.WorkloadDef) -> dict:
    """Machine and program identity for the result record."""
    import subprocess

    import numpy
    from repro.sim.execution import resolve_engine

    engine = resolve_engine(workload.jobs)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or "unknown",
        "cpu_count": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "engine": {
            "jobs": workload.jobs,
            "resolved": type(engine).__name__,
            "name": getattr(engine, "name", None),
            "workers": getattr(engine, "jobs", None),
        },
    }


def timed_run(runner: Runner, seconds: float) -> dict:
    """Cycles until ``seconds`` would be overrun (at least MIN_CYCLES)."""
    cold_rows, warm_rows = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        cold_s, warm_s, _cold, _warm = runner.cycle()
        cold_rows.append(cold_s)
        warm_rows.append(warm_s)
        now = time.perf_counter()
        if len(cold_rows) >= MIN_CYCLES and now - start + (now - began) > seconds:
            break
    return {"wall_s": cold_rows, "rerun_s": warm_rows, "calibration": runner.calibration}


def cache_counts(results: list) -> dict[str, float]:
    results = [r for r in results if r.cache_info is not None]
    hits = sum(r.cache_info.hits for r in results)
    lookups = sum(r.cache_info.hits + r.cache_info.misses for r in results)
    return {
        "study.cache_hits": hits,
        "study.submitted_units": sum(r.cache_info.submitted_units for r in results),
        "study.hit_ratio": hits / lookups,
    }


SPAN_METRICS = ("study.build_s", "analysis.render_s", *SPAN_TARGETS)
CALL_COUNTS = ("net.events", *COUNT_TARGETS)


def traced_run(runner: Runner, workload: workloads.WorkloadDef, tag: str) -> dict:
    """Untraced cycles, traced cycles, a serial traced cycle for a pooled
    workload, then one profiled cycle; returns the per-layer metrics."""
    untraced_rows, traced = [], []
    for _ in range(TRACE_CYCLES):  # alternated, so host drift hits both alike
        untraced_rows.append(runner.cycle()[0])
        with Tracer(runner.cycles + 1) as tracer:
            cold_s, _warm_s, cold, warm = runner.cycle()
        traced.append((sum(cold_s), cold_s, tracer, cold + warm))
    counts = [dict(t[2].counts) for t in traced]
    runner.ledger.check(
        [] if counts[0] == counts[1] else [f"counts differ between traced cycles: {counts}"]
    )
    _, _, tracer, results = min(traced, key=lambda t: t[0])
    spans = [t[2].spans_json() for t in traced]
    engine_map_s = tracer.totals().get("sim.engine_map_s", 0.0)
    if workload.jobs == "serial":
        counted, serial_map_s, workers = tracer, engine_map_s, 1
    else:
        # Pool workers run outside the tracer; a serial cycle counts
        # what they do and gives the serial time of the same units.
        with Tracer(runner.cycles + 1) as counted:
            runner.cycle("serial")
        spans.append(counted.spans_json())
        serial_map_s = counted.totals().get("sim.engine_map_s", 0.0)
        workers = fingerprint(workload)["engine"]["workers"] or 1

    profile = cProfile.Profile()
    profile.enable()
    runner.cycle("serial")
    profile.disable()

    untraced = workloads.fastest(untraced_rows)
    events = counted.counts.get("net.events", 0)
    sim = workloads.sim_metrics(runner.reference)
    span_totals = tracer.totals()
    metrics = {name: span_totals.get(name, 0.0) for name in SPAN_METRICS}
    metrics.update({name: counted.counts.get(name, 0) for name in CALL_COUNTS})
    metrics.update(
        {
            "cdn.failovers": sim["failovers"],
            "sim.work_units": tracer.counts.get("sim.work_units", 0),
            "sim.sessions": sim["sessions"],
            **cache_counts(results),
            "study.archive_bytes": runner.archive_bytes,
            "net.us_per_event": untraced / events * 1e6 if events else 0.0,
            "sim.parallel_efficiency": (
                serial_map_s / (workers * engine_map_s) if engine_map_s else 0.0
            ),
            **self_shares(pstats.Stats(profile).stats),
            "trace.overhead_s": workloads.fastest([t[1] for t in traced]) - untraced,
            "sim.startup_p95_s": sim["startup_p95_s"],
            "sim.rebuffer_ratio": sim["rebuffer_ratio"],
        }
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{tag}.json").write_text(
        json.dumps(
            {"spans": spans, "counts": counts, "missing": tracer.missing, "metrics": metrics},
            indent=1,
        )
    )
    return {
        "per_layer": metrics,
        "wall_s": untraced_rows,
        "traced_wall_s": [t[1] for t in traced],
        "calibration": runner.calibration,
    }


def run(workload: workloads.WorkloadDef, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(workload, seed, work)
        tag = f"{workload.name}-seed{seed}"
        record = traced_run(runner, workload, tag) if trace else timed_run(runner, seconds)
        record.update(
            {
                "attempted": runner.ledger.attempted,
                "failed": runner.ledger.failed,
                "problems": runner.ledger.problems,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "sim": workloads.sim_metrics(runner.reference),
                "digest": workloads.digest(runner.reference),
                "fingerprint": fingerprint(workload),
            }
        )
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.role == "setup":
        record = setup(workload, args.seed)
    else:
        record = run(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
