"""Frozen, validated workload definitions and the passes that run them.

A workload is a tuple of :class:`StudyDef`s run through the public study
API (``Study``, ``StudyCache``, ``save_study``/``load_study``).  The
definitions are plain data, validated when they are built, so a typo in
a size fails at import, not minutes into a run.  Each study names the
params the workload seed is drawn into: a root seed, or, for the city
workload, the length and swing of the day in a fixed city (README.md,
"Why city_population pins its city").

This module imports nothing from ``repro`` at load time, so the set-up
probe can time ``import repro`` itself.
"""

from __future__ import annotations

import random
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Any

JOBS_CHOICES = ("serial", "auto")


@dataclass(frozen=True)
class StudyDef:
    """One study of a workload: experiment id, fixed params, seeded params."""

    experiment_id: str
    params: tuple[tuple[str, Any], ...]
    """Fixed schema params, as ``(name, value)`` pairs."""

    seeded: tuple[tuple[str, tuple[float, float] | None], ...] = (("seed", None),)
    """Params drawn from the workload seed: ``None`` draws an integer root
    seed, a ``(low, high)`` range a float in it."""

    cells: int = 1
    """More than 1: a grid over the one seeded param, this many draws."""

    def __post_init__(self) -> None:
        fixed = [name for name, _ in self.params]
        seeded = [name for name, _ in self.seeded]
        if not self.experiment_id or not seeded:
            raise ValueError("a study needs an experiment id and a seeded param")
        if len(set(fixed + seeded)) != len(fixed + seeded):
            raise ValueError(f"{self.experiment_id}: a param is given twice: {fixed + seeded}")
        if self.cells < 1 or (self.cells > 1 and len(seeded) != 1):
            raise ValueError(f"{self.experiment_id}: a grid needs cells > 1 and one seeded param")
        for name, span in self.seeded:
            if span is not None and not span[0] < span[1]:
                raise ValueError(f"{self.experiment_id}: empty range {span} for {name}")

    def draws(self, workload_seed: int) -> dict[str, list]:
        """Each seeded param's value per cell, a pure function of the seed.

        Keyed by experiment id, so studies of one experiment share draws.
        """
        values = {}
        for name, span in self.seeded:
            rng = random.Random(f"{workload_seed}:{self.experiment_id}:{name}")
            if span is None:
                values[name] = [rng.randrange(2**31) for _ in range(self.cells)]
            else:
                values[name] = [round(rng.uniform(*span), 6) for _ in range(self.cells)]
        return values


@dataclass(frozen=True)
class WorkloadDef:
    """A named benchmark workload."""

    name: str
    why: str
    jobs: str
    """``Study.run`` jobs value: ``serial`` or ``auto``."""

    studies: tuple[StudyDef, ...]
    cold_cache: bool = False
    """Each timed pass runs against a fresh cache directory and is then
    re-run against it; otherwise timed passes bypass the cache and the
    re-runs read the cache the warm-up pass filled."""

    def __post_init__(self) -> None:
        if self.jobs not in JOBS_CHOICES:
            raise ValueError(f"{self.name}: jobs must be one of {JOBS_CHOICES}")
        if not self.studies:
            raise ValueError(f"{self.name}: a workload needs at least one study")
        if len(self.why) > 200 or "\n" in self.why:
            raise ValueError(f"{self.name}: 'why' must be one line of <= 200 chars")


WORKLOADS: dict[str, WorkloadDef] = {
    workload.name: workload
    for workload in (
        WorkloadDef(
            name="paper_figures",
            why=(
                "single-client paper figures: per-session bootstrap, HTTP range "
                "requests, scheduler and buffer logic; short pre-buffer and long "
                "re-buffer sessions"
            ),
            jobs="serial",
            studies=(
                StudyDef("fig2", (("trials", 10),)),
                StudyDef("fig3", (("trials", 1),)),
                StudyDef("fig4", (("trials", 10),)),
                *(
                    StudyDef(
                        "fig5", (("trials", 4), ("target_cycles", 1), ("rebuffers", (level,)))
                    )
                    for level in (20.0, 40.0, 60.0)
                ),
                StudyDef("table1", (("trials", 2),)),
            ),
        ),
        WorkloadDef(
            name="city_population",
            why=(
                "x8 city, 60 clients sharing links under three policies: kernel "
                "dispatch and fluid-network sharing dominate, HTTP bootstrap is "
                "a small share"
            ),
            jobs="serial",
            studies=tuple(
                StudyDef(
                    "x8",
                    (("clients", 60), ("replicates", 1), ("seed", 2026), ("policies", (policy,))),
                    seeded=(("horizon", (20.0, 40.0)), ("amplitude", (1.0, 3.0))),
                )
                for policy in ("static", "rotate", "least_loaded")
            ),
        ),
        WorkloadDef(
            name="study_cache",
            why=(
                "grids of small fig2 and x8 cells on a process pool against a fresh "
                "cache, then re-run from it: execution, collection, cache and "
                "archive layers"
            ),
            jobs="auto",
            studies=(
                StudyDef("fig2", (("trials", 4),), cells=36),
                StudyDef(
                    "x8",
                    (("clients", 3), ("replicates", 1), ("seed", 2026), ("policies", ("least_loaded",))),
                    seeded=(("amplitude", (1.0, 3.0)),),
                    cells=4,
                ),
            ),
            cold_cache=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# Everything below runs after ``repro`` is importable.
# ---------------------------------------------------------------------------


def make_studies(workload: WorkloadDef, seed: int) -> list:
    """The workload's ``Study`` objects for one workload seed (validated
    against each experiment's schema on construction)."""
    from repro.study import Study

    studies = []
    for study_def in workload.studies:
        draws = study_def.draws(seed)
        params = dict(study_def.params)
        if study_def.cells == 1:
            params.update({name: values[0] for name, values in draws.items()})
            studies.append(Study(study_def.experiment_id, **params))
        else:
            studies.append(Study(study_def.experiment_id, **params).grid(**draws))
    return studies


def build_plans(studies: list) -> None:
    """Build every cell's plan (``ExperimentDef.build``)."""
    for study in studies:
        for overrides in study.cells():
            study.definition.build({**study.params, **overrides})


def run_pass(
    studies: list, jobs: str, cache: Path | None, before: Callable[[], object] | None = None
) -> tuple[list, list[float]]:
    """One pass: every study run once, in order; results and seconds each.

    ``before`` runs, untimed, ahead of each study.
    """
    results, seconds = [], []
    for study in studies:
        if before is not None:
            before()
        start = time.perf_counter()
        results.append(study.run(jobs=jobs, cache=None if cache is None else str(cache)))
        seconds.append(time.perf_counter() - start)
    return results, seconds


def fastest(rows: list[list[float]]) -> float:
    """A pass's time from repeated passes: each study at its fastest repeat.

    ``rows`` holds one list of per-study seconds per pass.
    """
    return sum(min(column) for column in zip(*rows, strict=True))


def normalised(rows: list[list[float]], calibration: list[float]) -> float:
    """A pass's time at the reference host speed: each study at its median
    repeat, scaled by the calibration runs interleaved with the studies
    (README.md, "Host speed")."""
    from calibration import scale

    median = sum(statistics.median(column) for column in zip(*rows, strict=True))
    return median * scale(calibration)


def mismatches(reference: list, results: list) -> list[str]:
    """Why ``results`` differ from ``reference`` (empty when identical)."""
    problems = []
    for ref, res in zip(reference, results, strict=True):
        for column in ref.column_mismatches(res):
            problems.append(f"{ref.experiment_id}: column {column} differs")
        if ref.rendered != res.rendered:
            problems.append(f"{ref.experiment_id}: rendered output differs")
    return problems


def cache_problems(results: list, *, warm: bool) -> list[str]:
    """Cache accounting checks: a warm pass is all hits and submits nothing;
    a cold pass misses every cell."""
    problems = []
    for result in results:
        info = result.cache_info
        if info is None:
            problems.append(f"{result.experiment_id}: no cache accounting")
        elif warm and (info.hits != len(result) or info.misses or info.submitted_units):
            problems.append(f"{result.experiment_id}: warm re-run not fully cached: {info}")
        elif not warm and (info.hits or info.misses != len(result)):
            problems.append(f"{result.experiment_id}: cold pass hit the cache: {info}")
    return problems


def round_trip_problems(results: list, directory: Path) -> tuple[list[str], int]:
    """Save and load every result; returns problems and archive bytes."""
    from repro.study import load_study, save_study

    problems = []
    archive_bytes = 0
    for index, result in enumerate(results):
        paths = save_study(result, directory / f"{index}-{result.experiment_id}")
        archive_bytes += sum(Path(path).stat().st_size for path in paths)
        problems += [f"round trip: {p}" for p in mismatches([result], [load_study(paths[0])])]
    return problems, archive_bytes


def shape_problems(results: list) -> list[str]:
    """Paper-shape checks that hold for any workload seed."""
    problems = []
    for result in results:
        for cell in result.cells:
            raw = cell.result.raw
            where = f"{result.experiment_id}{cell.overrides or ''}"
            if result.experiment_id == "fig2":
                medians = raw["medians"]
                if not medians["MSPlayer"] < medians["WiFi"]:
                    problems.append(f"{where}: MSPlayer median start-up not below WiFi-only")
            elif result.experiment_id == "fig5":
                for level, row in raw.items():
                    if not row["MSPlayer"] < row["WiFi 64KB"]:
                        problems.append(f"{where} {level}: MSPlayer re-buffering not below WiFi 64KB")
            elif result.experiment_id == "table1":
                for level, row in raw.items():
                    for key in ("prebuffer_mean", "rebuffer_mean"):
                        if not 0.0 <= row[key] <= 1.0:
                            problems.append(f"{where} {level}: {key} outside [0, 1]")
            elif result.experiment_id == "x8":
                for policy, slo in raw.items():
                    if slo["sessions"] != result.params["clients"] or slo["completed"] < 1:
                        problems.append(f"{where} {policy}: sessions/completions wrong")
                    if not slo["p50_startup_s"] <= slo["p95_startup_s"] <= slo["p99_startup_s"]:
                        problems.append(f"{where} {policy}: start-up percentiles out of order")
    return problems


def session_columns(results: list):
    """Yield ``(startups, sessions, stall_s, session_s, failovers)`` per label.

    ``startups`` holds defined start-up delays only; ``sessions`` counts
    every session, so ``sessions - len(startups)`` never started.
    """
    import numpy as np

    for result in results:
        for cell in result.cells:
            for columns in cell.columns.values():
                if "startup" in columns:  # one row per session
                    startup = columns["startup"]
                    yield (
                        startup[~np.isnan(startup)],
                        len(startup),
                        float(columns["total_stall"].sum()),
                        float(columns["finished_at"].sum()),
                        int(columns["failovers"].sum()),
                    )
                elif "client_startup" in columns:  # one row per population
                    yield (
                        columns["client_startup"],
                        int(columns["sessions"].sum()),
                        float(columns["total_stall"].sum()),
                        float(columns["session_time"].sum()),
                        int(columns["total_failovers"].sum()),
                    )


def sim_metrics(results: list) -> dict[str, float]:
    """Simulated QoE over every session of a pass, plus session counts.

    Playback that never started counts as missing the start-up limit,
    so it enters the percentile as +inf.
    """
    import numpy as np

    startups, sessions, stall, session_time, failovers = [], 0, 0.0, 0.0, 0
    for defined, count, stall_s, session_s, fails in session_columns(results):
        startups.append(defined)
        startups.append(np.full(count - len(defined), np.inf))
        sessions += count
        stall += stall_s
        session_time += session_s
        failovers += fails
    pooled = np.concatenate(startups) if startups else np.array([np.inf])
    return {
        "startup_p95_s": float(np.percentile(pooled, 95, method="inverted_cdf")),
        "rebuffer_ratio": stall / session_time if session_time else 0.0,
        "sessions": sessions,
        "failovers": failovers,
    }


def digest(results: list) -> str:
    """A digest of every rendered panel and column, for information only."""
    hasher = blake2b(digest_size=12)
    for result in results:
        hasher.update(result.rendered.encode())
        for cell in result.cells:
            for label, columns in sorted(cell.columns.items()):
                for name, column in sorted(columns.items()):
                    hasher.update(f"{cell.index}/{label}/{name}/{column.dtype.str}".encode())
                    hasher.update(column.tobytes())
    return hasher.hexdigest()
