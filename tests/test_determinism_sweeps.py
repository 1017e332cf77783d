"""Cross-backend determinism for the experiment sweeps.

PR-1/PR-2 pinned fig3/fig5/table1 to the serial path; this extends the
wall to the x1 (robustness: scenario hooks, mixed profiles and root
seeds in one campaign) and x2 (source diversity: walks rebuilt outcome
objects for ``server_bytes``) experiments, parametrized over every
collection path: serial, process-pickle, and process-shm.  "Identical"
means the rendered panel *and* the raw dict — the same bytes a paper
figure is generated from.

The quick minis run in tier-1; paper-scale sweeps (full fig3 slices,
deeper trial counts) carry the ``slow`` marker and run via
``pytest -m slow``.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    fig3_scheduler_sweep,
    fig5_rebuffer,
    table1_traffic_fraction,
    x1_robustness,
    x2_source_diversity,
    x6_population,
)
from repro.sim.execution import ProcessEngine
from repro.study import run_experiment
from repro.units import KB

#: jobs values for each collection path (engine instances pass through
#: ``resolve_engine``); factories so each run gets a fresh engine.
PARALLEL_BACKENDS = [
    pytest.param(lambda: ProcessEngine(2, ipc="pickle"), id="process-pickle"),
    pytest.param(lambda: ProcessEngine(2, ipc="shm"), id="process-shm"),
]


def _assert_experiments_identical(got, reference):
    assert got.experiment_id == reference.experiment_id
    assert got.rendered == reference.rendered
    assert got.raw == reference.raw


class TestX1X2CrossBackend:
    """x1/x2 byte-identical over serial / process-pickle / process-shm."""

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x1_robustness_matches_serial(self, make_jobs):
        reference = x1_robustness(trials=2, jobs="serial")
        _assert_experiments_identical(
            x1_robustness(trials=2, jobs=make_jobs()), reference
        )

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x2_source_diversity_matches_serial(self, make_jobs):
        """x2 is the outcome-object consumer: its per-server byte
        accounting walks ``result.outcomes``, so this also pins the
        shm path's lazy outcome rebuild to the serial objects."""
        reference = x2_source_diversity(trials=2, jobs="serial")
        _assert_experiments_identical(
            x2_source_diversity(trials=2, jobs=make_jobs()), reference
        )


@pytest.mark.slow
class TestPaperScaleSweeps:
    """Deeper sweeps than tier-1 affords, same acceptance bar."""

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_fig3_slice_matches_serial(self, make_jobs):
        kwargs = dict(
            trials=10,
            prebuffers=(20.0, 40.0),
            chunks=(64 * KB, 256 * KB),
            schedulers=("harmonic", "ewma", "ratio"),
        )
        reference = fig3_scheduler_sweep(jobs="serial", **kwargs)
        _assert_experiments_identical(
            fig3_scheduler_sweep(jobs=make_jobs(), **kwargs), reference
        )

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_fig5_matches_serial(self, make_jobs):
        kwargs = dict(trials=5, rebuffers=(20.0, 40.0), target_cycles=2)
        reference = fig5_rebuffer(jobs="serial", **kwargs)
        _assert_experiments_identical(
            fig5_rebuffer(jobs=make_jobs(), **kwargs), reference
        )

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_table1_matches_serial(self, make_jobs):
        kwargs = dict(trials=5, durations=(20.0, 40.0, 60.0))
        reference = table1_traffic_fraction(jobs="serial", **kwargs)
        _assert_experiments_identical(
            table1_traffic_fraction(jobs=make_jobs(), **kwargs), reference
        )

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x1_paper_trials_matches_serial(self, make_jobs):
        reference = x1_robustness(trials=10, jobs="serial")
        _assert_experiments_identical(
            x1_robustness(trials=10, jobs=make_jobs()), reference
        )

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x2_paper_trials_matches_serial(self, make_jobs):
        reference = x2_source_diversity(trials=10, jobs="serial")
        _assert_experiments_identical(
            x2_source_diversity(trials=10, jobs=make_jobs()), reference
        )

    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_x6_population_sweep_matches_serial(self, make_jobs):
        """The population campaign at flash-crowd scale: whole
        multi-client populations as work units, per-policy batches
        assembled from the population arena columns on the shm path.
        The rendered panel and raw dict come entirely off the batch,
        so equality here is batch-level bit equality."""
        kwargs = dict(replicates=10, clients=12)
        reference = x6_population(jobs="serial", **kwargs)
        _assert_experiments_identical(
            x6_population(jobs=make_jobs(), **kwargs), reference
        )


# ---------------------------------------------------------------------------
# Every registered paper experiment, serial vs process
# ---------------------------------------------------------------------------

#: Small per-id overrides so the all-ten wall stays affordable; the
#: acceptance bar (byte equality) is scale-independent.
_MINI_PARAMS: dict[str, dict] = {
    "fig1": {},
    "fig2": {"trials": 2},
    "fig3": {"trials": 2, "prebuffers": (20.0,), "chunks": (64 * KB, 256 * KB)},
    "fig4": {"trials": 2, "prebuffers": (20.0, 40.0)},
    "fig5": {"trials": 2, "rebuffers": (20.0,), "target_cycles": 2},
    "table1": {"trials": 2, "durations": (20.0, 40.0)},
    "x1": {"trials": 2},
    "x2": {"trials": 2},
    "x3": {"samples": 200},
    "x6": {"replicates": 2, "clients": 4},
}


def _run_mini(experiment_id, jobs):
    return run_experiment(experiment_id, jobs=jobs, **_MINI_PARAMS[experiment_id])


class TestMiniCrossBackend:
    """fig3/fig5/table1 minis: the paper-figure experiments' tier-1
    stand-ins for the slow wall below."""

    @pytest.mark.parametrize("experiment_id", ["fig3", "fig5", "table1"])
    def test_mini_serial_rerun(self, experiment_id):
        """A second serial run in the same interpreter is byte-identical:
        no module-level state leaks from one campaign into the next."""
        reference = _run_mini(experiment_id, jobs="serial")
        _assert_experiments_identical(_run_mini(experiment_id, jobs="serial"), reference)

    @pytest.mark.parametrize("experiment_id", ["fig3", "fig5", "table1"])
    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_mini_process(self, experiment_id, make_jobs):
        reference = _run_mini(experiment_id, jobs="serial")
        _assert_experiments_identical(_run_mini(experiment_id, jobs=make_jobs()), reference)


@pytest.mark.slow
class TestAllExperimentsCrossBackend:
    """Every registered paper experiment, byte-identical on the serial
    and process backends."""

    @pytest.mark.parametrize("experiment_id", sorted(_MINI_PARAMS))
    @pytest.mark.parametrize("make_jobs", PARALLEL_BACKENDS)
    def test_process(self, experiment_id, make_jobs):
        reference = _run_mini(experiment_id, jobs="serial")
        _assert_experiments_identical(
            _run_mini(experiment_id, jobs=make_jobs()), reference
        )
