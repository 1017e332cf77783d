"""The ``Study`` facade: declarative experiment runs and grids.

One object replaces the pile of per-experiment entry points::

    from repro.study import Study

    # one cell, schema-validated params
    result = Study("fig4", trials=10, prebuffers=(20.0, 40.0)).run(jobs="auto")
    print(result.rendered)

    # a grid: every cell a full experiment, ALL cells one pool submission
    grid = Study("fig2", trials=5).grid(seed=[2014, 2015], trials=[5, 10])
    study_result = grid.run(jobs="auto")
    study_result.save("results/fig2-grid")         # .json + .npz archive

``Study(experiment, **params)`` validates ``params`` against the
registered :class:`~repro.study.registry.ExperimentDef` schema at
construction — unknown or ill-typed knobs fail immediately, before any
simulation runs.  ``grid`` sweeps schema params across cells (Cartesian
product, last axis fastest); ``run`` builds every cell's campaign plan
and submits them together through
:func:`~repro.sim.campaign.run_together`, so a grid saturates the
worker pool exactly like one big campaign while each cell's outcomes
stay byte-identical to running that cell alone (each work spec carries
its own derived seed; submission order is irrelevant).

The returned :class:`StudyResult` is a durable artifact: per-cell
rendered panels and raw numbers plus every label's dense batch columns,
with a versioned save/load round trip (:mod:`repro.study.archive`) that
preserves the column bits exactly.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from collections.abc import Callable, Iterator, Mapping, Sequence
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from ..errors import ConfigError
from ..sim.campaign import run_together
from ..sim.execution import ExecutionEngine, resolve_engine
from .registry import ExperimentDef, get_experiment

if TYPE_CHECKING:  # import cycle: cache.py imports this module lazily
    from .cache import CacheInfo, StudyCache

__all__ = ["Study", "StudyCell", "StudyResult", "run_experiment"]


@contextmanager
def _ipc_override(ipc: str | None) -> Iterator[None]:
    """Scope an ``--ipc``-style collection-mode override to one run.

    The engines consult ``REPRO_IPC`` at construction, so the variable
    is set before engine resolution and restored afterwards — in-process
    callers never inherit the override (same contract the CLI has had
    since the flag existed).
    """
    if ipc is None:
        yield
        return
    previous = os.environ.get("REPRO_IPC")
    os.environ["REPRO_IPC"] = ipc
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_IPC", None)
        else:
            os.environ["REPRO_IPC"] = previous


def _study_runner(
    engine: ExecutionEngine | None,
) -> "Callable[[Study], StudyResult] | None":
    """The whole-study entry point of a service-style engine, if any.

    Engines that execute studies rather than spec batches (the
    distributed backend) expose ``run_study``; ``Study.run`` delegates
    to it instead of building plans locally.  Structural on purpose —
    any conforming third-party engine works, without importing
    :mod:`repro.serve` here.
    """
    runner = getattr(engine, "run_study", None)
    if engine is not None and callable(runner):
        return cast("Callable[[Study], StudyResult]", runner)
    return None


def _batch_columns(results: Mapping[str, Any]) -> dict[str, dict[str, np.ndarray]]:
    """Every label's dense batch columns, generically.

    Works for any result kind whose ``batch`` is an ndarray dataclass
    (``OutcomeBatch``, ``PopulationBatch``, ``EstimatorBatch``) — the
    same field enumeration :func:`~repro.sim.campaign.
    dense_field_mismatches` relies on, so archives can never silently
    drop a column a determinism test would have checked.
    """
    columns: dict[str, dict[str, np.ndarray]] = {}
    for label, result in results.items():
        batch = result.batch
        columns[label] = {
            batch_field.name: getattr(batch, batch_field.name)
            for batch_field in dataclass_fields(batch)
        }
    return columns


@dataclass
class StudyCell:
    """One grid cell: its coordinates, full params, and results."""

    index: int
    #: The grid coordinates of this cell ({} for a single-cell study).
    overrides: dict[str, Any]
    #: The cell's full resolved param dict (defaults + overrides).
    params: dict[str, Any]
    #: The finished figure/table (rendered text + raw numbers);
    #: ``None`` for a cell that failed (see ``error``).
    result: Any
    #: ``{label: {column: ndarray}}`` dense batch columns per label.
    columns: dict[str, dict[str, np.ndarray]]
    #: Why the cell has no result (service quarantine: the broker gave
    #: up after ``max_attempts``); ``None`` for a successful cell.  A
    #: failed cell renders as a FAILED block and blocks ``save``.
    error: str | None = None


class StudyResult:
    """A study's durable output: cells, axes, and dense columns.

    Constructed by :meth:`Study.run` and by :meth:`load`; the two are
    interchangeable for analysis — ``save``/``load`` round-trips the
    dense columns bit-identically and the metadata losslessly (tuples
    become lists in JSON; params are re-coerced through the experiment
    schema on load, restoring tuple-ness).
    """

    def __init__(
        self,
        experiment_id: str,
        kind: str,
        params: dict[str, Any],
        axes: dict[str, list],
        cells: list[StudyCell],
    ) -> None:
        self.experiment_id = experiment_id
        self.kind = kind
        self.params = params
        self.axes = axes
        self.cells = cells
        #: Cache accounting for the run that produced this result
        #: (:class:`~repro.study.cache.CacheInfo`); ``None`` when no
        #: cache was consulted (and always ``None`` on a loaded
        #: archive — it is run metadata, not part of the result).
        self.cache_info: CacheInfo | None = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[StudyCell]:
        return iter(self.cells)

    @property
    def rendered(self) -> str:
        """Every cell's rendered panel, grid order.

        Failed cells (a distributed run's quarantined cells) render as
        an explicit FAILED block instead of silently vanishing from the
        output.
        """
        blocks = []
        for cell in self.cells:
            if cell.overrides:
                coords = ", ".join(f"{k}={v!r}" for k, v in cell.overrides.items())
                blocks.append(f"=== {self.experiment_id} [{coords}] ===")
            if cell.error is not None:
                blocks.append(
                    f"=== {self.experiment_id} cell {cell.index} FAILED ===\n"
                    f"{cell.error}"
                )
            else:
                blocks.append(cell.result.rendered)
        return "\n\n".join(blocks)

    @property
    def errors(self) -> dict[int, str]:
        """Per-cell failure reasons by cell index ({} when all succeeded)."""
        return {cell.index: cell.error for cell in self.cells if cell.error is not None}

    def only(self) -> StudyCell:
        """The single cell of a gridless study."""
        if len(self.cells) != 1:
            raise ConfigError(
                f"study has {len(self.cells)} cells; use cell(...) to pick one"
            )
        return self.cells[0]

    def cell(self, **coords: Any) -> StudyCell:
        """The cell at the given grid coordinates."""
        unknown = set(coords) - set(self.axes)
        if unknown:
            raise ConfigError(
                f"unknown grid axes {sorted(unknown)}; axes: {sorted(self.axes)}"
            )
        schema = get_experiment(self.experiment_id).schema
        coords = {name: schema[name].coerce(value) for name, value in coords.items()}
        matches = [
            cell
            for cell in self.cells
            if all(cell.params[name] == value for name, value in coords.items())
        ]
        if len(matches) != 1:
            raise ConfigError(
                f"coordinates {coords!r} match {len(matches)} cells, need exactly 1"
            )
        return matches[0]

    def column_mismatches(self, other: "StudyResult") -> list[str]:
        """Column paths (``cell/label/column``) not bit-identical to
        ``other``'s — the archive round-trip determinism predicate."""
        mismatched = []
        if len(self.cells) != len(other.cells):
            return ["<cell count>"]
        for mine, theirs in zip(self.cells, other.cells, strict=True):
            if sorted(mine.columns) != sorted(theirs.columns):
                mismatched.append(f"{mine.index}/<labels>")
                continue
            for label, columns in mine.columns.items():
                for name, column in columns.items():
                    other_column = theirs.columns[label][name]
                    if column.dtype != other_column.dtype or not np.array_equal(
                        column, other_column, equal_nan=column.dtype.kind == "f"
                    ):
                        mismatched.append(f"{mine.index}/{label}/{name}")
        return mismatched

    def save(self, path) -> tuple[str, str]:
        """Archive to ``<path>.json`` + ``<path>.npz``; returns both paths."""
        from .archive import save_study

        return save_study(self, path)

    @classmethod
    def load(cls, path) -> "StudyResult":
        """Load an archive written by :meth:`save` (schema-checked)."""
        from .archive import load_study

        return load_study(path)


class Study:
    """A declarative handle on one registered experiment.

    Immutable-ish builder: ``grid`` returns a new ``Study`` with axes
    attached; ``run`` executes and returns a :class:`StudyResult`.
    """

    def __init__(
        self, experiment: str | ExperimentDef, **params: Any
    ) -> None:
        self.definition = (
            experiment
            if isinstance(experiment, ExperimentDef)
            else get_experiment(experiment)
        )
        # Validate eagerly: a bad knob dies here, not mid-campaign.
        self.params = self.definition.schema.resolve(params)
        self._overrides = dict(params)
        self._axes: dict[str, list] = {}

    @property
    def experiment_id(self) -> str:
        return self.definition.experiment_id

    @property
    def axes(self) -> dict[str, list]:
        """The grid axes (name → coerced values), declaration order."""
        return {name: list(values) for name, values in self._axes.items()}

    def grid(self, **axes: Sequence) -> "Study":
        """Sweep schema params across cells (Cartesian product).

        Axis order is declaration order; the last axis varies fastest.
        Each value is validated through the param's schema entry, so a
        ``chunk=["64KB", "256KB"]`` axis arrives as parsed byte counts.
        """
        clone = Study(self.definition, **self._overrides)
        clone._axes = dict(self._axes)
        schema = self.definition.schema
        for name, values in axes.items():
            param = schema[name]  # raises on unknown names
            if not param.sweepable:
                raise ConfigError(f"param {name!r} cannot be swept in a grid")
            values = list(values)
            if not values:
                raise ConfigError(f"grid axis {name!r} cannot be empty")
            clone._axes[name] = [param.coerce(value) for value in values]
        return clone

    def cells(self) -> list[dict[str, Any]]:
        """Each cell's grid overrides, product order (last axis fastest)."""
        if not self._axes:
            return [{}]
        names = list(self._axes)
        return [
            dict(zip(names, combo, strict=True))
            for combo in itertools.product(*self._axes.values())
        ]

    def __len__(self) -> int:
        """Number of grid cells this study will run."""
        return len(self.cells())

    def run(
        self,
        jobs: int | str | ExecutionEngine | None = None,
        ipc: str | None = None,
        engine: ExecutionEngine | None = None,
        cache: "str | StudyCache | None" = None,
    ) -> StudyResult:
        """Execute every cell as one merged engine submission.

        ``jobs``/``ipc`` take the usual values (``resolve_engine`` /
        ``REPRO_IPC`` semantics); an explicit ``engine`` wins over
        ``jobs``.  Cells are byte-identical to running each alone — the
        grid only changes scheduling, never outcomes.

        ``cache`` names a content-addressed cell cache directory (a
        :class:`~repro.study.cache.StudyCache` also works; ``None``
        consults ``REPRO_CACHE``).  Cells whose archives are already
        cached are rebuilt from disk and only the misses go to the
        engine — a repeated run submits zero work units, a widened grid
        submits the delta cells — and every fresh cell is stored back.
        Cached and fresh cells are bit-identical (the archive round
        trip is exact), so the cache changes cost, never results.  The
        cache key deliberately excludes the backend/ipc choice:
        those are byte-identity-equivalent by the determinism wall, so
        a cache written under one serves runs under any other.
        Accounting lands in ``StudyResult.cache_info``.

        A *service* backend (``jobs="service"``, an engine exposing
        ``run_study`` — e.g. :class:`repro.serve.engine.ServiceEngine`)
        takes the whole study: the declarative description ships to a
        broker, a worker fleet executes the cells, and the reassembled
        result is byte-identical to a local run.  The local ``cache``/
        ``ipc`` knobs don't apply there — the broker owns
        the cache and each worker its execution details (results are
        invariant to both by the determinism wall).
        """
        from .cache import CacheInfo, code_fingerprint, resolve_cache

        delegated = _study_runner(engine)
        if delegated is None and isinstance(jobs, str) and jobs.strip().lower() == "service":
            delegated = _study_runner(resolve_engine(jobs))
        if delegated is not None:
            return delegated(self)
        study_cache = resolve_cache(cache)
        with _ipc_override(ipc):
            cell_overrides = self.cells()
            plans = []
            cell_params = []
            for overrides in cell_overrides:
                params = dict(self.params)
                params.update(overrides)
                plans.append(self.definition.build(params))
                cell_params.append(params)
            cached: dict[int, StudyCell] = {}
            fingerprint = "" if study_cache is None else code_fingerprint()
            if study_cache is not None:
                for index, params in enumerate(cell_params):
                    hit = study_cache.lookup(self.definition, params, fingerprint)
                    if hit is not None:
                        cached[index] = hit
            if engine is None and len(cached) < len(plans):
                # Lazy on purpose: a fully-cached run must not consult
                # REPRO_JOBS at all.  That also means REPRO_JOBS=service
                # only reaches the broker when there is work to ship.
                engine = resolve_engine(jobs)
                delegated = _study_runner(engine)
                if delegated is not None:
                    return delegated(self)
            per_cell = run_together(
                [plan.campaign for plan in plans], engine, skip=cached.keys()
            )
        cells = []
        submitted = 0
        for index, (plan, results) in enumerate(zip(plans, per_cell, strict=True)):
            if index in cached:
                hit = cached[index]
                cell = StudyCell(
                    index=index,
                    overrides=cell_overrides[index],
                    params=cell_params[index],
                    result=hit.result,
                    columns=hit.columns,
                )
            else:
                submitted += len(plan.campaign)
                cell = StudyCell(
                    index=index,
                    overrides=cell_overrides[index],
                    params=cell_params[index],
                    result=plan.render(results),
                    columns=_batch_columns(results),
                )
                if study_cache is not None:
                    study_cache.store(
                        self.definition, cell_params[index], cell, fingerprint
                    )
            cells.append(cell)
        result = StudyResult(
            experiment_id=self.experiment_id,
            kind=self.definition.kind,
            params=dict(self.params),
            axes={name: list(values) for name, values in self._axes.items()},
            cells=cells,
        )
        if study_cache is not None:
            result.cache_info = CacheInfo(
                hits=len(cached),
                misses=len(cells) - len(cached),
                submitted_units=submitted,
            )
        return result


def run_experiment(
    experiment_id: str,
    jobs: int | str | ExecutionEngine | None = None,
    ipc: str | None = None,
    cache: "str | StudyCache | None" = None,
    **params: Any,
):
    """One-shot convenience: run a registered experiment, return its
    :class:`~repro.analysis.experiments.ExperimentResult`.

    The compatibility wrappers in :mod:`repro.analysis.experiments`
    (``fig2_prebuffer_testbed(...)`` and friends) delegate here, so the
    legacy call surface and the Study surface are the same code path.
    """
    return (
        Study(experiment_id, **params)
        .run(jobs=jobs, ipc=ipc, cache=cache)
        .only()
        .result
    )
