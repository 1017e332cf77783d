"""Spans and counts around public calls into each layer, and profiler shares.

The program carries no instrumentation of its own, so the tracer wraps
public entry points from outside while it is installed and restores
them afterwards.  Spans are kept in memory; :meth:`Tracer.spans_json`
hands them to the caller to write out when the run ends.  Calls too
fine-grained to time one by one (link, tcp, playback ticks) are only
counted here; their time is attributed by the profiler
(:func:`self_shares`).

A hook whose target no longer exists is skipped and listed in
``Tracer.missing``, so the benchmark keeps running on a refactored
program and the report says which numbers it could not take.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from collections.abc import Callable

#: Span name -> (module, class or None, attribute).  A ``None`` class
#: means a module-level function, replaced wherever ``repro`` modules
#: hold a reference to it.
SPAN_TARGETS: dict[str, tuple[tuple[str, str | None, str], ...]] = {
    "net.env_run_s": (("repro.net.env", "Environment", "run"),),
    "sim.engine_map_s": (
        ("repro.sim.execution", "SerialEngine", "map"),
        ("repro.sim.execution", "ProcessEngine", "map"),
        ("repro.sim.execution", "ProcessEngine", "collect"),
    ),
    "scenarios.slo_s": (("repro.scenarios.slo", None, "population_slo"),),
    "study.cache_lookup_s": (("repro.study.cache", "StudyCache", "lookup"),),
    "study.cache_store_s": (("repro.study.cache", "StudyCache", "store"),),
    "study.fingerprint_s": (("repro.study.cache", None, "code_fingerprint"),),
    "study.archive_load_s": (("repro.study.archive", None, "load_study"),),
}

#: Count name -> the method whose calls it counts.
COUNT_TARGETS: dict[str, tuple[str, str, str]] = {
    "net.link.flows": ("repro.net.link", "Link", "start_flow"),
    "net.tcp.exchanges": ("repro.net.tcp", "TCPConnection", "exchange"),
    "core.ticks": ("repro.core.session", "PlayerSession", "on_tick"),
    "core.chunks": ("repro.core.session", "PlayerSession", "on_chunk_complete"),
    "http.requests": ("repro.http.client", "SimHTTPClient", "request"),
    "cdn.selections": ("repro.cdn.selection", "ServerSelection", "select"),
}

#: Profiler layer -> path prefixes inside the ``repro`` package.
SELF_LAYERS: dict[str, tuple[str, ...]] = {
    "self.net.kernel": ("net/env.py", "net/events.py", "net/calendar.py", "net/_ckernel"),
    "self.net.link": ("net/link.py",),
    "self.net.bandwidth": ("net/bandwidth.py",),
    "self.net.tcp": ("net/tcp.py",),
    "self.http": ("http/",),
    "self.cdn": ("cdn/",),
    "self.core": ("core/",),
    "self.sim": ("sim/",),
    "self.scenarios": ("scenarios/",),
    "self.study": ("study/",),
}


def _resolve(module: str, owner: str | None, attribute: str):
    """``(holder, raw attribute)`` or ``None`` when the target is gone."""
    try:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        raw = inspect.getattr_static(holder, attribute)
    except (ImportError, AttributeError):
        return None
    return (holder, raw) if inspect.isfunction(raw) else None


class Tracer:
    """Spans and counts for one traced region; install, run, uninstall."""

    def __init__(self, pass_id: int = 0) -> None:
        #: ``[name, start, end, parent index or -1, pass id]`` per span.
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        #: Shared by every span of one traced pass.
        self.pass_id = pass_id
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------

    def _timed(self, name: str, function: Callable, hook=None) -> Callable:
        """Wrap ``function`` in a span; nested spans of one name count once.

        ``hook(args)`` runs as the span opens and may return a callable
        to run as it closes.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return function(*args, **kwargs)
            tracer._open[name] += 1
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent, tracer.pass_id])
            tracer._stack.append(index)
            after = hook(args) if hook else None
            try:
                return function(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                if after:
                    after()

        return wrapper

    def _counted(self, name: str, function: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def _events(self, args):
        """``Environment.run`` hook: add the events the run scheduled."""
        env = args[0]
        before = getattr(env, "scheduled_count", None)
        if before is None:
            return None

        def after() -> None:
            self.counts["net.events"] += env.scheduled_count - before

        return after

    def _units(self, args) -> None:
        """Engine ``map``/``collect`` hook: count the work units submitted."""
        self.counts["sim.work_units"] += len(args[1])

    # -- installation ---------------------------------------------------------

    def _replace(self, holder, attribute: str, original, replacement) -> None:
        setattr(holder, attribute, replacement)
        self._undo.append(lambda: setattr(holder, attribute, original))

    def _replace_function(self, original, replacement) -> None:
        """Point every ``repro`` module's reference to ``original`` at the wrapper."""
        for module_name, module in list(sys.modules.items()):
            if module_name.partition(".")[0] != "repro" or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attribute, original, replacement)

    def install(self) -> "Tracer":
        hooks = {"net.env_run_s": self._events, "sim.engine_map_s": self._units}
        for name, targets in SPAN_TARGETS.items():
            for module, owner, attribute in targets:
                found = _resolve(module, owner, attribute)
                if found is None:
                    self.missing.append(f"{module}.{owner or ''}.{attribute}")
                    continue
                holder, original = found
                wrapper = self._timed(name, original, hooks.get(name))
                if owner is None:
                    self._replace_function(original, wrapper)
                else:
                    self._replace(holder, attribute, original, wrapper)
        for name, (module, owner, attribute) in COUNT_TARGETS.items():
            found = _resolve(module, owner, attribute)
            if found is None:
                self.missing.append(f"{module}.{owner}.{attribute}")
                continue
            holder, original = found
            self._replace(holder, attribute, original, self._counted(name, original))
        self._wrap_builds()
        return self

    def _wrap_builds(self) -> None:
        """Span every registered ``ExperimentDef.build`` and the ``render``
        of the plans it returns (both are dataclass fields, not methods)."""
        from repro.study import experiment_ids, get_experiment

        for experiment_id in experiment_ids():
            definition = get_experiment(experiment_id)
            original = definition.build

            def build(params, _original=original):
                plan = _original(params)
                plan.render = self._timed("analysis.render_s", plan.render)
                return plan

            wrapped = self._timed("study.build_s", build)
            # ExperimentDef is frozen; the tracer swaps the field and
            # restores it on uninstall.
            object.__setattr__(definition, "build", wrapped)
            self._undo.append(
                lambda d=definition, o=original: object.__setattr__(d, "build", o)
            )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading --------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Seconds per span name (outermost spans of each name only)."""
        totals: Counter = Counter()
        for name, start, end, _parent, _pass in self.spans:
            totals[name] += end - start
        return dict(totals)

    def spans_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "pass": span_pass}
            for name, start, end, parent, span_pass in self.spans
        ]


def layer_of(filename: str, function: str) -> str:
    """The profiler layer of one function, from its source path."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        relative = path.rsplit("/repro/", 1)[1]
        for layer, prefixes in SELF_LAYERS.items():
            if relative.startswith(prefixes):
                return layer
        return "self.other"
    if "/numpy/" in path or "numpy" in function:
        return "self.numpy"
    return "self.other"


def self_shares(stats: dict) -> dict[str, float]:
    """Share of profiled self time per layer, from ``pstats.Stats.stats``."""
    per_layer: Counter = Counter()
    for (filename, _line, function), (_cc, _nc, self_time, _ct, _callers) in stats.items():
        per_layer[layer_of(filename, function)] += self_time
    total = sum(per_layer.values()) or 1.0
    shares = {layer: 0.0 for layer in [*SELF_LAYERS, "self.numpy"]}
    for layer, seconds in per_layer.items():
        if layer in shares:
            shares[layer] = seconds / total
    return shares
