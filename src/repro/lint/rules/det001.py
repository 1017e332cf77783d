"""DET001 — no ambient nondeterminism on deterministic paths.

The simulator's contract is that a trial is a pure function of its
``(seed, label)`` pair: serial and process backends and pickle and
shm IPC must produce byte-identical results.
Any read of ambient entropy or wall-clock time inside the simulated
world silently breaks that.  Randomness must come from
:class:`repro.rng.RngFactory` substreams and time from the simulated
environment clock (``env.now``).

Flagged inside ``sim/ net/ core/ cdn/ ext/`` paths:

* importing ``random``, ``secrets``, or ``uuid``;
* calling ``time.time`` / ``time.monotonic`` / ``time.perf_counter`` /
  ``time.time_ns``;
* calling ``datetime.now`` / ``datetime.utcnow`` / ``date.today``;
* calling ``os.urandom`` or ``os.getrandom``;
* calling ``numpy.random.default_rng`` / seeding helpers with no
  arguments (an unseeded generator is OS entropy).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..base import ModuleContext, Rule, rule
from ..findings import Finding

_BANNED_MODULES = {
    "random": "use repro.rng.RngFactory substreams instead",
    "secrets": "OS entropy breaks (seed, label) reproducibility",
    "uuid": "derive identifiers from the trial seed/label instead",
}

#: (object, attribute) call pairs that read ambient entropy or time.
_BANNED_CALLS = {
    ("time", "time"): "use the simulated clock (env.now)",
    ("time", "time_ns"): "use the simulated clock (env.now)",
    ("time", "monotonic"): "use the simulated clock (env.now)",
    ("time", "monotonic_ns"): "use the simulated clock (env.now)",
    ("time", "perf_counter"): "use the simulated clock (env.now)",
    ("time", "perf_counter_ns"): "use the simulated clock (env.now)",
    ("datetime", "now"): "use the simulated clock (env.now)",
    ("datetime", "utcnow"): "use the simulated clock (env.now)",
    ("date", "today"): "use the simulated clock (env.now)",
    ("os", "urandom"): "use repro.rng.RngFactory substreams instead",
    ("os", "getrandom"): "use repro.rng.RngFactory substreams instead",
}


def _dotted_tail(node: ast.expr) -> tuple[str, str] | None:
    """``a.b.c`` -> ("b", "c"): the last two components of a dotted ref."""
    if not isinstance(node, ast.Attribute):
        return None
    if isinstance(node.value, ast.Name):
        return (node.value.id, node.attr)
    if isinstance(node.value, ast.Attribute):
        return (node.value.attr, node.attr)
    return None


@rule
class AmbientNondeterminism(Rule):
    id = "DET001"
    title = "no ambient randomness or wall-clock reads on deterministic paths"
    rationale = (
        "sim/net/core/cdn/ext results must be bit-identical across backends "
        "and IPC modes; entropy must flow from repro.rng and time "
        "from the environment clock."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_deterministic_path():
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"import of {alias.name!r} on a deterministic path; "
                            f"{_BANNED_MODULES[root]}",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in _BANNED_MODULES:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"import from {node.module!r} on a deterministic path; "
                        f"{_BANNED_MODULES[root]}",
                    )
            elif isinstance(node, ast.Call):
                tail = _dotted_tail(node.func)
                if tail in _BANNED_CALLS:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"call to {tail[0]}.{tail[1]}() reads ambient state; "
                        f"{_BANNED_CALLS[tail]}",
                    )
                elif (
                    tail is not None
                    and tail[1] == "default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        "unseeded default_rng() draws OS entropy; derive the "
                        "generator from repro.rng.RngFactory",
                    )
