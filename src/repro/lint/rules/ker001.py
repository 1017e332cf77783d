"""KER001 — respect the Environment API and its fast lanes.

Two halves:

* **Bypass** — the event queue's internals (the ``env._heap`` list,
  ``_schedule_event``/``_schedule_resume``, the timer pool, the active
  process) are owned by the kernel modules (``net/env.py``,
  ``net/events.py``, ``net/simclock.py``).  Anything else reaching for
  them skips the one-validation-per-schedule contract and couples
  itself to the queue's entry layout.  The set also keeps the names of
  retired queue layouts (``_scheduler``, ``_push``, calendar bucket
  state) so code written against them stays flagged.

* **Fast-lane advisory** — a bare ``yield env.timeout(...)`` statement
  allocates a fresh ``Timeout`` event per wait and discards it; per-
  chunk churners should use ``env.pooled_timeout(...)`` (recycled
  event, bit-identical dispatch order) or ``env.call_at`` for fire-and-
  forget wake-ups.  Sites that genuinely need a composable event
  (stored, raced with ``AnyOf``) keep ``env.timeout`` and waive or
  baseline the finding with a justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from ..base import ModuleContext, Rule, rule
from ..findings import Finding

#: Attribute names that are unambiguous scheduler internals.  Generic
#: spellings (``_now``, ``_n``, ``_counter``, ``_clock``) are excluded:
#: unrelated classes legitimately use them for their own state.
_SCHEDULER_INTERNALS = frozenset(
    {
        "_scheduler",
        "_push",
        "_push_callback",
        "_schedule_event",
        "_schedule_resume",
        "_buckets",
        "_dirty",
        "_cursor",
        "_far",
        "_heap",
        "_timer_pool",
        "_active_process",
    }
)


@rule
class KernelApiBypass(Rule):
    id = "KER001"
    title = "no scheduler-internal access; prefer the kernel fast lanes"
    rationale = (
        "scheduler internals are owned by net/env|events|simclock; "
        "external access skips delay validation and breaks when the kernel "
        "changes.  Discarded per-wait Timeouts should ride the pooled-timer "
        "or bare-callback fast lanes."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.is_kernel_internal():
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _SCHEDULER_INTERNALS
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    f"access to scheduler internal {node.attr!r} outside the "
                    "kernel modules; use the Environment API "
                    "(timeout/pooled_timeout/call_at/process/run)",
                )
            elif (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Yield)
                and isinstance(node.value.value, ast.Call)
                and isinstance(node.value.value.func, ast.Attribute)
                and node.value.value.func.attr == "timeout"
                and ctx.in_deterministic_path()
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "bare `yield env.timeout(...)` discards a fresh Event per "
                    "wait; use env.pooled_timeout(...) (bit-identical "
                    "dispatch) or waive with a justification if the event "
                    "must compose",
                )
