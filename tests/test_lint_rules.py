"""Fixture corpus for the repro-lint rules.

Every rule gets at least one fixture-verified true positive (bad
snippet → finding) and true negative (good snippet → clean).  Snippets
are written under path shapes that trigger the rules' path
classification (``net/``, ``sim/``, ``core/buffer*``, …) so the tests
also pin the classification logic itself.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.base import ModuleContext
import ast


def lint_snippet(tmp_path: Path, rel: str, source: str, select=None):
    """Write ``source`` at ``tmp_path/rel`` and lint it; returns findings."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    report = run_lint([target], select=select, root=tmp_path)
    return report.findings


def rules_hit(findings) -> set[str]:
    return {finding.rule for finding in findings}


# ---------------------------------------------------------------------------
# DET001 — ambient nondeterminism
# ---------------------------------------------------------------------------


class TestDET001:
    def test_flags_random_import(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert "DET001" in rules_hit(findings)
        assert any("random" in f.message for f in findings)

    def test_flags_wall_clock_and_urandom(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "sim/mod.py",
            """
            import os
            import time

            def stamp():
                return time.time(), os.urandom(4)
            """,
        )
        det = [f for f in findings if f.rule == "DET001"]
        assert len(det) == 2

    def test_flags_unseeded_default_rng(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "ext/mod.py",
            """
            import numpy as np

            def draw():
                return np.random.default_rng().random()
            """,
        )
        assert "DET001" in rules_hit(findings)

    def test_clean_outside_deterministic_paths(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "live/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert "DET001" not in rules_hit(findings)

    def test_clean_for_seeded_rng_and_env_clock(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            import numpy as np

            def draw(factory, env):
                generator = factory.generator("link.bandwidth")
                seeded = np.random.default_rng(42)
                return generator.random(), seeded.random(), env.now
            """,
        )
        assert "DET001" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# DET002 — bare set iteration
# ---------------------------------------------------------------------------


class TestDET002:
    def test_flags_for_loop_over_set_literal(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "cdn/mod.py",
            """
            def demux(out):
                for key in {"b", "a"}:
                    out.append(key)
            """,
        )
        assert "DET002" in rules_hit(findings)

    def test_flags_loop_over_tracked_set_variable(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "sim/mod.py",
            """
            def schedule(items, out):
                pending = set(items)
                for item in pending:
                    out.append(item)
            """,
        )
        assert "DET002" in rules_hit(findings)

    def test_flags_list_of_set_union_and_set_pop(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            def merge(a, b):
                ordered = list(set(a) | set(b))
                leftovers = set(a)
                first = leftovers.pop()
                return ordered, first
            """,
        )
        det = [f for f in findings if f.rule == "DET002"]
        assert len(det) == 2

    def test_clean_when_sorted(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            def merge(a, b, out):
                for key in sorted(set(a) | set(b)):
                    out.append(key)
                names = sorted(item.name for item in set(a))
                return names, min(set(b)) if b else None
            """,
        )
        assert "DET002" not in rules_hit(findings)

    def test_clean_for_dict_iteration(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "core/mod.py",
            """
            def walk(table, out):
                for key, value in table.items():
                    out.append((key, value))
                for value in table.values():
                    out.append(value)
            """,
        )
        assert "DET002" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# DET003 — float equality on times/priorities
# ---------------------------------------------------------------------------


class TestDET003:
    def test_flags_equality_on_time_named_operands(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            def ready(entry, deadline):
                return entry.when == deadline
            """,
        )
        assert "DET003" in rules_hit(findings)

    def test_flags_float_literal_comparison(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "sim/mod.py",
            """
            def check(x):
                return x != 1.5
            """,
        )
        assert "DET003" in rules_hit(findings)

    def test_clean_for_ordering_and_exact_operands(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            def ok(entry, deadline, count, label):
                return (
                    entry.when <= deadline
                    and count == 3
                    and label == "steady"
                    and entry.reason == None
                )
            """,
        )
        assert "DET003" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# WRK001 — spec picklability
# ---------------------------------------------------------------------------


class TestWRK001:
    def test_flags_nested_spec_class(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere/mod.py",
            """
            def build():
                class LocalSpec:
                    label = "x"

                return LocalSpec()
            """,
        )
        assert "WRK001" in rules_hit(findings)

    def test_flags_lambda_in_spec_body_and_call(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass, field

            @dataclass
            class TrialSpec:
                hook: object = field(default_factory=lambda: None)

            def build(TrialSpec):
                return TrialSpec(driver=lambda scenario: None)
            """,
        )
        wrk = [f for f in findings if f.rule == "WRK001"]
        assert len(wrk) == 2

    def test_flags_closure_argument(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "mod.py",
            """
            def build(make_spec):
                def hook(scenario):
                    return None

                return make_spec.TrialSpec(scenario_hook=hook)
            """,
        )
        assert "WRK001" in rules_hit(findings)

    def test_clean_for_module_level_spec(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "mod.py",
            """
            from dataclasses import dataclass

            def module_hook(scenario):
                return None

            @dataclass
            class GoodSpec:
                label: str = "x"

            def build():
                return GoodSpec(label="y"), module_hook
            """,
        )
        assert "WRK001" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# KER001 — kernel API discipline
# ---------------------------------------------------------------------------


class TestKER001:
    def test_flags_scheduler_internal_access(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "cdn/mod.py",
            """
            def cheat(env, event):
                env._schedule_event(event)
                return env._scheduler.pop()
            """,
        )
        ker = [f for f in findings if f.rule == "KER001"]
        assert len(ker) == 2

    @pytest.mark.parametrize(
        "attr",
        [
            # the heap kernel's own internals
            "_heap",
            "_schedule_resume",
            "_timer_pool",
            "_active_process",
            # retired queue layouts stay flagged
            "_push",
            "_buckets",
        ],
    )
    def test_flags_each_internal_name(self, tmp_path, attr):
        findings = lint_snippet(
            tmp_path,
            "cdn/mod.py",
            f"""
            def peek(env):
                return env.{attr}
            """,
        )
        assert [f.rule for f in findings if f.rule == "KER001"] == ["KER001"]

    def test_retired_calendar_module_is_not_kernel_internal(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/calendar.py",
            """
            def drain(env):
                return env._heap.pop()
            """,
        )
        assert "KER001" in rules_hit(findings)

    def test_flags_bare_yield_timeout(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "sim/mod.py",
            """
            def ticker(env):
                while True:
                    yield env.timeout(0.5)
            """,
        )
        assert "KER001" in rules_hit(findings)

    def test_clean_inside_kernel_modules(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/env.py",
            """
            def drive(self, event):
                self._scheduler.schedule(0.0, 1, event)
            """,
        )
        assert "KER001" not in rules_hit(findings)

    def test_clean_for_fast_lanes_and_composed_events(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "sim/mod.py",
            """
            def ticker(env, flow):
                while True:
                    yield env.pooled_timeout(0.5)
                    guard = env.timeout(2.0)
                    yield guard | flow.done_event
            """,
        )
        assert "KER001" not in rules_hit(findings)


# ---------------------------------------------------------------------------
# SLT001 — hot-module __slots__
# ---------------------------------------------------------------------------


class TestSLT001:
    def test_flags_dictful_class_in_net(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            class FlowState:
                def __init__(self):
                    self.rate = 0.0
            """,
        )
        assert "SLT001" in rules_hit(findings)

    def test_flags_plain_dataclass_in_hot_core(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "core/buffer_extra.py",
            """
            from dataclasses import dataclass

            @dataclass
            class Window:
                start: float = 0.0
            """,
        )
        assert "SLT001" in rules_hit(findings)
        assert any("slots=True" in f.message for f in findings)

    def test_clean_for_slotted_exempt_and_cold_classes(self, tmp_path):
        source = """
            import enum
            from dataclasses import dataclass
from typing import Protocol


            class Slotted:
                __slots__ = ("rate",)


            @dataclass(slots=True)
            class Window:
                start: float = 0.0


            class Phase(enum.Enum):
                ON = "on"


            class KernelError(Exception):
                pass


            class Driver(Protocol):
                def run(self) -> None: ...
        """
        assert "SLT001" not in rules_hit(lint_snippet(tmp_path, "net/ok.py", source))
        dictful = """
            class Anything:
                def __init__(self):
                    self.x = 1
        """
        assert "SLT001" not in rules_hit(
            lint_snippet(tmp_path, "analysis/mod.py", dictful)
        )


# ---------------------------------------------------------------------------
# Cross-cutting engine behaviour
# ---------------------------------------------------------------------------


class TestEngine:
    def test_findings_are_sorted_and_carry_context(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            import random

            class Unslotted:
                pass
            """,
        )
        assert findings == sorted(findings)
        assert findings[0].context == "import random"
        assert findings[0].path.endswith("net/mod.py")
        assert findings[0].line == 2

    def test_select_restricts_rules(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "net/mod.py",
            """
            import random

            class Unslotted:
                pass
            """,
            select=["SLT001"],
        )
        assert rules_hit(findings) == {"SLT001"}

    def test_unknown_select_raises(self, tmp_path):
        from repro.errors import ConfigError

        (tmp_path / "mod.py").write_text("x = 1\n")
        with pytest.raises(ConfigError, match="unknown rule"):
            run_lint([tmp_path / "mod.py"], select=["BOGUS9"])

    def test_syntax_error_is_a_parse_finding(self, tmp_path):
        findings = lint_snippet(tmp_path, "net/bad.py", "def broken(:\n")
        assert rules_hit(findings) == {"PARSE"}

    def test_rule_registry_is_complete(self):
        from repro.lint import rule_ids

        assert rule_ids() == [
            "DET001",
            "DET002",
            "DET003",
            "KER001",
            "SLT001",
            "WRK001",
        ]

    def test_repo_source_tree_is_clean(self):
        """The acceptance gate: zero unbaselined findings over src/."""
        repo_root = Path(__file__).resolve().parent.parent
        report = run_lint([repo_root / "src"], root=repo_root)
        assert report.clean, "\n".join(f.render() for f in report.findings)

    def test_module_context_classification(self):
        tree = ast.parse("x = 1\n")
        net = ModuleContext(path="src/repro/net/link.py", tree=tree, lines=["x = 1"])
        assert net.in_deterministic_path() and net.in_hot_path()
        assert not net.is_kernel_internal()
        env = ModuleContext(path="src/repro/net/env.py", tree=tree, lines=["x = 1"])
        assert env.is_kernel_internal()
        core = ModuleContext(
            path="src/repro/core/buffer.py", tree=tree, lines=["x = 1"]
        )
        assert core.in_hot_path()
        cold = ModuleContext(
            path="src/repro/analysis/stats.py", tree=tree, lines=["x = 1"]
        )
        assert not cold.in_hot_path() and not cold.in_deterministic_path()
