"""The strict-typing ratchet: the mypy allowlist only ever grows.

``pyproject.toml`` adopts mypy strictness module by module via a
``[[tool.mypy.overrides]]`` allowlist.  This test freezes the floor:
removing an entry (or weakening a strict component flag) fails here,
so strictness can be added in any PR but never silently dropped.

The mypy *run* itself is a separate, availability-gated test — the
ratchet must hold even on machines without mypy installed.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"

#: The ratchet floor.  Entries are only ever ADDED to this set (and to
#: pyproject's override in the same commit); removing one is a build
#: failure by design.
RATCHET_FLOOR = frozenset(
    {
        "repro.net.env",
        "repro.net.events",
        "repro.sim.execution",
        "repro.sim.shm",
        "repro.study.*",
    }
)

#: Strict component flags every allowlist override must keep enabled
#: (mypy's `strict = true` cannot be set per-module).
REQUIRED_STRICT_FLAGS = (
    "disallow_untyped_defs",
    "disallow_incomplete_defs",
    "disallow_any_generics",
    "warn_return_any",
    "strict_equality",
)


def load_mypy_config() -> dict:
    with PYPROJECT.open("rb") as handle:
        payload = tomllib.load(handle)
    return payload["tool"]["mypy"]


def strict_override() -> dict:
    """The override section holding the strict allowlist."""
    config = load_mypy_config()
    overrides = config.get("overrides", [])
    for section in overrides:
        modules = set(section.get("module", []))
        if modules & RATCHET_FLOOR:
            return section
    pytest.fail("pyproject.toml lost the [[tool.mypy.overrides]] allowlist")


def test_allowlist_never_shrinks():
    modules = set(strict_override()["module"])
    missing = RATCHET_FLOOR - modules
    assert not missing, (
        f"mypy strict allowlist shrank: {sorted(missing)} removed. "
        "The ratchet only turns one way — restore the entries (and if a "
        "module was renamed, update RATCHET_FLOOR in the same commit)."
    )


def test_strict_flags_stay_enabled():
    section = strict_override()
    disabled = [flag for flag in REQUIRED_STRICT_FLAGS if section.get(flag) is not True]
    assert not disabled, (
        f"strict component flag(s) weakened on the allowlist: {disabled}"
    )


def test_global_profile_points_at_package():
    config = load_mypy_config()
    assert config["mypy_path"] == "src"
    assert config["packages"] == ["repro"]


@pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed in this environment"
)
def test_mypy_passes_on_allowlist():
    """Run mypy over the package; the overrides scope the strictness."""
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", str(PYPROJECT)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
