"""Package metadata for the MSPlayer (CoNEXT'14) reproduction."""

import os

from setuptools import find_packages, setup

setup(
    name="repro-msplayer",
    version="0.2.0",
    description=(
        "Reproduction of 'MSPlayer: Multi-Source and multi-Path "
        "LeverAged YoutubER' (CoNEXT 2014): discrete-event simulator, "
        "players, schedulers, and the paper's experiment campaigns"
    ),
    # ROADMAP.md is absent from sdists (setuptools only auto-includes
    # README*); fall back so installs from a tarball don't crash.
    long_description=(
        open("ROADMAP.md", encoding="utf-8").read()
        if os.path.exists("ROADMAP.md")
        else "MSPlayer (CoNEXT 2014) reproduction."
    ),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        # The simulator's only runtime dependency: seeded substreams
        # (PCG64 / SeedSequence) and the analysis layer's statistics.
        "numpy>=1.22",
    ],
    extras_require={
        "test": [
            "pytest>=7.0",
            "hypothesis>=6.0",
        ],
        "bench": [
            "pytest>=7.0",
            "pytest-benchmark>=4.0",
        ],
        # The static-analysis toolchain (CI's static-analysis job and
        # the pre-commit hooks).  `repro lint` itself is stdlib-only;
        # mypy drives the strict-typing ratchet and ruff the style
        # families selected in pyproject.toml.
        "lint": [
            "mypy>=1.8",
            "ruff>=0.4",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: System :: Networking",
    ],
)
