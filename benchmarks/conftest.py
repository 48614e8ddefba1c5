"""Shared benchmark fixtures and the experiment-report sink.

Every benchmark regenerates one table/figure of the paper (see
DESIGN.md §4).  Besides timing, each writes its reproduction table to
``benchmarks/out/<exp>.txt`` and echoes it to stdout (visible with
``pytest -s`` or in the captured output of a failing run) so the
paper-vs-measured comparison in EXPERIMENTS.md can be regenerated from
the files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.display.presets import cyber_commons_wall, paper_viewport
from repro.synth import AntStudyConfig, Arena, generate_study_dataset

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def arena() -> Arena:
    return Arena()


@pytest.fixture(scope="session")
def full_dataset():
    """The paper-scale dataset: ~500 trajectories, default seed."""
    return generate_study_dataset(AntStudyConfig(n_trajectories=500))


@pytest.fixture(scope="session")
def wall():
    return cyber_commons_wall()


@pytest.fixture(scope="session")
def viewport(wall):
    return paper_viewport(wall)


@pytest.fixture(scope="session")
def provenance() -> dict:
    """What a recorded number was measured with: the checkout's git sha
    (``+dirty`` with uncommitted changes), CPU count, Python and numpy."""
    import os
    import platform
    import subprocess

    import numpy

    root = Path(__file__).resolve().parent.parent
    sha = "unknown"
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no", "--", "src"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0:
            sha = head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


@pytest.fixture(scope="session")
def report_sink():
    """Write an experiment table to benchmarks/out/ and stdout."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(exp_id: str, title: str, lines: list[str]) -> None:
        text = "\n".join([f"=== {exp_id}: {title} ===", *lines, ""])
        (OUT_DIR / f"{exp_id}.txt").write_text(text)
        print("\n" + text)

    return write
