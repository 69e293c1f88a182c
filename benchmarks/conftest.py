"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or one
ablation or CI bar), prints it, and appends it to
``benchmarks/output/results.txt`` so the rows survive pytest's output
capturing. Benchmarks honour the ``REPRO_SCALE`` environment variable
(``quick`` / ``default`` / ``large``).

The CI-gating benchmarks (``bench_planner``, ``bench_pruning``,
``bench_service``, …) additionally emit a machine-readable
``BENCH_<name>.json`` report; :func:`bench_output_path` and
:func:`write_bench_report` are the one shared implementation of that
emit path (every script used to hand-roll its own mkdir+dump).
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess

try:
    import pytest
except ImportError:  # standalone `python benchmarks/bench_*.py` runs only
    pytest = None  # need the report helpers below, not the fixtures

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def bench_output_path(name: str) -> pathlib.Path:
    """The canonical location of a ``BENCH_<name>.json`` report."""
    return OUTPUT_DIR / f"BENCH_{name}.json"


def _git_sha() -> str | None:
    """The repository HEAD, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def provenance() -> dict:
    """The provenance fields stamped into every ``BENCH_*.json`` report.

    A report compared across branches or machines is meaningless without
    knowing what ran where: the commit, when it ran, and how many CPUs
    the parallel backends had to play with.
    """
    return {
        "git_sha": _git_sha(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "cpu_count": os.cpu_count(),
    }


def write_bench_report(output: pathlib.Path | str, report: dict) -> pathlib.Path:
    """Write one benchmark's JSON report (creating directories), echo the
    path, and return it. ``report`` must be JSON-serialisable; the
    :func:`provenance` fields (git SHA, UTC timestamp, CPU count) are
    stamped in first, so a report key of the same name wins."""
    path = pathlib.Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    stamped = {**provenance(), **report}
    path.write_text(json.dumps(stamped, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {path}")
    return path


if pytest is not None:

    @pytest.fixture(scope="session")
    def emit():
        """Print a report block and persist it to benchmarks/output/results.txt."""
        OUTPUT_DIR.mkdir(exist_ok=True)
        path = OUTPUT_DIR / "results.txt"

        def _emit(text: str) -> None:
            block = "\n" + text + "\n"
            print(block)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(block)

        return _emit
