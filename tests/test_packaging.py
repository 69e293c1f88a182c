"""setup.py carries the package metadata: the name and the one version."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_setup_py_reports_name_and_version() -> None:
    # --name/--version print metadata and write no files.
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.split() == ["repro", repro.__version__]
