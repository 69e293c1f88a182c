"""Packaging metadata for ``repro``.

The version is read from ``src/repro/__init__.py``, its one home. Install
with ``pip install .``; ``--no-build-isolation`` builds offline from the
setuptools and wheel already installed. Tests, examples and benchmarks also
run straight from the source tree with ``PYTHONPATH=src``.
"""

import pathlib
import re

from setuptools import find_packages, setup

_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "Certain predictions for nearest-neighbour classifiers over incomplete data"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.11",
)
