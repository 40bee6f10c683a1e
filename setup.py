"""Setuptools entry point: the ``repro`` package under ``src/``.

Install with ``pip install .`` (or ``pip install -e .`` for a development
checkout); the tests and examples also run uninstalled with
``PYTHONPATH=src``.  numpy is required: every external-memory pass moves
its blocks as numpy arrays, and the sweeps, the resident engine and the
exact circle solver are numpy-vectorised.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=("Maximizing range sum in spatial databases: ExactMaxRS, "
                 "ApproxMaxCRS and a resident MaxRS query engine"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
