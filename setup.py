"""Setuptools entry point: the ``repro`` package under ``src/``.

Install with ``pip install .`` (or ``pip install -e .`` for a development
checkout); the tests and examples also run uninstalled with
``PYTHONPATH=src``.  numpy is optional: the package imports without it,
and ExactMaxRS (pure sweeps and the record-at-a-time MergeSweep),
ApproxMaxCRS, ``MaxRSSolver``, ``MaxCRSSolver`` and the baselines still
answer.  The numpy sweep backend, the block-batched MergeSweep, the
resident engine and the exact circle solver need it.
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
)
