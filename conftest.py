"""Repository-level pytest configuration.

Ensures the ``repro`` package under ``src/`` is importable even when the
package has not been installed with ``pip install .`` (see ``setup.py``):
an installed copy is used as is, otherwise ``src/`` goes on ``sys.path``.
It also holds the one fixture the tests and the benchmarks share,
``pure_backend``.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401  (already installed: nothing to do)
    except ModuleNotFoundError:
        sys.path.insert(0, str(_SRC))


@pytest.fixture
def pure_backend():
    """``with pure_backend():`` runs every sweep in the block on the
    pure-Python reference backend.

    The library sweeps on numpy
    (:func:`repro.core.backends.platform_backend`, which every solver and
    the engine look up when they sweep); the block swaps that selection for
    the reference, so a test or benchmark runs both implementations in one
    interpreter, as ``tests/external_cases.py::use_record_paths`` does for
    the external-memory passes.
    """
    @contextlib.contextmanager
    def forced():
        from repro.core import backends
        from repro.core.backends.pure import PurePythonBackend

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends, "platform_backend", PurePythonBackend)
            yield

    return forced
