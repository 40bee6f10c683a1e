"""The hook points of the benchmark's per-layer trace (``perfbench/
tracing.py``, run by ``perfbench/run.py --trace 1``).

``LayerTrace.install`` wraps attributes defined on the program's classes
and modules by name; one that is renamed or moved makes it raise
``KeyError``, which otherwise only a traced benchmark run would notice.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("numpy")

from repro.core.backends.numpy_backend import NumpySweepBackend  # noqa: E402
from repro.core.backends.pure import PurePythonBackend  # noqa: E402

_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_the_sweeps_and_restore_puts_everything_back(tracing):
    originals = {cls: cls.__dict__["sweep"]
                 for cls in (NumpySweepBackend, PurePythonBackend)}
    trace = tracing.LayerTrace()
    try:
        trace.install()
        patched = list(trace._undo)
        for cls, original in originals.items():
            assert cls.__dict__["sweep"] is not original
            assert cls.__dict__["sweep"].__wrapped__ is original
    finally:
        trace.restore()
    # An attribute wrapped twice (through an alias) is recorded twice; the
    # first record holds the original.
    first = {}
    for owner, attr, value in patched:
        first.setdefault((owner, attr), value)
    assert first
    for (owner, attr), original in first.items():
        assert owner.__dict__[attr] is original
    for cls, original in originals.items():
        assert cls.__dict__["sweep"] is original
