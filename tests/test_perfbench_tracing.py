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

from repro.core.backends.numpy_backend import NumpySweepBackend
from repro.core.backends.pure import PurePythonBackend

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


def test_paper_external_layers_record_work(tracing, make_objects):
    """paper-external's layers, traced on a tiny forced-external pair.

    The workload runs ExactMaxRS (``solve_point_set(force_external=True)``)
    and ApproxMaxCRS (``MaxCRSSolver.solve``); with a 2 KB buffer both
    recurse, so each sorts, merges and (ApproxMaxCRS) scans its candidates.
    A layer renamed, or a call that bypasses the wrapped name, records
    nothing here, as it would read 0 in a traced benchmark run.
    """
    from repro import MaxCRSSolver
    from repro.core.dispatch import solve_point_set
    from repro.em.config import EMConfig

    points = make_objects(300, seed=8)
    config = EMConfig(block_size=512, buffer_size=4 * 512)
    trace = tracing.LayerTrace()
    try:
        trace.install()
        exact = solve_point_set(points, 6.0, 6.0, config=config,
                                force_external=True)
        MaxCRSSolver(6.0, config=config).solve(points)
    finally:
        trace.restore()
    assert exact.recursion_levels >= 2
    for layer in ("core.merge_sweep.merge", "em.external_sort",
                  "circles.coverage"):
        assert trace.total_s[layer] > 0.0, layer
