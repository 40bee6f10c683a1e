"""Shared fixtures for the benchmark suite.

Every benchmark module reproduces one table or figure of the paper (plus a
few ablations and substrate microbenchmarks).  The workload scale is
controlled by the ``REPRO_BENCH_PRESET`` environment variable:

* ``fast`` (default) -- a few thousand objects per run; the whole suite
  finishes in a few minutes and still shows the paper's qualitative shapes;
* ``bench`` -- the harness's standard scale (10% of the paper's
  cardinalities);
* ``smoke`` -- tiny; for checking the plumbing;
* ``paper`` -- the full-scale sweeps (hours in pure Python; run selectively).

Each figure benchmark prints the reproduced series (the same rows the paper
plots) so the captured benchmark output doubles as the measured side of
EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import PRESETS, ExperimentScale

#: The default benchmark scale: small enough for minutes-long runs, large
#: enough that ExactMaxRS still recurses and the baselines' curves separate.
FAST_SCALE = ExperimentScale(
    cardinality_scale=0.02,
    buffer_scale=0.08,
    simulate_baselines=True,
    quality_cardinality_scale=0.008,
)

_PRESETS = dict(PRESETS)
_PRESETS["fast"] = FAST_SCALE


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale selected via ``REPRO_BENCH_PRESET``."""
    name = os.environ.get("REPRO_BENCH_PRESET", "fast")
    try:
        return _PRESETS[name]
    except KeyError:  # pragma: no cover - defensive
        raise RuntimeError(
            f"unknown REPRO_BENCH_PRESET {name!r}; choose from {sorted(_PRESETS)}"
        ) from None


#: Set to ``1`` to write the ``BENCH_*.json`` files and the artefact log into
#: the checkout (``make bench-json`` and the regression gate do).
ARTEFACTS_ENV = "REPRO_BENCH_ARTEFACTS"


@pytest.fixture(scope="session")
def artefact_dir(tmp_path_factory) -> str:
    """Where the benchmarks write ``BENCH_*.json`` and the artefact log.

    The checked-in ``benchmarks/`` directory under ``REPRO_BENCH_ARTEFACTS=1``;
    otherwise pytest's temporary directory, so a plain test run (tier-1
    collects this directory) leaves the working tree clean.
    """
    if os.environ.get(ARTEFACTS_ENV) == "1":
        return os.path.dirname(__file__)
    return str(tmp_path_factory.mktemp("artefacts"))


@pytest.fixture(scope="session")
def report(request, artefact_dir):
    """Print a reproduced artefact so it lands in the benchmark output.

    Output capturing is temporarily disabled so the reproduced tables and
    series appear in the terminal (and in any ``tee``'d benchmark log) even
    for passing tests; they are also written to ``reproduced_artefacts.txt``
    in :func:`artefact_dir` for later reference.  The session's first entry
    truncates the log, so it describes the last run only, like the
    ``BENCH_*.json`` files.

    Every recorded entry carries the platform's sweep backend and the numpy
    version, so performance trajectories compared across PRs stay
    attributable to the sweep implementation that produced them.
    Benchmarks that force the reference backend for a measurement (the
    backend A/B comparison) name it in their own entry text.
    """
    import numpy

    from repro.core.backends import platform_backend

    capture_manager = request.config.pluginmanager.getplugin("capturemanager")
    results_path = os.path.join(artefact_dir, "reproduced_artefacts.txt")
    backend_note = (f"  [sweep backend: {platform_backend().name} "
                    f"(numpy {numpy.__version__})]")
    mode = "w"

    def _print(text: str) -> None:
        nonlocal mode
        block = "\n" + text + "\n" + backend_note + "\n"
        if capture_manager is not None:
            with capture_manager.global_and_fixture_disabled():
                print(block)
        else:  # pragma: no cover - capture plugin always present under pytest
            print(block)
        with open(results_path, mode) as handle:
            handle.write(block)
        mode = "a"

    return _print
