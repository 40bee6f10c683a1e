"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.results import FigureResult

__all__ = ["run_once", "series_values", "assert_exact_is_cheapest",
           "assert_non_increasing", "write_bench_json"]


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The figure reproductions are far too heavy for pytest-benchmark's usual
    auto-calibration (which would repeat them dozens of times); a single timed
    round is what we want -- the interesting measurement is the I/O count in
    the result, not nanosecond-level timing stability.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def series_values(figure: FigureResult, name: str) -> List[float]:
    """The y-values of one series in x order."""
    return [y for _, y in sorted(figure.series[name])]


def assert_exact_is_cheapest(figure: FigureResult) -> None:
    """ExactMaxRS must transfer the fewest blocks at every swept point."""
    for x in figure.x_values():
        exact = figure.value_at("ExactMaxRS", x)
        assert exact is not None
        for competitor in ("Naive", "aSB-Tree"):
            other = figure.value_at(competitor, x)
            assert other is None or exact <= other, (
                f"{figure.figure_id}: ExactMaxRS ({exact}) not cheapest "
                f"against {competitor} ({other}) at {figure.x_label}={x}"
            )


def assert_non_increasing(values: List[float], tolerance: float = 1e-9,
                          rel_slack: float = 0.0) -> None:
    """Assert a series never increases (e.g. I/O as the buffer grows).

    ``rel_slack`` tolerates small upward jitter (a few per cent) caused by
    boundary-selection differences between otherwise equivalent runs.
    """
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier * (1.0 + rel_slack) + tolerance, values


def weights_agree(figure: FigureResult) -> Dict[float, bool]:
    """Whether all algorithms reported the same optimum at each x."""
    from repro.experiments.sweeps import consistency_check

    return consistency_check(figure)


# ---------------------------------------------------------------------- #
# Machine-readable performance trajectory
# ---------------------------------------------------------------------- #
def _host_fingerprint() -> Dict[str, Any]:
    """What produced the numbers: platform, interpreter, cores, backend."""
    try:
        from repro.core.backends import backend_summary
        backend = backend_summary()
    except Exception:  # pragma: no cover - numpy-less host
        backend = "unavailable"
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy-less host
        numpy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": numpy_version,
        "sweep_backend": backend,
    }


def _exact_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Exact p50/p95/p99 (linear interpolation) from raw second samples."""
    ordered = sorted(samples)

    def at(quantile: float) -> float:
        rank = quantile * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    return {
        "count": len(ordered),
        "mean_seconds": sum(ordered) / len(ordered),
        "min_seconds": ordered[0],
        "max_seconds": ordered[-1],
        "p50_seconds": at(0.50),
        "p95_seconds": at(0.95),
        "p99_seconds": at(0.99),
    }


def write_bench_json(name: str, directory: str, *,
                     workload: Dict[str, Any],
                     config: Optional[Dict[str, Any]] = None,
                     seconds: Optional[float] = None,
                     baseline_seconds: Optional[float] = None,
                     speedup: Optional[float] = None,
                     samples: Optional[Sequence[float]] = None,
                     latency: Optional[Dict[str, Dict[str, float]]] = None,
                     extra: Optional[Dict[str, Any]] = None) -> str:
    """Write one ``BENCH_<name>.json`` artefact into ``directory``.

    This is the machine-readable half of the performance trajectory: where
    ``reproduced_artefacts.txt`` accumulates human-readable entries, each
    benchmark run *overwrites* its own JSON document so the checked-in
    artefact always describes the latest run on the latest code.  Every
    document carries a host fingerprint and the active preset, so numbers
    compared across PRs (or machines) stay attributable.

    Parameters
    ----------
    directory:
        Where to write: the ``artefact_dir`` fixture (the checked-in
        ``benchmarks/`` directory only under ``REPRO_BENCH_ARTEFACTS=1``).
    workload:
        What was measured (cardinality, query counts, mix name, ...).
    config:
        How the engine was configured (backend, pyramid depth, ...).
    seconds, baseline_seconds, speedup:
        The headline measurement, its baseline, and their ratio.
    samples:
        Raw per-query second samples; exact p50/p95/p99 are derived.
    latency:
        Already-summarised histograms (e.g. ``engine.stats()["latency"]``)
        keyed by series name, used as-is when raw samples are not available.
    extra:
        Any benchmark-specific detail worth keeping (I/O counts, balance).

    Returns the path written.
    """
    document: Dict[str, Any] = {
        "schema": 1,
        "name": name,
        "written_unix": time.time(),
        "preset": os.environ.get("REPRO_BENCH_PRESET", "fast"),
        "host": _host_fingerprint(),
        "workload": dict(workload),
    }
    if config:
        document["config"] = dict(config)
    if seconds is not None:
        document["seconds"] = float(seconds)
    if baseline_seconds is not None:
        document["baseline_seconds"] = float(baseline_seconds)
    if speedup is not None:
        document["speedup"] = float(speedup)
    if samples:
        document["latency"] = {"samples": _exact_percentiles(samples)}
    elif latency:
        document["latency"] = {
            series: {key: summary[key] for key in
                     ("count", "mean_seconds", "p50_seconds", "p95_seconds",
                      "p99_seconds") if key in summary}
            for series, summary in latency.items()}
    if extra:
        document["extra"] = dict(extra)

    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
