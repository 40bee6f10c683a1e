"""Bounded-error fast path vs exact refined queries on one engine.

The bounded-error workload at (near-)paper scale, 200k points, on a uniform
and a hotspot-skewed dataset: register each once and serve four large cold
queries twice on the same engine, exactly and with ``error_bound=0.05``.
A bounded query runs the exact query's probe (the best grid window's exact
solve) and serves it when the best base-grid window bound certifies the
gap; otherwise it runs the exact refine.  Two properties are checked:

* **The certificate holds** -- every bounded answer's ``result.gap`` bounds
  the true optimum: ``exact <= approx * (1 + gap)`` with ``gap <= 0.05``,
  and the bounded path never sweeps more points than the exact path;
* **The fast path is fast** -- on the 200k uniform dataset the bounded
  queries all certify and answer >= 2x faster than the exact ones
  (asserted at (near-)paper scale; smaller presets record the measured
  numbers but only assert correctness).

The module, its test and the ``BENCH_pyramid.json`` entry keep the name of
the grid pyramid this benchmark once compared against the flat grid.
"""

from __future__ import annotations

import time

import pytest

np = pytest.importorskip("numpy")  # index construction is numpy-backed

from _bench_utils import write_bench_json
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

#: Paper-scale cardinality of the benchmark datasets.
PAPER_CARDINALITY = 200_000

#: The acceptance gap a bounded answer must certify.
ERROR_BOUND = 0.05

_DOMAIN = 1_000_000.0

#: Large cold queries: the regime where the exact path must sweep most of
#: the dataset but the best window bound already certifies a 5% gap (sides
#: >= ~0.55 of the domain certify comfortably at 200k points).
_FAST_SIZES = [(600_000.0, 600_000.0), (550_000.0, 650_000.0),
               (650_000.0, 550_000.0), (620_000.0, 580_000.0)]


def _uniform_columns(cardinality: int, seed: int = 11):
    """Uniform points over the domain with small integer weights."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, _DOMAIN, cardinality)
    ys = rng.uniform(0.0, _DOMAIN, cardinality)
    ws = rng.choice([1.0, 2.0, 3.0], size=cardinality)
    return xs, ys, ws


def _hotspot_columns(cardinality: int, seed: int = 37):
    """Uniform background (90%) plus five dense hot spots (10%), as columns."""
    rng = np.random.default_rng(seed)
    background = int(cardinality * 0.9)
    hot = cardinality - background
    centres = rng.uniform(0.2 * _DOMAIN, 0.8 * _DOMAIN, size=(5, 2))
    sigma = 0.005 * _DOMAIN
    picks = centres[np.arange(hot) % 5]
    xs = np.concatenate([
        rng.uniform(0.0, _DOMAIN, background),
        np.clip(rng.normal(picks[:, 0], sigma), 0.0, _DOMAIN)])
    ys = np.concatenate([
        rng.uniform(0.0, _DOMAIN, background),
        np.clip(rng.normal(picks[:, 1], sigma), 0.0, _DOMAIN)])
    ws = rng.choice([1.0, 2.0, 3.0], size=cardinality)
    return xs, ys, ws


def _swept(engine: MaxRSEngine) -> int:
    return engine.metrics.snapshot()["counters"].get("swept_points", 0)


def _timed_queries(engine: MaxRSEngine, handle, specs):
    """``(results, seconds, swept points)`` of answering ``specs`` cold."""
    swept_before = _swept(engine)
    start = time.perf_counter()
    results = [engine.query(handle, spec) for spec in specs]
    return results, time.perf_counter() - start, _swept(engine) - swept_before


def test_pyramid_vs_flat(scale, report, artefact_dir):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    datasets = {"uniform": _uniform_columns(cardinality),
                "hotspot": _hotspot_columns(cardinality)}
    exact_specs = [QuerySpec.maxrs(w, h) for w, h in _FAST_SIZES]
    bounded_specs = [QuerySpec.maxrs(w, h, error_bound=ERROR_BOUND)
                     for w, h in _FAST_SIZES]

    per_dataset = {}
    for name, (xs, ys, ws) in datasets.items():
        objects = [WeightedPoint(float(x), float(y), float(w))
                   for x, y, w in zip(xs, ys, ws)]
        with MaxRSEngine() as engine:
            handle = engine.register_dataset(objects, name=name)
            exact_results, exact_seconds, exact_swept = _timed_queries(
                engine, handle, exact_specs)
            bounded_results, bounded_seconds, bounded_swept = \
                _timed_queries(engine, handle, bounded_specs)
            certified = engine.metrics.counter("descent_certified")

        # The certificate: exact optimum within (1 + gap) of every bounded
        # answer, and the gap within the requested bound.
        for spec, exact_r, approx_r in zip(exact_specs, exact_results,
                                           bounded_results):
            assert approx_r.gap is not None, spec
            assert approx_r.gap <= ERROR_BOUND + 1e-12, (spec, approx_r.gap)
            assert approx_r.total_weight <= exact_r.total_weight + 1e-9, spec
            assert exact_r.total_weight <= approx_r.total_weight \
                * (1.0 + approx_r.gap) + 1e-9, (spec, approx_r.gap)
        # The bounded path can never sweep more; when any query certified it
        # swept strictly fewer (at tiny presets the cells are too large
        # relative to the query for a 5% certificate, so every bounded query
        # falls through to the exact refine and the counts tie).
        assert bounded_swept <= exact_swept, (bounded_swept, exact_swept)
        if certified:
            assert bounded_swept < exact_swept, (bounded_swept, exact_swept)

        speedup = exact_seconds / bounded_seconds if bounded_seconds > 0 \
            else float("inf")
        per_dataset[name] = {
            "exact_seconds": exact_seconds,
            "bounded_seconds": bounded_seconds,
            "speedup": speedup,
            "exact_swept_points": exact_swept,
            "bounded_swept_points": bounded_swept,
            "certified": certified,
            "gaps": [result.gap for result in bounded_results],
        }

    headline = per_dataset["uniform"]
    lines = [f"[service-pyramid] bounded-error (gap<={ERROR_BOUND}) vs exact "
             f"refined on one engine (|O|={cardinality}, "
             f"{len(exact_specs)} large cold queries):"]
    for name, entry in per_dataset.items():
        lines.append(
            f"  {name:8s}: exact {entry['exact_seconds']:8.3f} s | "
            f"bounded {entry['bounded_seconds']:8.3f} s "
            f"({entry['speedup']:5.2f}x), certified "
            f"{entry['certified']}/{len(bounded_specs)}, swept "
            f"{entry['bounded_swept_points']} vs "
            f"{entry['exact_swept_points']} points")
    lines.append("  every bounded answer within its certified gap")
    report("\n".join(lines))
    write_bench_json(
        "pyramid", artefact_dir,
        workload={"cardinality": cardinality,
                  "fast_queries": len(exact_specs),
                  "datasets": sorted(datasets)},
        config={"error_bound": ERROR_BOUND},
        seconds=headline["bounded_seconds"],
        baseline_seconds=headline["exact_seconds"],
        speedup=headline["speedup"],
        extra={"per_dataset": per_dataset})
    # Acceptance at (near-)paper scale: the bounded path must certify every
    # query well before the exact sweep finishes.  Tiny presets (where a
    # handful of large cells make timings noise-bound) record the numbers
    # but only assert the correctness properties above.
    if cardinality >= 100_000:
        assert headline["certified"] == len(bounded_specs), headline
        assert headline["bounded_swept_points"] \
            < headline["exact_swept_points"], headline
        assert headline["speedup"] >= 2.0, headline
