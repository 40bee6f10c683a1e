"""Grid pyramid + bounded-error fast path vs the flat grid index.

The pyramid acceptance workload at (near-)paper scale, 200k points, on a
uniform and a hotspot-skewed dataset: build the hierarchical index and serve
large cold queries, once exactly through the flat single-level baseline
(``pyramid_levels=1``) and once through the pyramid's bounded-error descent
(``error_bound=0.05``).  Three properties are checked:

* **Exactness is untouched** -- without ``error_bound`` the pyramid engine's
  refined answers are bit-identical to the flat engine's (the pyramid is a
  pure pruning accelerator; exact queries take the base-level path verbatim);
* **The certificate holds** -- every degraded answer's ``result.gap`` bounds
  the true optimum: ``exact <= approx * (1 + gap)`` with ``gap <= 0.05``,
  while the bounded path sweeps strictly fewer points than the exact path;
* **The fast path is fast** -- on the 200k uniform dataset the bounded
  descent answers the large cold queries >= 2x faster than the flat exact
  refined sweep (asserted at (near-)paper scale; smaller presets record the
  measured numbers but only assert correctness).

The entry also records the pyramid depth, the per-level stop histogram of
the descent (which coarse level certified each answer) and the flat-vs-
pyramid registration overhead (the vectorised roll-up must stay <= 25% of
the flat build), so ``BENCH_pyramid.json`` numbers stay interpretable.
"""

from __future__ import annotations

import time

import pytest

np = pytest.importorskip("numpy")  # index construction is numpy-backed

from _bench_utils import write_bench_json
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec
from repro.service.grid_index import GridIndex

#: Paper-scale cardinality of the pyramid benchmark datasets.
PAPER_CARDINALITY = 200_000

#: The acceptance gap: descent stops at the first level certifying 5%.
ERROR_BOUND = 0.05

_DOMAIN = 1_000_000.0

#: Large cold queries: the regime where the exact path must sweep most of
#: the dataset but a coarse pyramid level already certifies a 5% gap (the
#: level bound's slop is ~10 cells/side relative, so sides >= ~0.55 of the
#: domain certify comfortably at 200k points).
_FAST_SIZES = [(600_000.0, 600_000.0), (550_000.0, 650_000.0),
               (650_000.0, 550_000.0), (620_000.0, 580_000.0)]

#: Small refined queries for the bit-identity check (exact on both engines).
_EXACT_SIZES = [(20_000.0, 20_000.0), (12_000.0, 24_000.0),
                (8_000.0, 8_000.0)]


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


def test_pyramid_vs_flat(scale, report, artefact_dir):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    datasets = {"uniform": _uniform_columns(cardinality),
                "hotspot": _hotspot_columns(cardinality)}
    fast_specs = [QuerySpec.maxrs(w, h) for w, h in _FAST_SIZES]
    bounded_specs = [QuerySpec.maxrs(w, h, error_bound=ERROR_BOUND)
                     for w, h in _FAST_SIZES]
    exact_specs = [QuerySpec.maxrs(w, h) for w, h in _EXACT_SIZES]

    # Registration overhead: the vectorised roll-up on top of the flat build
    # (min-of-5; the roll-up is a handful of reshape-sums over the base
    # aggregates, so it must stay a small fraction of the binning itself).
    reg_n = min(cardinality, 50_000)
    rx, ry, rw = (col[:reg_n] for col in datasets["uniform"])
    flat_build = min(_timed(lambda: GridIndex(rx, ry, rw, pyramid_levels=1))
                     for _ in range(5))
    pyramid_build = min(_timed(lambda: GridIndex(rx, ry, rw))
                        for _ in range(5))
    build_overhead = pyramid_build / flat_build if flat_build > 0 \
        else float("inf")

    per_dataset = {}
    for name, (xs, ys, ws) in datasets.items():
        objects = [WeightedPoint(float(x), float(y), float(w))
                   for x, y, w in zip(xs, ys, ws)]
        with MaxRSEngine(pyramid_levels=1) as flat, MaxRSEngine() as pyramid:
            flat_handle = flat.register_dataset(objects, name=name)
            pyr_handle = pyramid.register_dataset(objects, name=name)
            grid_stats = pyramid.stats()["grids"][name]
            assert grid_stats["pyramid_depth"] >= 2, grid_stats

            # Exactness: without error_bound the pyramid changes nothing.
            for spec in exact_specs:
                flat_r = flat.query(flat_handle, spec)
                pyr_r = pyramid.query(pyr_handle, spec)
                assert pyr_r.total_weight == flat_r.total_weight, spec
                assert pyr_r.region == flat_r.region, spec
                assert pyr_r.gap is None and flat_r.gap is None

            # Large cold queries: flat exact refined sweep ...
            swept_before = _swept(flat)
            start = time.perf_counter()
            exact_results = [flat.query(flat_handle, spec)
                             for spec in fast_specs]
            flat_seconds = time.perf_counter() - start
            exact_swept = _swept(flat) - swept_before

            # ... vs the pyramid's bounded-error descent.
            swept_before = _swept(pyramid)
            start = time.perf_counter()
            bounded_results = [pyramid.query(pyr_handle, spec)
                               for spec in bounded_specs]
            pyramid_seconds = time.perf_counter() - start
            bounded_swept = _swept(pyramid) - swept_before

            counters = pyramid.metrics.snapshot()["counters"]
            stops = {key[len("descent_stop_"):]: value
                     for key, value in sorted(counters.items())
                     if key.startswith("descent_stop_")}
            certified = counters.get("descent_certified", 0)

        # The certificate: exact optimum within (1 + gap) of every degraded
        # answer, the gap within the requested bound, and the bounded path
        # must prune strictly more points than the exact path swept.
        for spec, exact_r, approx_r in zip(fast_specs, exact_results,
                                           bounded_results):
            assert approx_r.gap is not None, spec
            assert approx_r.gap <= ERROR_BOUND + 1e-12, (spec, approx_r.gap)
            assert approx_r.total_weight <= exact_r.total_weight + 1e-9, spec
            assert exact_r.total_weight <= approx_r.total_weight \
                * (1.0 + approx_r.gap) + 1e-9, (spec, approx_r.gap)
        # The bounded path can never sweep more; when any query certified at
        # a coarse level it swept strictly fewer (at tiny presets the coarse
        # cells are too large relative to the query for a 5% certificate, so
        # every descent falls through to the exact sweep and the counts tie).
        assert bounded_swept <= exact_swept, (bounded_swept, exact_swept)
        if certified:
            assert bounded_swept < exact_swept, (bounded_swept, exact_swept)

        speedup = flat_seconds / pyramid_seconds if pyramid_seconds > 0 \
            else float("inf")
        per_dataset[name] = {
            "flat_seconds": flat_seconds,
            "pyramid_seconds": pyramid_seconds,
            "speedup": speedup,
            "exact_swept_points": exact_swept,
            "bounded_swept_points": bounded_swept,
            "pyramid_depth": grid_stats["pyramid_depth"],
            "levels": grid_stats["levels"],
            "descent_stops": stops,
            "certified": certified,
        }

    headline = per_dataset["uniform"]
    lines = [f"[service-pyramid] bounded-error descent (gap<={ERROR_BOUND}) "
             f"vs flat exact refined (|O|={cardinality}, "
             f"{len(fast_specs)} large cold queries):"]
    for name, entry in per_dataset.items():
        lines.append(
            f"  {name:8s}: flat {entry['flat_seconds']:8.3f} s | "
            f"pyramid {entry['pyramid_seconds']:8.3f} s "
            f"({entry['speedup']:5.2f}x), depth {entry['pyramid_depth']}, "
            f"swept {entry['bounded_swept_points']} vs "
            f"{entry['exact_swept_points']} points, "
            f"stops {entry['descent_stops']}")
    lines.append(
        f"  build overhead: pyramid {build_overhead:5.3f}x flat at "
        f"{reg_n} points (min-of-5)")
    lines.append("  exact answers bit-identical flat vs pyramid; every "
                 "degraded answer within its certified gap")
    report("\n".join(lines))
    write_bench_json(
        "pyramid", artefact_dir,
        workload={"cardinality": cardinality,
                  "fast_queries": len(fast_specs),
                  "exact_queries": len(exact_specs),
                  "datasets": sorted(datasets)},
        config={"error_bound": ERROR_BOUND,
                "pyramid_depth": headline["pyramid_depth"],
                "registration_points": reg_n},
        seconds=headline["pyramid_seconds"],
        baseline_seconds=headline["flat_seconds"],
        speedup=headline["speedup"],
        extra={"per_dataset": per_dataset,
               "build_overhead_x": build_overhead})
    # Acceptance at (near-)paper scale: the descent must certify well before
    # the exact sweep finishes, and the roll-up must stay cheap.  Tiny
    # presets (where a handful of coarse cells make timings noise-bound)
    # record the numbers but only assert the correctness properties above.
    if cardinality >= 100_000:
        assert headline["certified"] == len(fast_specs), headline
        assert headline["bounded_swept_points"] \
            < headline["exact_swept_points"], headline
        assert headline["speedup"] >= 2.0, headline
        assert build_overhead <= 1.25, build_overhead


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
