#!/usr/bin/env python3
"""Serving many queries: register a dataset once, query it many times.

``MaxRSSolver`` is one-shot -- every ``solve`` call re-ingests the point set.
A location-analytics service answering "where should a ``w x h`` region go?"
for many users wants the opposite: ingest once, then answer a stream of
queries with varying sizes cheaply.  That is what the resident engine in
:mod:`repro.service` does:

* the dataset is snapshotted, fingerprinted and grid-indexed at registration;
* repeated parameters are served from an LRU result cache (microseconds);
* new parameters are answered by pruning the exact plane sweep to the grid
  cells that can still beat a fast approximate answer -- without changing
  the result: refined answers are identical to a full in-memory solve;
* large queries can opt into a certified error bound (e.g.
  ``error_bound=0.2``): the engine serves the best grid window's exact
  solve when the grid's best window bound certifies the gap, skipping the
  exact sweep entirely.

Run with::

    python examples/query_service.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import MaxRSEngine, QuerySpec
from repro.api import MaxRSSolver
from repro.geometry import WeightedPoint


def make_city(seed: int = 7, background: int = 9_000,
              hotspots: int = 6, per_spot: int = 500) -> list[WeightedPoint]:
    """A synthetic city: sparse background plus a few dense hot spots."""
    rng = np.random.default_rng(seed)
    domain = 100_000.0
    xs = list(rng.uniform(0.0, domain, background))
    ys = list(rng.uniform(0.0, domain, background))
    centres = rng.uniform(0.2 * domain, 0.8 * domain, size=(hotspots, 2))
    for index in range(hotspots * per_spot):
        cx, cy = centres[index % hotspots]
        xs.append(float(np.clip(rng.normal(cx, 1_500.0), 0.0, domain)))
        ys.append(float(np.clip(rng.normal(cy, 1_500.0), 0.0, domain)))
    weights = rng.choice([1.0, 2.0, 3.0], size=len(xs))
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(xs, ys, weights)]


def main() -> None:
    objects = make_city()
    # A day of traffic, compressed: 30 queries drawn from 6 popular sizes.
    sizes = [(2_000.0, 2_000.0), (5_000.0, 5_000.0), (5_000.0, 2_500.0),
             (10_000.0, 10_000.0), (8_000.0, 4_000.0), (3_000.0, 6_000.0)]
    workload = [sizes[i % len(sizes)] for i in range(30)]

    print("Resident query service demo")
    print("---------------------------")
    print(f"dataset               : {len(objects)} weighted points")
    print(f"workload              : {len(workload)} queries, {len(sizes)} distinct sizes")

    engine = MaxRSEngine()
    print(f"sweep backend         : {engine.stats()['sweep_backend']}")
    start = time.perf_counter()
    dataset = engine.register_dataset(objects, name="city")
    register_seconds = time.perf_counter() - start
    print(f"register + index      : {register_seconds * 1e3:.1f} ms")
    grid_stats = engine.stats()["grids"]["city"]
    print(f"grid index            : {grid_stats['rows']} x "
          f"{grid_stats['cols']} cells, "
          f"{grid_stats['occupied_cells']} occupied")

    start = time.perf_counter()
    results = engine.query_batch(dataset, [QuerySpec.maxrs(w, h)
                                           for w, h in workload])
    engine_seconds = time.perf_counter() - start
    print(f"engine, whole workload: {engine_seconds:.3f} s "
          "(cold: every distinct size solved once)")

    # The next day, the same popular sizes come back: pure cache hits.
    start = time.perf_counter()
    for w, h in workload:
        engine.query(dataset, QuerySpec.maxrs(w, h))
    warm_seconds = time.perf_counter() - start
    print(f"engine, warm repeat   : {warm_seconds * 1e3:.2f} ms "
          f"({warm_seconds / len(workload) * 1e6:.0f} us per query)")

    # The one-shot path for comparison (each call re-ingests the dataset).
    start = time.perf_counter()
    fresh = [MaxRSSolver(width=w, height=h).solve(objects)
             for w, h in workload[:len(sizes)]]
    per_call = (time.perf_counter() - start) / len(sizes)
    print(f"one-shot solver       : {per_call:.3f} s per call "
          f"(~{per_call * len(workload):.1f} s for the workload)")

    # Same answers, bit for bit.
    for (w, h), engine_result, fresh_result in zip(workload, results, fresh):
        assert engine_result.total_weight == fresh_result.total_weight
        assert engine_result.region == fresh_result.region
    best = max(results, key=lambda r: r.total_weight)
    print(f"best placement        : centre ({best.location.x:.0f}, "
          f"{best.location.y:.0f}) covering weight {best.total_weight:.0f}")

    stats = engine.stats()
    deduplicated = stats["counters"].get("batch_deduplicated", 0)
    print(f"cache                 : {stats['cache']['hits']} hits / "
          f"{stats['cache']['misses']} misses "
          f"(hit rate {stats['cache']['hit_rate']:.0%}), "
          f"{deduplicated} batch-deduplicated")
    refine = stats["stages"].get("refine")
    if refine:
        print(f"refine stage          : {refine['count']} runs, "
              f"mean {refine['mean_seconds'] * 1e3:.1f} ms")
    print(f"sweeps                : {stats['counters'].get('sweeps', 0)} "
          f"on {stats['sweep_backend']}")

    # A big planning query ("where could a 60 km square go?") answered two
    # ways: exactly, and with a certified 20% error bound -- when the best
    # grid window bound already certifies the gap for the best window's
    # exact solve, that answer is served and the exact sweep is skipped.
    # (The certifiable gap shrinks with cell size: at this demo's ~12k
    # points the cells are ~900 m, good for ~9% on a 60 km query; the
    # 200k-point benchmark certifies 5%.)
    big = (60_000.0, 60_000.0)
    start = time.perf_counter()
    exact = engine.query(dataset, QuerySpec.maxrs(*big))
    exact_seconds = time.perf_counter() - start
    start = time.perf_counter()
    approx = engine.query(dataset, QuerySpec.maxrs(*big, error_bound=0.2))
    approx_seconds = time.perf_counter() - start
    print()
    print("Bounded-error fast path (error_bound=0.2)")
    print(f"exact 60km placement  : weight {exact.total_weight:.0f} "
          f"in {exact_seconds * 1e3:.1f} ms")
    print(f"certified  placement  : weight {approx.total_weight:.0f} "
          f"(gap <= {approx.gap:.2%}) in {approx_seconds * 1e3:.1f} ms")
    cost = approx.cost
    print(f"certify check         : certified={cost['descent']['certified']}, "
          f"swept {cost['swept_points']} of {cost['dataset_points']} points")
    assert exact.total_weight <= approx.total_weight * (1.0 + approx.gap)


if __name__ == "__main__":
    main()
