"""Serving throughput of the resident query engine (:mod:`repro.service`).

Two workloads establish the serving-performance trajectory that future
scaling PRs (sharded grids, async engine, persistence) are measured against:

* **Repeated-query speedup** -- the acceptance workload of the serving
  subsystem: 100 queries drawn from 20 distinct parameter sets over one
  dataset, answered end-to-end by the engine versus 100 fresh one-shot
  ``MaxRSSolver.solve`` calls.  The engine must win big *and* return
  bit-identical answers (weight and max-region) on every query.
* **Mixed 1000-query throughput** -- queries/second, cold cache vs. warm
  cache, over a mixed MaxRS / MaxkRS workload.
* **Sweep-backend comparison** -- the refined cold query (the engine's
  worst case: a near-uniform dataset barely prunes, so the exact sweep runs
  over the whole point set) timed on the platform's backend (numpy) and on
  the pure-Python reference, forced with the ``pure_backend`` fixture, with
  bit-identical answers required across backends.  This is the trajectory
  the backend layer (:mod:`repro.core.backends`) is measured against.

The dataset is the serving-shaped synthetic workload: a uniform background
plus dense hot spots (real request traffic concentrates on hot spots; it is
also where grid pruning earns its keep).  The fresh-solver baseline is
measured once per distinct parameter set and extrapolated over the workload
multiplicities -- the solvers are deterministic, so this is exact up to
timer noise, and it keeps the benchmark runnable at paper scale.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from _bench_utils import write_bench_json
from repro.api import MaxRSSolver
from repro.core.backends import available_backends
from repro.em import EMConfig
from repro.em.codecs import EVENT_CODEC
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

#: Paper-scale cardinality of the serving benchmark dataset.
PAPER_CARDINALITY = 50_000

#: The serving workloads: (total queries, distinct parameter sets).
ACCEPTANCE_QUERIES, ACCEPTANCE_DISTINCT = 100, 20
MIXED_QUERIES = 1_000

_DOMAIN = 1_000_000.0


def _hotspot_dataset(cardinality: int, seed: int = 7) -> list[WeightedPoint]:
    """Uniform background (90%) plus five dense hot spots (10%)."""
    rng = np.random.default_rng(seed)
    background = int(cardinality * 0.9)
    hot = cardinality - background
    xs = list(rng.uniform(0.0, _DOMAIN, background))
    ys = list(rng.uniform(0.0, _DOMAIN, background))
    centres = rng.uniform(0.2 * _DOMAIN, 0.8 * _DOMAIN, size=(5, 2))
    sigma = 0.005 * _DOMAIN
    for index in range(hot):
        cx, cy = centres[index % 5]
        xs.append(float(np.clip(rng.normal(cx, sigma), 0.0, _DOMAIN)))
        ys.append(float(np.clip(rng.normal(cy, sigma), 0.0, _DOMAIN)))
    weights = rng.choice([1.0, 2.0, 3.0], size=cardinality)
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(xs, ys, weights)]


def _distinct_sizes(count: int, seed: int = 3) -> list[tuple[float, float]]:
    """``count`` distinct rectangle sizes between 0.2% and 6% of the domain."""
    rng = np.random.default_rng(seed)
    sizes = []
    for _ in range(count):
        width = float(rng.uniform(0.002, 0.06) * _DOMAIN)
        height = float(rng.uniform(0.002, 0.06) * _DOMAIN)
        sizes.append((round(width, 1), round(height, 1)))
    return sizes


def _workload(sizes, total, seed: int = 11) -> list[tuple[float, float]]:
    """A query stream: every distinct size appears, popular ones repeat."""
    rng = np.random.default_rng(seed)
    stream = list(sizes)
    stream += [sizes[int(i)] for i in rng.integers(0, len(sizes),
                                                   total - len(sizes))]
    rng.shuffle(stream)
    return stream


def _in_memory_config(cardinality: int) -> EMConfig:
    """A buffer large enough that the one-shot solver runs in memory.

    This is the *fastest honest* fresh-solve baseline: with the default 1 MB
    buffer the one-shot solver would fall back to the external-memory
    algorithm for these cardinalities and lose by a far wider margin.
    """
    needed = 2 * cardinality * EVENT_CODEC.record_size
    return EMConfig(block_size=4096, buffer_size=max(2 * 4096, 2 * needed))


def test_repeated_query_speedup(scale, report, artefact_dir):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _hotspot_dataset(cardinality)
    sizes = _distinct_sizes(ACCEPTANCE_DISTINCT)
    workload = _workload(sizes, ACCEPTANCE_QUERIES)
    config = _in_memory_config(cardinality)

    # Baseline: fresh one-shot solves, measured once per distinct size and
    # extrapolated over the workload (the solver is deterministic).
    fresh_results = {}
    fresh_seconds = {}
    for width, height in sizes:
        start = time.perf_counter()
        fresh_results[(width, height)] = MaxRSSolver(
            width=width, height=height, config=config).solve(objects)
        fresh_seconds[(width, height)] = time.perf_counter() - start
    baseline_total = sum(fresh_seconds[size] for size in workload)

    # Engine: register once, answer the whole stream (cold cache).
    engine = MaxRSEngine()
    start = time.perf_counter()
    dataset = engine.register_dataset(objects)
    engine_results = [engine.query(dataset, QuerySpec.maxrs(w, h))
                      for w, h in workload]
    engine_total = time.perf_counter() - start

    # Exactness: bit-identical weight and max-region on every tested query.
    for size, result in zip(workload, engine_results):
        fresh = fresh_results[size]
        assert result.total_weight == fresh.total_weight, size
        assert result.region == fresh.region, size

    speedup = baseline_total / engine_total
    stats = engine.stats()
    report(
        f"[service-throughput] repeated-query workload "
        f"(|O|={cardinality}, {ACCEPTANCE_QUERIES} queries, "
        f"{ACCEPTANCE_DISTINCT} distinct):\n"
        f"  fresh MaxRSSolver.solve x{ACCEPTANCE_QUERIES} "
        f"(in-memory path, extrapolated): {baseline_total:8.2f} s\n"
        f"  MaxRSEngine end-to-end:                          "
        f"{engine_total:8.2f} s\n"
        f"  speedup: {speedup:6.1f}x   "
        f"cache hit rate: {stats['cache']['hit_rate']:.0%}\n"
        f"  answers: bit-identical on all {ACCEPTANCE_QUERIES} queries"
    )
    write_bench_json(
        "repeated_query", artefact_dir,
        workload={"cardinality": cardinality,
                  "queries": ACCEPTANCE_QUERIES,
                  "distinct_sizes": ACCEPTANCE_DISTINCT},
        config={"engine": "MaxRSEngine", "cache": "default"},
        seconds=engine_total, baseline_seconds=baseline_total,
        speedup=speedup,
        latency=stats["latency"],
        extra={"cache_hit_rate": stats["cache"]["hit_rate"]})
    # Acceptance: >= 10x at (near-)paper scale; pruning matters less on tiny
    # datasets, so only sanity-check the win there.
    if cardinality >= 20_000:
        assert speedup >= 10.0, speedup
    else:
        assert speedup >= 2.0, speedup


def _uniform_dataset(cardinality: int, seed: int = 23) -> list[WeightedPoint]:
    """A uniform dataset: the engine's pruning worst case.

    Without hot spots the grid window bound is loose, the refine stage runs
    unpruned, and a refined cold query is dominated by one full plane sweep
    -- exactly the component the backend comparison wants to isolate.
    """
    rng = np.random.default_rng(seed)
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(rng.uniform(0.0, _DOMAIN, cardinality),
                               rng.uniform(0.0, _DOMAIN, cardinality),
                               rng.choice([1.0, 2.0, 3.0], cardinality))]


def test_backend_refined_cold_query(scale, report, artefact_dir,
                                    pure_backend):
    """Sweep-backend A/B on the refined cold query; answers must agree."""
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _uniform_dataset(cardinality)
    spec = QuerySpec.maxrs(0.02 * _DOMAIN, 0.02 * _DOMAIN)

    seconds = {}
    answers = {}
    backends = available_backends()
    for name in backends:
        forced = pure_backend if name == "pure" else contextlib.nullcontext
        with forced(), MaxRSEngine() as engine:
            handle = engine.register_dataset(objects)
            assert engine.stats()["sweep_backend"] == name
            start = time.perf_counter()
            answers[name] = engine.query(handle, spec)
            seconds[name] = time.perf_counter() - start

    reference = answers[backends[0]]
    for name in backends[1:]:
        assert answers[name].total_weight == reference.total_weight, name
        assert answers[name].region == reference.region, name

    lines = [f"[service-throughput] sweep-backend comparison, refined cold "
             f"query (|O|={cardinality}, {spec.width:.0f} x {spec.height:.0f}):"]
    for name in backends:
        lines.append(f"  {name:<6}: {seconds[name]:8.3f} s")
    if "numpy" in seconds:
        speedup = seconds["pure"] / seconds["numpy"]
        lines.append(f"  numpy speedup over pure: {speedup:.1f}x")
    lines.append(f"  answers bit-identical across backends: yes")
    report("\n".join(lines))
    write_bench_json(
        "backend_refined_cold", artefact_dir,
        workload={"cardinality": cardinality, "dataset": "uniform",
                  "width": spec.width, "height": spec.height},
        config={"backends": list(backends)},
        seconds=seconds.get("numpy", seconds[backends[0]]),
        baseline_seconds=seconds["pure"],
        speedup=(seconds["pure"] / seconds["numpy"]
                 if "numpy" in seconds else None),
        extra={"seconds_per_backend": seconds})

    # Acceptance: >= 5x at (near-)paper scale.  Tiny presets sweep so few
    # events that fixed vectorisation overhead dominates; there only the
    # bit-identity above is asserted.
    if "numpy" in seconds and cardinality >= 20_000:
        assert seconds["pure"] / seconds["numpy"] >= 5.0, seconds


def test_mixed_workload_throughput(scale, report):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _hotspot_dataset(cardinality, seed=13)
    sizes = _distinct_sizes(18, seed=5)
    specs = [QuerySpec.maxrs(w, h) for w, h in _workload(sizes, MIXED_QUERIES - 40,
                                                         seed=17)]
    # Mix in MaxkRS requests (two distinct parameter sets, 40 queries).
    topk = [QuerySpec.maxkrs(8_000.0, 8_000.0, 3),
            QuerySpec.maxkrs(20_000.0, 5_000.0, 2)]
    specs += [topk[i % 2] for i in range(40)]

    engine = MaxRSEngine()
    dataset = engine.register_dataset(objects)

    start = time.perf_counter()
    cold = engine.query_batch(dataset, specs)
    cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = engine.query_batch(dataset, specs)
    warm_seconds = time.perf_counter() - start

    assert len(cold) == len(warm) == MIXED_QUERIES
    for before, after in zip(cold, warm):
        assert after == before      # warm pass is pure cache
        first = after[0] if isinstance(after, tuple) else after
        assert first.cost is None or first.cost["cache"] == "hit"

    cold_qps = MIXED_QUERIES / cold_seconds
    warm_qps = MIXED_QUERIES / warm_seconds
    stats = engine.stats()
    report(
        f"[service-throughput] mixed workload "
        f"(|O|={cardinality}, {MIXED_QUERIES} queries, "
        f"{len(sizes)} rect sizes + {len(topk)} top-k):\n"
        f"  cold cache: {cold_seconds:8.3f} s  ({cold_qps:10.1f} queries/s)\n"
        f"  warm cache: {warm_seconds:8.3f} s  ({warm_qps:10.1f} queries/s)\n"
        f"  batch-deduplicated: {stats['counters'].get('batch_deduplicated', 0)}"
    )
    assert warm_seconds < cold_seconds
    assert warm_qps > 1_000.0
