"""Warm-start vs cold re-ingest for the persistent engine (:mod:`repro.persist`).

The persistence acceptance workload: one 50k-point dataset is registered
with a persistent engine, served a small refined-query working set, and
checkpointed.  The benchmark then compares two ways of coming back from a
process restart:

* **cold re-ingest** -- a fresh memory-only engine re-registers the dataset
  (snapshot, fingerprint, grid build) and answers the working set with cold
  caches, re-running every pruned exact sweep;
* **warm start** -- ``MaxRSEngine(persist_dir=...)`` restores the snapshot
  catalog (point columns and hot results; each grid is rebuilt from the
  columns) and answers the same working set.

Both must return bit-identical refined answers; the warm start must win by
>= 5x at (near-)paper scale.  Snapshot traffic is charged through the EM
substrate, so the entry records the save and restore costs in **block
transfers** -- the paper's unit -- alongside the wall-clock numbers.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import write_bench_json
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

#: Paper-scale cardinality of the persistence benchmark dataset.
PAPER_CARDINALITY = 50_000

_DOMAIN = 1_000_000.0

#: The served working set: a handful of distinct refined rectangle queries.
_SIZES = [(20_000.0, 20_000.0), (10_000.0, 5_000.0), (8_000.0, 8_000.0),
          (30_000.0, 15_000.0), (5_000.0, 5_000.0), (12_000.0, 24_000.0)]


def _hotspot_dataset(cardinality: int, seed: int = 19) -> list[WeightedPoint]:
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


def test_coldstart_vs_warmstart(scale, report, artefact_dir, tmp_path):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _hotspot_dataset(cardinality)
    specs = [QuerySpec.maxrs(w, h) for w, h in _SIZES]
    persist_dir = tmp_path / "snapshots"

    # Day 1: a persistent engine ingests, serves and checkpoints.
    day1 = MaxRSEngine(persist_dir=persist_dir)
    day1.register_dataset(objects, name="bench")
    day1_results = [day1.query("bench", spec) for spec in specs]
    day1.checkpoint()
    save_io = day1.stats()["persist"]["io"]

    # Restart, path A: cold re-ingest (no persistence to fall back on).
    start = time.perf_counter()
    cold = MaxRSEngine()
    handle = cold.register_dataset(objects, name="bench")
    cold_results = [cold.query(handle, spec) for spec in specs]
    cold_seconds = time.perf_counter() - start

    # Restart, path B: warm start from the snapshot directory.
    start = time.perf_counter()
    warm = MaxRSEngine(persist_dir=persist_dir)
    warm_results = [warm.query("bench", spec) for spec in specs]
    warm_seconds = time.perf_counter() - start
    warm_stats = warm.stats()["persist"]

    # Exactness: warm answers are bit-identical to both the cold recompute
    # and what the engine served before the restart.
    for spec, cold_r, warm_r, day1_r in zip(specs, cold_results,
                                            warm_results, day1_results):
        assert warm_r.total_weight == cold_r.total_weight, spec
        assert warm_r.region == cold_r.region, spec
        assert warm_r.total_weight == day1_r.total_weight, spec
        assert warm_r.region == day1_r.region, spec
    assert warm_stats["datasets_restored"] == 1
    assert warm_stats["restore_errors"] == {}
    assert warm_stats["io"]["block_reads"] > 0
    assert save_io["block_writes"] > 0

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    report(
        f"[service-coldstart] warm-start vs cold re-ingest "
        f"(|O|={cardinality}, {len(specs)} refined queries):\n"
        f"  cold re-ingest + cold solve : {cold_seconds:8.3f} s\n"
        f"  warm start from snapshots   : {warm_seconds:8.3f} s "
        f"({warm_stats['results_restored']} hot result(s) restored)\n"
        f"  speedup: {speedup:6.1f}x\n"
        f"  snapshot I/O: save {save_io['block_writes']} block writes, "
        f"restore {warm_stats['io']['block_reads']} block reads "
        f"(4 KB blocks, counted by em.counters)\n"
        f"  answers bit-identical to cold recompute and pre-restart serving"
    )
    write_bench_json(
        "coldstart", artefact_dir,
        workload={"cardinality": cardinality, "queries": len(specs)},
        config={"persist": True, "block_size": 4096},
        seconds=warm_seconds, baseline_seconds=cold_seconds,
        speedup=speedup,
        latency=warm.stats()["latency"],
        extra={"save_block_writes": save_io["block_writes"],
               "restore_block_reads": warm_stats["io"]["block_reads"],
               "results_restored": warm_stats["results_restored"]})
    # Acceptance: >= 5x at (near-)paper scale.  Tiny presets register so
    # little data that fixed restore overhead dominates; there only the
    # bit-identity and accounting assertions above are meaningful.
    if cardinality >= 20_000:
        assert speedup >= 5.0, (cold_seconds, warm_seconds)
