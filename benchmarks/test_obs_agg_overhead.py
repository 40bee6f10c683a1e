"""Fleet-telemetry overhead guard for :mod:`repro.obs.health`.

PR 8 threads metric aggregation through the query path (counter hooks on the
index build and sweep, SLO recording per query) and hangs a resource sampler
plus health monitor off every engine.  The bargain mirrors the tracing one
(`test_obs_overhead.py`): the telemetry must be *near-free* on the serving
hot path.  This benchmark times the engine's sweep-dominated worst case --
the refined cold query over a uniform 50k dataset -- in two variants:

* **baseline** -- the engine exactly as shipped: telemetry machinery
  present, resource sampler idle (it only runs at scrape time), no SLOs;
* **fully enabled** -- the same engine with a background resource sampler
  ticking every 50 ms and an :class:`~repro.obs.SLOTracker` with latency and
  availability objectives recording every query.

The variants are interleaved round-robin (so thermal drift and allocator
state hit both equally) and compared on their best-of-rounds.  Acceptance:
<= 3% added latency at (near-)paper scale; tiny presets answer the query in
milliseconds where timer jitter alone exceeds 3%, so there the guard only
sanity-checks the overhead is not grossly out of line.
"""

from __future__ import annotations

import time

import pytest

np = pytest.importorskip("numpy")  # engine grid index and dataset generation

from _bench_utils import write_bench_json
from repro.geometry import WeightedPoint
from repro.obs import SLObjective
from repro.service import MaxRSEngine, QuerySpec

#: Paper-scale cardinality of the overhead workload.
PAPER_CARDINALITY = 50_000

#: Interleaved measurement rounds per variant (best-of wins).
ROUNDS = 5

#: Background resource-sampling cadence of the fully-enabled variant.
SAMPLE_INTERVAL_S = 0.05

_DOMAIN = 1_000_000.0


def _uniform_dataset(cardinality: int, seed: int = 23) -> list[WeightedPoint]:
    """Uniform points: the pruning worst case, i.e. the sweep-heaviest query."""
    rng = np.random.default_rng(seed)
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(rng.uniform(0.0, _DOMAIN, cardinality),
                               rng.uniform(0.0, _DOMAIN, cardinality),
                               rng.choice([1.0, 2.0, 3.0], cardinality))]


def _timed_cold_query(engine, dataset, spec) -> float:
    engine.clear_cache()
    start = time.perf_counter()
    engine.query(dataset, spec)
    return time.perf_counter() - start


def test_fleet_telemetry_overhead(scale, report, artefact_dir):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _uniform_dataset(cardinality)
    spec = QuerySpec.maxrs(0.02 * _DOMAIN, 0.02 * _DOMAIN)

    baseline_engine = MaxRSEngine()  # sampler idle, no SLOs: the default
    enabled_engine = MaxRSEngine(
        sample_interval_s=SAMPLE_INTERVAL_S,
        slo=[SLObjective("availability", target=0.999),
             SLObjective("latency", target=0.99, latency_threshold_s=30.0)])
    try:
        baseline_ds = baseline_engine.register_dataset(objects)
        enabled_ds = enabled_engine.register_dataset(objects)

        # Untimed warm-up round for each variant.
        _timed_cold_query(baseline_engine, baseline_ds, spec)
        _timed_cold_query(enabled_engine, enabled_ds, spec)
        # The timed rounds must run with the background sampler already
        # sampling.  At the fast preset every round together can finish
        # inside one sampling interval, so wait for its first sample.
        deadline = time.perf_counter() + 5.0
        while enabled_engine.sampler.samples == 0 \
                and time.perf_counter() < deadline:
            time.sleep(SAMPLE_INTERVAL_S / 5)

        baseline, enabled = [], []
        for _ in range(ROUNDS):
            baseline.append(
                _timed_cold_query(baseline_engine, baseline_ds, spec))
            enabled.append(
                _timed_cold_query(enabled_engine, enabled_ds, spec))

        best_baseline = min(baseline)
        best_enabled = min(enabled)
        overhead = best_enabled / best_baseline - 1.0

        # The enabled variant really was sampling and tracking in the
        # background while the queries ran (else the measurement is vacuous).
        assert enabled_engine.sampler.samples > 0
        slo = enabled_engine.stats()["health"]["slo"]
        assert slo["availability"]["events"] >= ROUNDS
        assert not enabled_engine.slo.alerting()["availability"]

        # And the telemetry changed nothing semantically.
        baseline_engine.clear_cache()
        enabled_engine.clear_cache()
        want = baseline_engine.query(baseline_ds, spec)
        got = enabled_engine.query(enabled_ds, spec)
        assert got.total_weight == want.total_weight
        assert got.region == want.region
    finally:
        baseline_engine.close()
        enabled_engine.close()

    report(
        f"[obs-agg-overhead] fleet telemetry enabled vs baseline, refined "
        f"cold query (|O|={cardinality}, {ROUNDS} interleaved rounds, "
        f"best-of):\n"
        f"  baseline (sampler idle, no SLOs): {best_baseline * 1e3:9.3f} ms\n"
        f"  enabled ({SAMPLE_INTERVAL_S * 1e3:.0f} ms sampler + SLOs)  : "
        f"{best_enabled * 1e3:9.3f} ms\n"
        f"  overhead: {overhead:+.2%}  (bound: <= 3% at paper scale)"
    )
    write_bench_json(
        "obs_agg_overhead", artefact_dir,
        workload={"cardinality": cardinality, "rounds": ROUNDS,
                  "width": spec.width, "height": spec.height},
        config={"sample_interval_s": SAMPLE_INTERVAL_S,
                "slo_objectives": 2},
        seconds=best_enabled, baseline_seconds=best_baseline,
        speedup=best_baseline / best_enabled if best_enabled else None,
        extra={"overhead_fraction": overhead,
               "baseline_seconds_rounds": baseline,
               "enabled_seconds_rounds": enabled})

    if cardinality >= 20_000:
        assert overhead <= 0.03, (best_enabled, best_baseline)
    else:
        # Millisecond-scale queries: jitter dwarfs the telemetry cost; just
        # catch something pathological (a per-query /proc walk or a lock on
        # the sweep inner loop would cost far more than 50%).
        assert overhead <= 0.50, (best_enabled, best_baseline)
