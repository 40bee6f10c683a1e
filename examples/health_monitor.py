#!/usr/bin/env python3
"""Live service status: health checks, resource gauges, SLO burn rates.

The engine's telemetry folds into one status screen: a resource sampler
polls the serving process's CPU/RSS and the result cache into gauges, a
health monitor folds named checks into ``healthz``/``readyz`` verdicts, and
an SLO tracker burns an error budget per query.  This demo serves a warm
working set (mostly cache hits) while rendering a status frame after every
batch -- then fires a burst of cold queries, each a full sweep, at a tight
latency objective.  The objective's burn-rate alert fires and flips the
``slo`` check to *degraded*: ``healthz`` still reports ``ok=True`` because
every answer stays correct, and the demo checks that too against the
in-memory reference sweep.

On a TTY the screen redraws in place (ANSI home + clear); when piped, the
frames print sequentially.  Runs bounded and exits cleanly, so it is safe
under ``make examples``.

Run with::

    python examples/health_monitor.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro import MaxRSEngine, QuerySpec
from repro.core.plane_sweep import solve_in_memory
from repro.obs import SLObjective

#: Warm-working-set frames rendered before the cold burst.
STEADY_FRAMES = 3
#: Passes over the query mix per frame (only the first pass is cold).
REPEATS = 6
#: Distinct cold queries in the burst.
BURST = 40

#: The tight latency objective: a cache hit answers in microseconds, a cold
#: sweep over the city takes tens of milliseconds.
FAST_BUDGET_S = 0.005
FAST_SLO = "latency-5ms"

_DOMAIN = 100_000.0
_STATUS_GLYPH = {"ok": "+", "degraded": "~", "failing": "!"}


def make_city(seed: int = 29, count: int = 8_000) -> list:
    from repro.geometry import WeightedPoint

    rng = np.random.default_rng(seed)
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(rng.uniform(0.0, _DOMAIN, count),
                               rng.uniform(0.0, _DOMAIN, count),
                               rng.choice([1.0, 2.0, 3.0], count))]


def query_mix() -> list:
    return [QuerySpec.maxrs(3_000.0, 3_000.0),
            QuerySpec.maxrs(1_500.0, 6_000.0),
            QuerySpec.maxkrs(2_500.0, 2_500.0, 2),
            # A bounded-error big query: the best grid window bound
            # certifies a 25% gap for the probe instead of sweeping exactly.
            QuerySpec.maxrs(60_000.0, 60_000.0, error_bound=0.25),
            QuerySpec.maxrs(3_000.0, 3_000.0)]  # repeat: cache hit


def burst_specs() -> list:
    """Distinct exact MaxRS windows, so every one misses the cache."""
    return [QuerySpec.maxrs(2_000.0 + 150.0 * i, 3_000.0 - 40.0 * i)
            for i in range(BURST)]


def check_answer(objects: list, spec: QuerySpec, answer) -> None:
    """Exact MaxRS answers must equal the in-memory reference sweep."""
    if spec.kind != "maxrs" or spec.error_bound is not None:
        return
    expected = solve_in_memory(objects, spec.width, spec.height)
    assert answer.total_weight == expected.total_weight, spec
    assert answer.region == expected.region, spec


def gauge(stats: dict, name: str, default: float = 0.0) -> float:
    for sample in stats["gauges"].get(name, []):
        if not sample["labels"]:
            return sample["value"]
    return default


def render_frame(engine: MaxRSEngine, frame: int, note: str) -> None:
    stats = engine.stats()
    health = stats["health"]["healthz"]
    ready = stats["health"]["readyz"]
    checks = {**ready["checks"], **health["checks"]}
    lines = [
        f"Service status -- frame {frame}  {note}",
        "=" * 64,
        f"healthz: {health['status']:<9} (ok={health['ok']})   "
        f"readyz: {'ready' if ready['ready'] else 'NOT READY'}",
        "",
        "checks:",
    ]
    for name, check in sorted(checks.items()):
        glyph = _STATUS_GLYPH.get(check["status"], "?")
        detail = check["detail"][:44]
        lines.append(f"  [{glyph}] {name:<10} {check['status']:<9} {detail}")
    lines += [
        "",
        f"process: cpu {gauge(stats, 'process_cpu_seconds'):.2f} s, "
        f"rss {gauge(stats, 'process_rss_bytes') / 2**20:.1f} MiB   "
        f"cache: {gauge(stats, 'cache_entries'):.0f}/"
        f"{gauge(stats, 'cache_capacity'):.0f} entries   "
        f"datasets: {stats['datasets']}",
        "",
        "SLOs:",
    ]
    for name, slo in sorted(stats["health"]["slo"].items()):
        state = "FIRING" if slo["alerting"] else "ok"
        lines.append(
            f"  {name:<14} target={slo['target']:<6} "
            f"events={slo['events']:<4} bad={slo['bad_events']:<3} "
            f"burn_rate={slo['burn_rate']:.2f}  [{state}]")
    counters = stats["counters"]
    grid = stats["grids"].get("city", {})
    lines += [
        "",
        f"grid: {grid.get('rows', '?')}x{grid.get('cols', '?')}   "
        f"bounded: certified={counters.get('descent_certified', 0)} "
        f"exact={counters.get('descent_stop_exact', 0)}",
        "",
        f"counters: queries={counters.get('queries', 0)} "
        f"cache_hits={stats['cache']['hits']} "
        f"cache_misses={stats['cache']['misses']}",
    ]
    if sys.stdout.isatty():
        sys.stdout.write("\x1b[H\x1b[2J")
    print("\n".join(lines))
    print()


def main() -> None:
    objects = make_city()
    engine = MaxRSEngine(
        sample_interval_s=0.05,
        slo=[SLObjective("availability", target=0.999),
             # A 20% budget: a warm working set stays far inside it, a burst
             # of cold sweeps burns through it.
             SLObjective(FAST_SLO, target=0.8,
                         latency_threshold_s=FAST_BUDGET_S, min_events=30)])
    try:
        engine.register_dataset(objects, name="city")
        for frame in range(1, STEADY_FRAMES + 1):
            for repeat in range(REPEATS):
                for spec in query_mix():
                    answer = engine.query("city", spec)
                    if frame == 1 and repeat == 0:  # later passes: hits
                        check_answer(objects, spec, answer)
            render_frame(engine, frame, "(warm working set)")
        verdict = engine.healthz()
        assert verdict["status"] == "ok", verdict

        print(f">>> burst: {BURST} cold queries of distinct sizes, each a "
              f"full sweep against a {FAST_BUDGET_S * 1e3:.0f} ms budget...\n")
        for spec in burst_specs():
            check_answer(objects, spec, engine.query("city", spec))
        render_frame(engine, STEADY_FRAMES + 1, "(after the cold burst)")

        verdict = engine.healthz()
        assert verdict["checks"]["slo"]["status"] == "degraded", verdict
        assert verdict["status"] == "degraded" and verdict["ok"] is True
        assert engine.stats()["health"]["slo"][FAST_SLO]["alerting"]
        print(f"final healthz: {verdict['status']} (ok={verdict['ok']}) -- "
              f"the {FAST_SLO!r} burn-rate alert fired, and every exact "
              f"answer matched the in-memory sweep.")
    finally:
        engine.close()
    print(f"after close: readyz ready={engine.readyz()['ready']} "
          f"(the 'closed' check gates readiness).")


if __name__ == "__main__":
    main()
