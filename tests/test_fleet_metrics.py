"""Engine telemetry integration: counters, health checks, gauges, SLOs.

The contracts under test: semantic counter totals do not depend on the
shard executor, the health and gauge surface stands on every engine, the
persist directory gates readiness, and every query -- failures included --
feeds the SLO tracker whose burn-rate alert flips ``healthz`` to degraded.
"""

import os

import pytest

from repro.service.engine import MaxRSEngine, QuerySpec

#: A mixed workload: repeats (cache hits), several kinds, both refine modes.
QUERY_MIX = [
    QuerySpec.maxrs(7.0, 4.5),
    QuerySpec.maxrs(12.0, 12.0),
    QuerySpec.maxrs(7.0, 4.5),           # repeat: cache hit
    QuerySpec.maxrs(3.0, 9.0, refine=False),
    QuerySpec.maxkrs(8.0, 8.0, 2),
    QuerySpec.maxrs(20.0, 2.0),
]

#: Counters whose totals are execution-tier independent: they count query
#: semantics (what was asked and how pruning went), not where work ran.
SEMANTIC_COUNTERS = ("queries", "refine_pruned", "refine_unpruned")


def run_mix(engine, objects):
    engine.register_dataset(objects, name="d")
    return [engine.query("d", spec) for spec in QUERY_MIX]


@pytest.mark.parametrize("seed", [3, 17])
def test_counter_totals_identical_across_executors(make_objects, seed):
    """Property: the same query mix yields the same semantic counter totals
    and latency counts on the serial and threaded tiers -- the executor
    changes *where* shard work runs, never what the counters say."""
    objects = make_objects(1500, seed=seed)
    totals, answers = {}, {}
    for tier in ("serial", "threaded"):
        engine = MaxRSEngine(shards=4, shard_executor=tier)
        try:
            answers[tier] = run_mix(engine, objects)
            snapshot = engine.metrics.snapshot()
            totals[tier] = {
                name: snapshot["counters"].get(name, 0)
                for name in SEMANTIC_COUNTERS}
            totals[tier]["latency_maxrs"] = \
                snapshot["latency"].get("maxrs", {}).get("count", 0)
        finally:
            engine.close()
    assert totals["serial"] == totals["threaded"]
    assert answers["serial"] == answers["threaded"]


def test_health_surface_without_processes(make_objects):
    """The health/gauge surface stands on a one-shard serial engine: checks
    pass, gauges exist, readyz flips on close."""
    engine = MaxRSEngine(shards=1)
    run_mix(engine, make_objects(300, seed=9))
    stats = engine.stats()
    assert stats["health"]["healthz"]["ok"] is True
    assert stats["health"]["readyz"]["ready"] is True
    names = set(stats["gauges"])
    assert {"process_cpu_seconds", "process_rss_bytes", "cache_entries",
            "cache_capacity"} <= names
    engine.close()
    verdict = engine.readyz()
    assert verdict["ready"] is False
    assert verdict["checks"]["closed"]["status"] == "failing"
    assert engine.healthz()["ok"] is True  # alive, just not ready


def test_persist_dir_writability_gates_readiness(make_objects, tmp_path):
    persist_dir = tmp_path / "snaps"
    engine = MaxRSEngine(persist_dir=str(persist_dir))
    try:
        run_mix(engine, make_objects(300, seed=9))
        assert engine.readyz()["ready"] is True
        os.chmod(persist_dir, 0o500)  # read + traverse, no write
        try:
            if os.access(str(persist_dir), os.W_OK):
                pytest.skip("running as a user chmod cannot restrict")
            verdict = engine.readyz()
            assert verdict["ready"] is False
            assert verdict["checks"]["persist"]["status"] == "failing"
        finally:
            os.chmod(persist_dir, 0o700)
        assert engine.readyz()["ready"] is True
    finally:
        engine.close()


def test_engine_slo_records_queries_and_surfaces_in_stats(make_objects):
    from repro.obs import SLObjective

    engine = MaxRSEngine(slo=[
        SLObjective("latency", target=0.5, latency_threshold_s=1e-9,
                    min_events=2),
    ])
    try:
        run_mix(engine, make_objects(300, seed=9))
        slo = engine.stats()["health"]["slo"]["latency"]
        assert slo["events"] == len(QUERY_MIX)
        # Every real query blows a 1 ns latency budget: alert must fire...
        assert slo["alerting"] is True
        # ...and surface as a degraded (liveness-only) health check.
        verdict = engine.healthz()
        assert verdict["status"] == "degraded"
        assert verdict["checks"]["slo"]["status"] == "degraded"
        assert "slo" not in engine.readyz()["checks"]
    finally:
        engine.close()


def test_query_errors_count_against_the_budget(make_objects):
    from repro.errors import ServiceError
    from repro.obs import SLObjective, SLOTracker

    alerts = []
    tracker = SLOTracker([SLObjective("avail", target=0.5, min_events=1)],
                         sinks=[alerts.append])
    engine = MaxRSEngine(slo=tracker, maxcrs_exact_limit=1)
    try:
        engine.register_dataset(make_objects(300, seed=9), name="d")
        with pytest.raises(ServiceError):
            engine.query("d", QuerySpec.maxcrs(50.0))
        assert engine.metrics.counter("query_errors") == 1
        assert tracker.snapshot()["avail"]["bad_events"] == 1
        assert alerts and alerts[0]["state"] == "firing"
    finally:
        engine.close()
