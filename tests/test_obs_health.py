"""Tests for :mod:`repro.obs.health`.

The health layer is deliberately engine-agnostic (callables in, verdicts
out), so these tests drive it with plain fakes: a hand-rolled clock for the
SLO windows, lambda checks for the monitor, counting sources for the
sampler.  Engine integration (a real engine's checks, gauges and SLOs)
lives in ``tests/test_fleet_metrics.py``.
"""

import json
import logging
import os

import pytest

from repro.obs.health import (HealthMonitor, ResourceSampler, SLObjective,
                              SLOTracker, json_lines_alert_sink,
                              log_alert_sink, read_proc_stats)
from repro.service.metrics import EngineMetrics


# ---------------------------------------------------------------------- #
# HealthMonitor
# ---------------------------------------------------------------------- #
class TestHealthMonitor:
    def test_empty_monitor_is_healthy_and_ready(self):
        monitor = HealthMonitor()
        assert monitor.healthz() == {"ok": True, "status": "ok", "checks": {}}
        assert monitor.readyz() == {"ready": True, "status": "ok",
                                    "checks": {}}

    def test_worst_status_wins(self):
        monitor = HealthMonitor()
        monitor.add_check("a", lambda: ("ok", "fine"))
        monitor.add_check("b", lambda: ("degraded", "limping"))
        verdict = monitor.healthz()
        assert verdict["status"] == "degraded"
        assert verdict["ok"] is True  # degraded still serves
        assert verdict["checks"]["b"]["detail"] == "limping"

    def test_failing_flips_ok_and_ready(self):
        monitor = HealthMonitor()
        monitor.add_check("a", lambda: ("failing", "down"))
        assert monitor.healthz()["ok"] is False
        assert monitor.readyz()["ready"] is False

    def test_raising_check_reports_failing_not_raises(self):
        monitor = HealthMonitor()

        def boom():
            raise RuntimeError("kaput")

        monitor.add_check("boom", boom)
        verdict = monitor.healthz()
        assert verdict["checks"]["boom"]["status"] == "failing"
        assert "kaput" in verdict["checks"]["boom"]["detail"]

    def test_unknown_status_is_failing(self):
        monitor = HealthMonitor()
        monitor.add_check("odd", lambda: ("sideways", ""))
        assert monitor.healthz()["checks"]["odd"]["status"] == "failing"

    def test_bare_string_and_dict_results_normalise(self):
        monitor = HealthMonitor()
        monitor.add_check("bare", lambda: "ok")
        monitor.add_check("dict", lambda: {"status": "degraded",
                                           "detail": "d"})
        checks = monitor.healthz()["checks"]
        assert checks["bare"] == {"status": "ok", "detail": ""}
        assert checks["dict"] == {"status": "degraded", "detail": "d"}

    def test_liveness_readiness_scoping(self):
        monitor = HealthMonitor()
        monitor.add_check("live-only", lambda: ("failing", ""),
                          readiness=False)
        monitor.add_check("ready-only", lambda: ("ok", ""), liveness=False)
        assert monitor.healthz()["ok"] is False
        ready = monitor.readyz()
        assert ready["ready"] is True
        assert list(ready["checks"]) == ["ready-only"]


# ---------------------------------------------------------------------- #
# SLOTracker
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestSLOTracker:
    def test_burn_rate_math(self):
        clock = FakeClock()
        tracker = SLOTracker(
            [SLObjective("avail", target=0.9, min_events=1)], clock=clock)
        for _ in range(9):
            tracker.record("maxrs", 0.001)
        tracker.record("maxrs", 0.001, error=True)
        snap = tracker.snapshot()["avail"]
        assert snap["events"] == 10
        assert snap["bad_events"] == 1
        # 10% bad against a 10% budget: burning at exactly 1.0.
        assert snap["burn_rate"] == pytest.approx(1.0)

    def test_latency_threshold_counts_as_bad(self):
        clock = FakeClock()
        tracker = SLOTracker(
            [SLObjective("fast", target=0.5, latency_threshold_s=0.1)],
            clock=clock)
        tracker.record("maxrs", 0.25)  # slow -> bad
        tracker.record("maxrs", 0.01)  # fast -> good
        snap = tracker.snapshot()["fast"]
        assert snap["bad_events"] == 1

    def test_kind_filter(self):
        clock = FakeClock()
        tracker = SLOTracker(
            [SLObjective("maxrs-only", target=0.9, kind="maxrs")],
            clock=clock)
        tracker.record("maxcrs", 1.0, error=True)
        assert tracker.snapshot()["maxrs-only"]["events"] == 0
        tracker.record("maxrs", 0.001)
        assert tracker.snapshot()["maxrs-only"]["events"] == 1

    def test_window_expires_old_events(self):
        clock = FakeClock()
        tracker = SLOTracker(
            [SLObjective("w", target=0.9, window_s=10.0)], clock=clock)
        tracker.record("maxrs", 0.0, error=True)
        clock.now += 60.0
        assert tracker.snapshot()["w"]["events"] == 0

    def test_alert_fires_on_transition_only(self):
        clock = FakeClock()
        alerts = []
        tracker = SLOTracker(
            [SLObjective("avail", target=0.5, min_events=2)],
            sinks=[alerts.append], clock=clock)
        tracker.record("maxrs", 0.0, error=True)
        assert alerts == []  # min_events guard
        tracker.record("maxrs", 0.0, error=True)
        assert len(alerts) == 1 and alerts[0]["state"] == "firing"
        tracker.record("maxrs", 0.0, error=True)
        assert len(alerts) == 1  # still firing: no re-fire
        for _ in range(20):
            tracker.record("maxrs", 0.0)
        assert len(alerts) == 2 and alerts[1]["state"] == "resolved"
        assert tracker.alerts_fired == 1
        assert tracker.alerting() == {"avail": False}

    def test_sink_exceptions_are_swallowed(self):
        clock = FakeClock()

        def bad_sink(alert):
            raise RuntimeError("sink down")

        fired = []
        tracker = SLOTracker([SLObjective("a", target=0.5)],
                             sinks=[bad_sink, fired.append], clock=clock)
        tracker.record("maxrs", 0.0, error=True)
        assert len(fired) == 1  # later sinks still ran

    def test_json_lines_sink_writes_parseable_lines(self, tmp_path):
        clock = FakeClock()
        path = str(tmp_path / "alerts" / "slo.jsonl")
        tracker = SLOTracker([SLObjective("a", target=0.5)],
                             sinks=[json_lines_alert_sink(path)], clock=clock)
        tracker.record("maxrs", 0.0, error=True)
        for _ in range(10):
            tracker.record("maxrs", 0.0)
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert [line["state"] for line in lines] == ["firing", "resolved"]
        assert lines[0]["objective"] == "a"

    def test_log_sink_emits_warning(self, caplog):
        clock = FakeClock()
        tracker = SLOTracker([SLObjective("a", target=0.5)],
                             sinks=[log_alert_sink()], clock=clock)
        with caplog.at_level(logging.WARNING, logger="repro.obs.health"):
            tracker.record("maxrs", 0.0, error=True)
        assert any("SLO a firing" in record.getMessage()
                   for record in caplog.records)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLObjective("bad", target=1.5)
        with pytest.raises(ValueError):
            SLObjective("bad", window_s=0)
        with pytest.raises(ValueError):
            SLObjective("bad", burn_rate_alert=0)
        with pytest.raises(ValueError):
            SLObjective("bad", min_events=0)


# ---------------------------------------------------------------------- #
# ResourceSampler
# ---------------------------------------------------------------------- #
class TestResourceSampler:
    def test_sources_run_and_failures_are_isolated(self):
        metrics = EngineMetrics()
        sampler = ResourceSampler(metrics)

        def bad(_):
            raise RuntimeError("source down")

        sampler.add_source(bad)
        sampler.add_source(lambda m: m.set_gauge("cache_entries", 5))
        sampler.sample()
        assert metrics.gauge("cache_entries") == 5.0
        assert sampler.samples == 1

    def test_background_thread_lifecycle(self):
        metrics = EngineMetrics()
        sampler = ResourceSampler(metrics, interval_s=0.01)
        sampler.add_source(lambda m: m.set_gauge("ticks", sampler.samples))
        sampler.start()
        try:
            import time
            deadline = time.monotonic() + 2.0
            while sampler.samples < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sampler.samples >= 2
        finally:
            sampler.stop()
        settled = sampler.samples
        import time
        time.sleep(0.05)
        assert sampler.samples == settled  # really stopped
        sampler.stop()  # idempotent

    def test_start_without_interval_is_a_no_op(self):
        sampler = ResourceSampler(EngineMetrics())
        sampler.start()
        assert sampler._thread is None
        sampler.stop()

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            ResourceSampler(EngineMetrics(), interval_s=0)


class TestReadProcStats:
    def test_own_process_when_proc_available(self):
        stats = read_proc_stats(os.getpid())
        if stats is None:
            pytest.skip("/proc not available on this platform")
        cpu, rss = stats
        assert cpu >= 0.0
        assert rss > 0  # a running CPython has resident pages

    def test_dead_pid_returns_none(self):
        # PID 2**22 exceeds the default pid_max on Linux; never running.
        assert read_proc_stats(2 ** 22 + 1) is None
