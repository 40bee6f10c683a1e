"""Tail-based trace retention, trace analytics, and the introspection wire.

Covers the :class:`~repro.obs.TailSamplingRecorder` keep/drop semantics,
the :mod:`repro.obs.analyze` folds (`profile`, `critical_path`,
`render_profile`), the slow-query log firing on server-side ``aio.query``
spans, and the ``explain`` / ``trace_profile`` / ``client_id`` / ``cost``
fields of the TCP wire protocol.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest

from repro import obs
from repro.obs import TailSamplingRecorder
from repro.obs.recorder import resolve_recorder
from repro.obs.span import Span, Trace

_ids = itertools.count(1)


def make_trace(duration: float, *, name: str = "engine.query",
               status: str = "ok",
               children: tuple = ()) -> Trace:
    """Fabricate a finished trace with exact durations."""
    root = Span(name, f"{next(_ids):016x}")
    root.duration_s = duration
    for child_name, child_duration in children:
        child = Span(child_name, root.trace_id, parent_id=root.span_id)
        child.duration_s = child_duration
        child.status = status if child_name == "boom" else "ok"
        root.children.append(child)
    if status != "ok" and not children:
        root.status = status
    return Trace(root)


# ---------------------------------------------------------------------- #
# TailSamplingRecorder keep/drop semantics
# ---------------------------------------------------------------------- #
class TestTailSampling:
    def test_cold_window_keeps_first_trace_as_tail(self):
        recorder = TailSamplingRecorder(capacity=4)
        recorder.record(make_trace(0.001))
        assert len(recorder) == 1
        assert recorder.last().root.attributes["retained"] == "tail"

    def test_fast_traces_are_dropped_once_window_warms(self):
        recorder = TailSamplingRecorder(capacity=64, top_fraction=0.1,
                                        window=100)
        for _ in range(50):
            recorder.record(make_trace(1.0))   # warm the window high
        kept_before = recorder.kept
        for _ in range(20):
            recorder.record(make_trace(0.001))  # clearly below the quantile
        assert recorder.kept == kept_before     # all dropped
        stats = recorder.stats()
        assert stats["seen"] == 70
        assert stats["keep_rate"] < 1.0

    def test_slow_threshold_always_keeps(self):
        recorder = TailSamplingRecorder(capacity=8, slow_threshold_s=0.5,
                                        top_fraction=0.0)
        recorder.record(make_trace(0.1))
        recorder.record(make_trace(0.9))
        assert len(recorder) == 1
        assert recorder.last().root.attributes["retained"] == "slow"

    def test_errors_always_keep_regardless_of_speed(self):
        recorder = TailSamplingRecorder(capacity=8, top_fraction=0.0)
        recorder.record(make_trace(
            0.0001, children=(("boom", 0.0),), status="error"))
        assert len(recorder) == 1
        assert recorder.last().root.attributes["retained"] == "error"
        assert recorder.stats()["reasons"]["error"] == 1

    def test_degraded_serves_keep(self):
        recorder = TailSamplingRecorder(capacity=8, top_fraction=0.0)
        recorder.record(make_trace(
            0.0001, children=(("aio.degraded", 0.0001),)))
        assert recorder.last().root.attributes["retained"] == "degraded"

    def test_capacity_bounds_memory(self):
        recorder = TailSamplingRecorder(capacity=3, slow_threshold_s=0.0)
        for _ in range(10):
            recorder.record(make_trace(0.001))
        assert len(recorder) == 3               # deque cap
        assert recorder.kept == 10              # but every keep was counted

    def test_read_api_matches_ring_recorder(self):
        recorder = TailSamplingRecorder(capacity=8, slow_threshold_s=0.0)
        trace = make_trace(0.5)
        recorder.record(trace)
        assert recorder.traces() == [trace]
        assert recorder.find(trace.trace_id) == [trace]
        assert recorder.find("none") == []
        assert recorder.last() is trace
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.stats()["seen"] == 0

    def test_resolve_recorder_tail_spec(self):
        assert isinstance(resolve_recorder("tail"), TailSamplingRecorder)

    def test_validation(self):
        with pytest.raises(ValueError):
            TailSamplingRecorder(capacity=0)
        with pytest.raises(ValueError):
            TailSamplingRecorder(slow_threshold_s=-1.0)
        with pytest.raises(ValueError):
            TailSamplingRecorder(top_fraction=1.5)
        with pytest.raises(ValueError):
            TailSamplingRecorder(window=0)


# ---------------------------------------------------------------------- #
# Trace analytics
# ---------------------------------------------------------------------- #
class TestAnalyze:
    def test_self_seconds_subtracts_children_and_clamps(self):
        trace = make_trace(1.0, children=(("backend.sweep", 0.7),
                                          ("cache.lookup", 0.1)))
        assert obs.span_self_seconds(trace.root) == pytest.approx(0.2)
        overlapped = make_trace(1.0, children=(("a", 0.8), ("b", 0.8)))
        assert obs.span_self_seconds(overlapped.root) == 0.0  # parallel

    def test_profile_aggregates_across_traces(self):
        traces = [make_trace(1.0, children=(("backend.sweep", 0.7),)),
                  make_trace(2.0, children=(("backend.sweep", 1.5),))]
        stages = obs.profile(traces)
        assert stages["engine.query"]["count"] == 2
        assert stages["engine.query"]["total_seconds"] == pytest.approx(3.0)
        assert stages["engine.query"]["self_seconds"] == pytest.approx(0.8)
        assert stages["backend.sweep"]["self_seconds"] == pytest.approx(2.2)
        assert stages["backend.sweep"]["max_seconds"] == pytest.approx(1.5)

    def test_critical_path_follows_largest_child(self):
        trace = make_trace(1.0, children=(("engine.approximate", 0.2),
                                          ("engine.refine", 0.7)))
        path = obs.critical_path(trace)
        assert [hop["name"] for hop in path] == ["engine.query",
                                                 "engine.refine"]
        assert path[1]["fraction_of_root"] == pytest.approx(0.7)

    def test_render_profile_orders_by_self_time(self):
        stages = obs.profile([make_trace(
            1.0, children=(("backend.sweep", 0.9),))])
        table = obs.render_profile(stages)
        lines = table.splitlines()
        assert "stage" in lines[0] and "self ms" in lines[0]
        assert lines[2].startswith("backend.sweep")  # hottest self first

    def test_profile_includes_grafted_worker_spans(self):
        """Spans grafted from a serialised trace are ordinary children."""
        trace = make_trace(1.0, children=(("backend.sweep", 0.4),))
        worker = Span.from_dict({
            "name": "backend.sweep", "trace_id": trace.trace_id,
            "duration_s": 0.3, "children": []})
        worker.parent_id = trace.root.span_id
        trace.root.children.append(worker)
        stages = obs.profile([trace])
        assert stages["backend.sweep"]["count"] == 2
        assert stages["backend.sweep"]["total_seconds"] == pytest.approx(0.7)


# ---------------------------------------------------------------------- #
# The slow-query log on server-side spans
# ---------------------------------------------------------------------- #
class TestSlowQuerySpans:
    def test_fires_once_on_outermost_query_span(self):
        captured = []
        tracer = obs.Tracer()
        tracer.slow_query_log(0.0, sink=captured.append)
        with tracer.trace("server.request"):
            with obs.span("aio.query"):
                with obs.span("engine.query"):
                    pass
        assert len(captured) == 1               # not one per nested query
        assert captured[0].startswith("SLOW QUERY trace=")
        assert "aio.query" in captured[0]       # the outermost wins
        assert "engine.query" in captured[0]    # subtree rides along
        assert tracer.slow_queries == 1

    def test_fires_per_query_span_in_one_trace(self):
        captured = []
        tracer = obs.Tracer()
        tracer.slow_query_log(0.0, sink=captured.append)
        with tracer.trace("server.batch"):
            with obs.span("aio.query"):
                pass
            with obs.span("aio.query"):
                pass
        assert len(captured) == 2               # one entry per slow query

    def test_root_fallback_without_query_spans(self):
        captured = []
        tracer = obs.Tracer()
        tracer.slow_query_log(0.0, sink=captured.append)
        with tracer.trace("engine.register"):
            pass
        assert len(captured) == 1
        assert "engine.register" in captured[0]


# ---------------------------------------------------------------------- #
# The introspection wire: explain, trace_profile, client_id, cost
# ---------------------------------------------------------------------- #
class TestIntrospectionWire:
    @pytest.fixture
    def objects(self):
        pytest.importorskip("numpy")
        from repro.geometry import WeightedPoint
        return [WeightedPoint(float(i % 7) * 3.0, float(i // 7) * 3.0,
                              1.0 + i % 3) for i in range(49)]

    def test_explain_trace_profile_and_client_accounting(self, objects):
        pytest.importorskip("numpy")
        from repro.aio import AsyncQueryClient, serve
        from repro.service import MaxRSEngine, QuerySpec

        sync_engine = MaxRSEngine()
        handle = sync_engine.register_dataset(objects)
        spec = QuerySpec.maxrs(6.0, 6.0)
        want = sync_engine.query(handle, spec)
        sync_engine.close()

        async def run():
            engine = MaxRSEngine(tracer="tail")
            server = await serve(engine)
            client = await AsyncQueryClient.connect(
                "127.0.0.1", server.port, client_id="itest")
            try:
                dataset = await client.register(objects, name="d")

                plan = await client.explain(dataset, spec)
                got = await client.query(dataset, spec)
                stats = await client.stats()
                profile = await client.trace_profile()
                return plan, got, stats, profile
            finally:
                await client.close()
                await server.stop()

        plan, got, stats, profile = asyncio.run(run())

        # The wire answer is bit-identical and carries the cost ledger.
        assert got == want
        assert got.cost["cache"] == "miss"
        assert got.cost["swept_points"] > 0

        # The plan crossed the wire JSON-sanitised and unexecuted.
        assert plan["path"] in ("exact_sweep", "bounded_descent",
                                "approximate", "full_sweep", "direct")
        assert plan["cache"] == {"would_hit": False}

        # The query was attributed to this client's ledger server-side.
        clients = stats["clients"]
        assert clients["ledgers"]["itest"]["queries"] == 1

        # trace_profile folded the server's retained traces.
        assert profile["traces"] >= 1
        assert any(name.startswith("server.") or name.startswith("engine.")
                   for name in profile["stages"])
        assert profile["recorder"]["kept"] >= 1

    def test_cost_round_trip_elides_none(self, objects):
        pytest.importorskip("numpy")
        from repro.aio import protocol
        from repro.service import MaxRSEngine, QuerySpec

        engine = MaxRSEngine()
        try:
            handle = engine.register_dataset(objects)
            result = engine.query(handle, QuerySpec.maxrs(6.0, 6.0))
            wire = protocol.result_to_wire(result)
            assert wire["cost"]["cache"] == "miss"
            decoded = protocol.result_from_wire(wire)
            assert decoded == result
            assert decoded.cost == result.cost

            # A cost-less result (old peer, or pre-introspection snapshot)
            # elides the field entirely and decodes back to cost=None.
            from dataclasses import replace
            bare = replace(result, cost=None)
            bare_wire = protocol.result_to_wire(bare)
            assert "cost" not in bare_wire
            assert protocol.result_from_wire(bare_wire).cost is None
        finally:
            engine.close()
