"""Tests for :mod:`repro.service.metrics`.

The engine mutates counters from ``query_batch`` pool threads and -- since
the sharded grid index -- from every per-shard build/gather task, so the
accumulators must hold up under genuinely concurrent writers.  These tests
hammer them from threads and pin the per-shard timing surface.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.service.metrics import EngineMetrics, LatencyHistogram


class TestCountersAndStages:
    def test_increment_and_counter(self):
        metrics = EngineMetrics()
        metrics.increment("queries")
        metrics.increment("queries", 4)
        assert metrics.counter("queries") == 5
        assert metrics.counter("never_touched") == 0

    def test_observe_seconds_aggregates(self):
        metrics = EngineMetrics()
        metrics.observe_seconds("refine", 0.25)
        metrics.observe_seconds("refine", 0.75)
        stage = metrics.snapshot()["stages"]["refine"]
        assert stage["count"] == 2
        assert stage["total_seconds"] == 1.0
        assert stage["mean_seconds"] == 0.5

    def test_time_stage_records_one_observation(self):
        metrics = EngineMetrics()
        with metrics.time_stage("register"):
            pass
        stage = metrics.snapshot()["stages"]["register"]
        assert stage["count"] == 1
        assert stage["total_seconds"] >= 0.0

    def test_reset_clears_everything(self):
        metrics = EngineMetrics()
        metrics.increment("queries")
        metrics.observe_seconds("refine", 0.1)
        metrics.observe_shard("shard_build", 0, 0.1)
        metrics.observe_latency("maxrs", 0.1)
        metrics.set_gauge("cache_entries", 3)
        metrics.reset()
        snapshot = metrics.snapshot()
        assert snapshot == {"counters": {}, "stages": {}, "shards": {},
                            "latency": {}, "gauges": {}}


class TestShardTimings:
    def test_observe_shard_keys_by_stage_and_shard(self):
        metrics = EngineMetrics()
        metrics.observe_shard("shard_build", 0, 0.5)
        metrics.observe_shard("shard_build", 1, 0.25)
        metrics.observe_shard("shard_gather", 0, 0.125)
        metrics.observe_shard("shard_build", 0, 0.5)
        shards = metrics.snapshot()["shards"]
        assert shards["shard_build"][0] == {
            "count": 2, "total_seconds": 1.0, "mean_seconds": 0.5}
        assert shards["shard_build"][1]["count"] == 1
        assert shards["shard_gather"][0]["total_seconds"] == 0.125


class TestLatencyHistogram:
    """The serving-latency histograms behind ``stats()["latency"]``."""

    def test_empty_summary_is_all_zero(self):
        summary = LatencyHistogram().summary()
        assert summary == {"count": 0, "mean_seconds": 0.0,
                           "min_seconds": 0.0, "max_seconds": 0.0,
                           "p50_seconds": 0.0, "p95_seconds": 0.0,
                           "p99_seconds": 0.0}

    def test_single_observation_pins_every_field(self):
        histogram = LatencyHistogram()
        histogram.observe(0.010)
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["mean_seconds"] == 0.010
        assert summary["min_seconds"] == summary["max_seconds"] == 0.010
        # One sample: every percentile is that sample (clamped to max).
        assert summary["p50_seconds"] == 0.010
        assert summary["p99_seconds"] == 0.010

    def test_percentiles_are_ordered_and_bracket_the_data(self):
        histogram = LatencyHistogram()
        for index in range(1000):
            histogram.observe(0.001 * (1 + index % 100))  # 1 ms .. 100 ms
        summary = histogram.summary()
        assert summary["count"] == 1000
        assert 0.001 <= summary["p50_seconds"] <= summary["p95_seconds"] \
            <= summary["p99_seconds"] <= summary["max_seconds"] == 0.1
        # Log buckets are ~2x wide: p50 of a uniform 1-100 ms stream must
        # land within one bucket of the true 50 ms median.
        assert 0.025 <= summary["p50_seconds"] <= 0.128

    def test_tail_estimates_never_underestimate_within_a_bucket(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe(0.001)
        histogram.observe(10.0)
        summary = histogram.summary()
        assert summary["p99_seconds"] >= 0.001
        assert summary["max_seconds"] == 10.0
        assert histogram.percentile(1.0) == 10.0

    def test_overflow_bucket_reports_observed_max(self):
        histogram = LatencyHistogram(bounds=(0.001, 0.002))
        histogram.observe(5.0)
        assert histogram.percentile(0.5) == 5.0

    def test_negative_observations_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        assert histogram.summary()["max_seconds"] == 0.0

    def test_merge_folds_counts_and_extremes(self):
        left, right = LatencyHistogram(), LatencyHistogram()
        left.observe(0.001)
        right.observe(1.0)
        left.merge(right)
        summary = left.summary()
        assert summary["count"] == 2
        assert summary["min_seconds"] == 0.001
        assert summary["max_seconds"] == 1.0

    def test_observe_latency_lands_in_snapshot(self):
        metrics = EngineMetrics()
        metrics.observe_latency("maxrs", 0.010)
        metrics.observe_latency("maxrs", 0.020)
        metrics.observe_latency("aio_maxrs", 0.005)
        latency = metrics.snapshot()["latency"]
        assert latency["maxrs"]["count"] == 2
        assert latency["maxrs"]["mean_seconds"] == 0.015
        assert latency["aio_maxrs"]["count"] == 1
        assert metrics.latency("maxrs")["count"] == 2
        assert metrics.latency("never_observed")["count"] == 0


class TestGauges:
    """Last-value gauges (the resource sampler's storage)."""

    def test_set_and_read_back(self):
        metrics = EngineMetrics()
        metrics.set_gauge("process_rss_bytes", 1024.0, process="parent")
        metrics.set_gauge("process_rss_bytes", 2048.0, process="worker-0")
        metrics.set_gauge("pool_workers_alive", 2)
        assert metrics.gauge("process_rss_bytes", process="parent") == 1024.0
        assert metrics.gauge("pool_workers_alive") == 2.0
        assert metrics.gauge("missing") is None

    def test_set_overwrites_same_labels(self):
        metrics = EngineMetrics()
        metrics.set_gauge("cache_entries", 1)
        metrics.set_gauge("cache_entries", 7)
        gauges = metrics.gauges()
        assert gauges["cache_entries"] == [{"labels": {}, "value": 7.0}]

    def test_gauges_sorted_by_labels(self):
        metrics = EngineMetrics()
        metrics.set_gauge("g", 2.0, process="worker-1")
        metrics.set_gauge("g", 1.0, process="worker-0")
        series = metrics.gauges()["g"]
        assert [entry["labels"]["process"] for entry in series] == \
            ["worker-0", "worker-1"]


class TestThreadSafety:
    """Concurrent writers must never lose an update (the engine's
    ``query_batch`` and shard fan-out both mutate from pool threads)."""

    WRITERS = 8
    ROUNDS = 500

    def test_concurrent_increments_are_lossless(self):
        metrics = EngineMetrics()

        def hammer(_):
            for _ in range(self.ROUNDS):
                metrics.increment("queries")
                metrics.increment("batch_queries", 2)

        with ThreadPoolExecutor(max_workers=self.WRITERS) as pool:
            list(pool.map(hammer, range(self.WRITERS)))
        assert metrics.counter("queries") == self.WRITERS * self.ROUNDS
        assert metrics.counter("batch_queries") == 2 * self.WRITERS * self.ROUNDS

    def test_concurrent_observations_are_lossless(self):
        metrics = EngineMetrics()

        def hammer(worker):
            for _ in range(self.ROUNDS):
                metrics.observe_seconds("refine", 0.001)
                metrics.observe_shard("shard_gather", worker % 4, 0.002)
                metrics.observe_latency("maxrs", 0.001 * (worker + 1))

        with ThreadPoolExecutor(max_workers=self.WRITERS) as pool:
            list(pool.map(hammer, range(self.WRITERS)))
        snapshot = metrics.snapshot()
        assert snapshot["stages"]["refine"]["count"] == self.WRITERS * self.ROUNDS
        gather = snapshot["shards"]["shard_gather"]
        assert sum(entry["count"] for entry in gather.values()) == \
            self.WRITERS * self.ROUNDS
        assert snapshot["latency"]["maxrs"]["count"] == \
            self.WRITERS * self.ROUNDS
