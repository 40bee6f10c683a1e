"""Query introspection: cost ledgers, EXPLAIN plans, per-client accounting.

Three contracts pinned here:

* **zero effect** -- explaining a query and carrying cost ledgers changes
  no answer, bit for bit, whether the query runs on the calling thread or
  in a batch on the engine's thread pool, at several grid resolutions;
* **reconciliation** -- per-query ``cost`` records and per-client ledgers
  are *exact* decompositions of the global ``EngineMetrics`` counters
  (on the calling thread, in pooled batches, and under concurrent
  clients);
* **bounded cardinality** -- client accounting cannot grow without bound:
  the tracked-ledger LRU evicts and counts, it never expands.
"""

import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

pytest.importorskip("numpy")  # the engine's grid index is numpy-backed

from repro.service.engine import MaxRSEngine, QuerySpec

#: A mixed workload: repeats (cache hits), several kinds, both refine
#: modes, and a bounded-error request.
QUERY_MIX = [
    QuerySpec.maxrs(7.0, 4.5),
    QuerySpec.maxrs(12.0, 12.0),
    QuerySpec.maxrs(7.0, 4.5),           # repeat: cache hit
    QuerySpec.maxrs(3.0, 9.0, refine=False),
    QuerySpec.maxkrs(8.0, 8.0, 2),
    QuerySpec.maxrs(18.0, 18.0, error_bound=0.5),
]


def first_result(result):
    """The cost-carrying element of an answer (maxkrs answers are tuples)."""
    return result[0] if isinstance(result, tuple) else result


# ---------------------------------------------------------------------- #
# The cost ledger
# ---------------------------------------------------------------------- #
class TestCostLedger:
    def test_miss_cost_fields(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(400, seed=1))
            result = engine.query(ds, QuerySpec.maxrs(9.0, 9.0))
            cost = result.cost
            assert cost["cache"] == "miss"
            assert cost["dataset_points"] == 400
            assert cost["swept_points"] > 0
            assert cost["pruned_points"] >= 0
            assert (cost["pruned_points"]
                    <= cost["dataset_points"])
            assert cost["wall_seconds"] > 0.0
            assert cost["cpu_seconds"] >= 0.0
            assert cost["sweeps"] >= 1
            assert cost["block_reads"] == 0 and cost["block_writes"] == 0
        finally:
            engine.close()

    def test_hit_cost_is_cheap_and_marked(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(200, seed=2))
            spec = QuerySpec.maxrs(6.0, 6.0)
            cold = engine.query(ds, spec)
            hit = engine.query(ds, spec)
            assert hit == cold                 # cost never affects equality
            assert hit.cost["cache"] == "hit"
            assert hit.cost["swept_points"] == 0
        finally:
            engine.close()

    def test_maxkrs_tuple_carries_cost(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(200, seed=3))
            results = engine.query(ds, QuerySpec.maxkrs(8.0, 8.0, 3))
            assert isinstance(results, tuple)
            for item in results:
                assert item.cost["cache"] == "miss"
        finally:
            engine.close()

    def test_bounded_error_query_records_descent(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(500, seed=4))
            result = engine.query(
                ds, QuerySpec.maxrs(30.0, 30.0, error_bound=0.5))
            descent = result.cost["descent"]
            assert descent is not None
            assert set(descent) == {"certified", "certified_gap"}
            assert (descent["certified_gap"] is not None) \
                is descent["certified"]
        finally:
            engine.close()

    def test_persisted_engine_attributes_block_io(self, make_objects):
        with tempfile.TemporaryDirectory() as persist_dir:
            engine = MaxRSEngine(persist_dir=persist_dir)
            try:
                ds = engine.register_dataset(make_objects(300, seed=5))
                result = engine.query(ds, QuerySpec.maxrs(9.0, 9.0))
                # Registration did the writes; the query itself may or may
                # not touch blobs, but the field is present and consistent
                # with the store's counters (the reconciliation test below
                # pins the sum).
                assert result.cost["block_reads"] >= 0
                assert result.cost["block_writes"] >= 0
            finally:
                engine.close()


# ---------------------------------------------------------------------- #
# EXPLAIN
# ---------------------------------------------------------------------- #
class TestExplain:
    def test_plan_structure(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(600, seed=6))
            plan = engine.explain(ds, QuerySpec.maxrs(9.0, 9.0))
            assert plan["kind"] == "maxrs"
            assert plan["path"] in ("exact_sweep", "bounded_descent",
                                    "approximate", "full_sweep", "direct")
            assert plan["cache"] == {"would_hit": False}
            assert plan["dataset_points"] == 600
            estimates = plan["estimates"]
            assert 0 <= estimates["probe_points"] <= 600
            assert 0 <= estimates["pruned_points"] <= 600
            assert plan["backend"] == "numpy"
        finally:
            engine.close()

    def test_explain_paths(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(300, seed=7))
            assert engine.explain(
                ds, QuerySpec.maxkrs(5.0, 5.0, 2))["path"] == "full_sweep"
            assert engine.explain(
                ds, QuerySpec.maxrs(5.0, 5.0, refine=False)
            )["path"] == "approximate"
            assert engine.explain(
                ds, QuerySpec.maxrs(5.0, 5.0, error_bound=0.1)
            )["path"] == "bounded_descent"
        finally:
            engine.close()

    def test_explain_is_pure(self, make_objects):
        """Explaining never sweeps, caches, or touches cache recency."""
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(300, seed=8))
            spec = QuerySpec.maxrs(9.0, 9.0)
            before = engine.metrics.snapshot()["counters"]
            plan = engine.explain(ds, spec)
            assert not plan["cache"]["would_hit"]
            after = engine.metrics.snapshot()["counters"]
            assert after.get("queries", 0) == before.get("queries", 0)
            assert after.get("swept_points", 0) == \
                before.get("swept_points", 0)
            assert after.get("explains", 0) == before.get("explains", 0) + 1
            # Cache membership probe: no hit/miss mutation.
            engine.query(ds, spec)
            cache_before = engine.stats()["cache"]
            assert engine.explain(ds, spec)["cache"]["would_hit"]
            cache_after = engine.stats()["cache"]
            assert cache_after["hits"] == cache_before["hits"]
            assert cache_after["misses"] == cache_before["misses"]
        finally:
            engine.close()

    def test_explain_attaches_actual_cost(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(300, seed=9))
            spec = QuerySpec.maxrs(9.0, 9.0)
            result = engine.query(ds, spec)
            plan = engine.explain(ds, spec, result=result)
            assert plan["actual"] == result.cost
            assert plan["actual"]["cache"] == "miss"
        finally:
            engine.close()


class TestExplainZeroEffect:
    """Bit-identity: introspected engines answer exactly like plain ones."""

    SPECS = [QuerySpec.maxrs(9.0, 9.0),
             QuerySpec.maxrs(14.0, 5.0, error_bound=0.5),
             QuerySpec.maxkrs(8.0, 8.0, 2)]

    def _reference(self, objects, points_per_cell):
        engine = MaxRSEngine(target_points_per_cell=points_per_cell)
        try:
            ds = engine.register_dataset(objects)
            return [engine.query(ds, spec) for spec in self.SPECS]
        finally:
            engine.close()

    def _assert_zero_effect(self, objects, want, tier, points_per_cell):
        engine = MaxRSEngine(target_points_per_cell=points_per_cell)
        try:
            ds = engine.register_dataset(objects)
            if tier == "serial":
                for spec, expected in zip(self.SPECS, want):
                    engine.explain(ds, spec)               # before the query
                    got = engine.query(ds, spec)
                    assert got == expected, (tier, points_per_cell, spec)
                    engine.explain(ds, spec, result=got)   # and after
                    again = engine.query(ds, spec)         # cache hit path
                    assert again == expected, (tier, points_per_cell, spec)
            else:
                # The batch fans the specs out over the engine's thread pool.
                for spec in self.SPECS:
                    engine.explain(ds, spec)
                got = engine.query_batch(ds, self.SPECS)
                assert got == want, (tier, points_per_cell)
                for spec, result in zip(self.SPECS, got):
                    engine.explain(ds, spec, result=result)
                again = engine.query_batch(ds, self.SPECS)
                assert again == want, (tier, points_per_cell)
        finally:
            engine.close()

    @pytest.mark.parametrize("points_per_cell", [1, 2, 4, 7])
    @pytest.mark.parametrize("tier", ["serial", "threaded"])
    def test_thread_tiers(self, make_objects, tier, points_per_cell):
        objects = make_objects(600, seed=11)
        self._assert_zero_effect(
            objects, self._reference(objects, points_per_cell), tier,
            points_per_cell)


# ---------------------------------------------------------------------- #
# Reconciliation: per-query ledgers decompose the global counters
# ---------------------------------------------------------------------- #
class TestReconciliation:
    def _run_mix(self, engine, objects, tier):
        """Run :data:`QUERY_MIX` for two alternating clients; return one
        result per executed query.  ``serial`` issues every query on the
        calling thread; ``threaded`` sends each client's share as one
        ``query_batch`` over the engine's pool, which answers a repeated spec
        once."""
        ds = engine.register_dataset(objects)
        if tier == "serial":
            return [engine.query(ds, spec,
                                 client_id=f"client-{index % 2}")
                    for index, spec in enumerate(QUERY_MIX)]
        executed = []
        for client in range(2):
            batch = engine.query_batch(ds, QUERY_MIX[client::2],
                                       client_id=f"client-{client}")
            executed += {id(result): result for result in batch}.values()
        return executed

    def _assert_reconciled(self, engine, objects, tier):
        before = engine.metrics.snapshot()["counters"]
        results = self._run_mix(engine, objects, tier)
        after = engine.metrics.snapshot()["counters"]

        costs = [first_result(result).cost for result in results]
        swept_delta = (after.get("swept_points", 0)
                       - before.get("swept_points", 0))
        assert sum(cost["swept_points"] for cost in costs) == swept_delta

        queries_delta = after.get("queries", 0) - before.get("queries", 0)
        ledgers = engine.client_ledgers()
        assert sum(ledger["queries"]
                   for ledger in ledgers.values()) == queries_delta
        assert sum(ledger["swept_points"]
                   for ledger in ledgers.values()) == swept_delta
        hits = sum(ledger["hits"] for ledger in ledgers.values())
        misses = sum(ledger["misses"] for ledger in ledgers.values())
        assert hits + misses == queries_delta

    @pytest.mark.parametrize("tier", ["serial", "threaded"])
    def test_thread_tiers(self, make_objects, tier):
        engine = MaxRSEngine(max_workers=4)
        try:
            self._assert_reconciled(engine, make_objects(900, seed=12), tier)
        finally:
            engine.close()

    def test_block_deltas_sum_to_store_counters(self, make_objects):
        """Per-query block I/O deltas decompose the store's counter delta
        over a sequential query phase."""
        with tempfile.TemporaryDirectory() as persist_dir:
            engine = MaxRSEngine(persist_dir=persist_dir)
            try:
                ds = engine.register_dataset(make_objects(400, seed=13))
                io_before = engine.persist.counters.snapshot()
                results = [engine.query(ds, spec) for spec in QUERY_MIX]
                io_after = engine.persist.counters.snapshot()
                costs = [first_result(result).cost for result in results]
                assert sum(c["block_reads"] for c in costs) == \
                    io_after.block_reads - io_before.block_reads
                assert sum(c["block_writes"] for c in costs) == \
                    io_after.block_writes - io_before.block_writes
            finally:
                engine.close()


# ---------------------------------------------------------------------- #
# Per-client accounting
# ---------------------------------------------------------------------- #
class TestClientAccounting:
    def test_anonymous_queries_are_not_tracked(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(200, seed=15))
            engine.query(ds, QuerySpec.maxrs(6.0, 6.0))
            assert engine.client_ledgers() == {}
            assert engine.stats()["clients"]["tracked"] == 0
        finally:
            engine.close()

    def test_ledger_cardinality_is_bounded(self, make_objects):
        engine = MaxRSEngine(max_tracked_clients=3)
        try:
            ds = engine.register_dataset(make_objects(200, seed=16))
            spec = QuerySpec.maxrs(6.0, 6.0)
            for index in range(7):
                engine.query(ds, spec, client_id=f"tenant-{index}")
            clients = engine.stats()["clients"]
            assert clients["tracked"] == 3
            assert clients["capacity"] == 3
            assert clients["evicted"] == 4
            # LRU: the most recent three survive.
            assert sorted(clients["ledgers"]) == \
                ["tenant-4", "tenant-5", "tenant-6"]
        finally:
            engine.close()

    def test_error_queries_account_as_errors(self, make_objects,
                                             monkeypatch):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(200, seed=17))

            def boom(entry, spec):
                raise RuntimeError("forced compute failure")

            monkeypatch.setattr(engine, "_compute", boom)
            with pytest.raises(RuntimeError):
                engine.query(ds, QuerySpec.maxrs(6.0, 6.0),
                             client_id="unlucky")
            ledger = engine.client_ledgers()["unlucky"]
            assert ledger["queries"] == 1
            assert ledger["errors"] == 1
            assert ledger["wall_seconds"] > 0.0
        finally:
            engine.close()

    def test_metrics_text_labels_clients(self, make_objects):
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(200, seed=18))
            engine.query(ds, QuerySpec.maxrs(6.0, 6.0), client_id="alice")
            text = engine.metrics_text()
            assert 'repro_client_total{client="alice",name="queries"} 1' \
                in text
        finally:
            engine.close()

    def test_concurrent_clients_reconcile_exactly(self, make_objects):
        """Acceptance: under concurrent attributed load, per-client totals
        sum exactly to the global query counter delta."""
        engine = MaxRSEngine()
        try:
            ds = engine.register_dataset(make_objects(400, seed=19))
            specs = [QuerySpec.maxrs(4.0 + i, 5.0) for i in range(5)]
            before = engine.metrics.snapshot()["counters"].get("queries", 0)

            def one(index):
                spec = specs[index % len(specs)]  # repeats: cache hits too
                return engine.query(ds, spec,
                                    client_id=f"tenant-{index % 4}")

            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(one, range(40)))

            after = engine.metrics.snapshot()["counters"]["queries"]
            ledgers = engine.client_ledgers()
            assert sorted(ledgers) == [f"tenant-{i}" for i in range(4)]
            assert sum(l["queries"] for l in ledgers.values()) == \
                after - before == 40
            assert sum(l["hits"] + l["misses"]
                       for l in ledgers.values()) == 40
        finally:
            engine.close()
