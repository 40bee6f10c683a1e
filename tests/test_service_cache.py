"""Tests for the service result cache (:mod:`repro.service.cache`)."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.service.cache import LRUCache


class TestBasics:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUCache(0)

    def test_miss_then_hit(self):
        cache = LRUCache(4)
        hit, value = cache.get("a")
        assert not hit and value is None
        cache.put("a", 41)
        hit, value = cache.get("a")
        assert hit and value == 41

    def test_cached_none_is_a_hit(self):
        cache = LRUCache(4)
        cache.put("a", None)
        hit, value = cache.get("a")
        assert hit and value is None

    def test_put_overwrites(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == (True, 2)
        assert len(cache) == 1

    def test_contains_does_not_count_as_lookup(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        stats = cache.stats
        assert stats.hits == 0 and stats.misses == 0


class TestEviction:
    def test_lru_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b becomes LRU
        cache.put("c", 3)       # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)      # refresh a; b is LRU
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_size_never_exceeds_capacity(self):
        cache = LRUCache(3)
        for index in range(10):
            cache.put(index, index)
            assert len(cache) <= 3
        assert cache.stats.evictions == 7


class TestCostWeightedEviction:
    """Cheap entries leave before expensive ones within the cold window."""

    def test_cheap_cold_entry_evicted_before_expensive_older_one(self):
        cache = LRUCache(2, eviction_window=2)
        cache.put("refined", "big answer", cost=3.0)   # oldest but expensive
        cache.put("approx", "quick answer", cost=0.001)
        cache.put("new", "x")                          # one must go
        assert "refined" in cache                      # survived despite age
        assert "approx" not in cache                   # cheapest of the cold
        assert "new" in cache

    def test_window_one_recovers_classic_lru(self):
        cache = LRUCache(2, eviction_window=1)
        cache.put("old-expensive", 1, cost=100.0)
        cache.put("cheap", 2, cost=0.001)
        cache.put("new", 3)
        assert "old-expensive" not in cache            # pure recency
        assert "cheap" in cache and "new" in cache

    def test_equal_costs_degrade_to_lru(self):
        cache = LRUCache(2, eviction_window=8)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_recency_still_dominates_outside_window(self):
        # The cheapest entry overall sits outside the cold window and must
        # survive: cost only arbitrates among the least-recently-used.
        cache = LRUCache(3, eviction_window=2)
        cache.put("cold-1", 1, cost=5.0)
        cache.put("cold-2", 2, cost=4.0)
        cache.put("hot-cheap", 3, cost=0.001)
        cache.put("new", 4, cost=1.0)
        assert "hot-cheap" in cache
        assert "cold-2" not in cache                   # cheapest of the window

    def test_fresh_insert_never_evicts_itself(self):
        cache = LRUCache(1, eviction_window=8)
        cache.put("expensive", 1, cost=100.0)
        cache.put("cheap", 2, cost=0.0)
        assert "cheap" in cache and "expensive" not in cache

    def test_refresh_updates_cost(self):
        cache = LRUCache(4)
        cache.put("a", 1, cost=0.5)
        assert cache.cost_of("a") == 0.5
        cache.put("a", 1, cost=9.0)
        assert cache.cost_of("a") == 9.0
        assert cache.cost_of("missing") is None

    def test_negative_cost_rejected(self):
        cache = LRUCache(4)
        with pytest.raises(ConfigurationError):
            cache.put("a", 1, cost=-1.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUCache(4, eviction_window=0)

    def test_engine_records_compute_cost(self):
        """The engine charges cached answers their solve wall-clock."""
        import random

        from repro.geometry import WeightedPoint
        from repro.service import MaxRSEngine, QuerySpec

        rng = random.Random(5)
        objs = [WeightedPoint(rng.uniform(0, 100), rng.uniform(0, 100), 1.0)
                for _ in range(200)]
        engine = MaxRSEngine()
        handle = engine.register_dataset(objs)
        engine.query(handle, QuerySpec.maxrs(10.0, 10.0))
        key = (handle.fingerprint, QuerySpec.maxrs(10.0, 10.0))
        cost = engine.cache.cost_of(key)
        assert cost is not None and cost > 0.0


class TestStatsAndInvalidation:
    def test_hit_rate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats
        assert stats.hits == 2 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_when_unused(self):
        assert LRUCache(4).stats.hit_rate == 0.0

    def test_invalidate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert cache.get("a") == (False, None)

    def test_invalidate_matching(self):
        cache = LRUCache(8)
        cache.put(("fp1", "maxrs", 2.0), 1)
        cache.put(("fp1", "maxrs", 3.0), 2)
        cache.put(("fp2", "maxrs", 2.0), 3)
        dropped = cache.invalidate_matching(lambda key: key[0] == "fp1")
        assert dropped == 2
        assert len(cache) == 1
        assert cache.get(("fp2", "maxrs", 2.0)) == (True, 3)

    def test_invalidate_matching_is_not_an_eviction(self):
        cache = LRUCache(8)
        cache.put("a", 1)
        cache.invalidate_matching(lambda key: True)
        assert cache.stats.evictions == 0

    def test_entries_snapshot(self):
        cache = LRUCache(8)
        cache.put("a", 1, cost=0.5)
        cache.put("b", 2, cost=2.0)
        cache.get("a")  # refresh: "a" becomes the most recent
        assert cache.entries() == [("b", 2, 2.0), ("a", 1, 0.5)]
        assert cache.stats.hits == 1  # entries() itself counted nothing

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_thread_safety_smoke(self):
        cache = LRUCache(32)

        def worker(offset):
            for index in range(200):
                cache.put((offset, index % 40), index)
                cache.get((offset, (index + 1) % 40))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats
        assert len(cache) <= 32
        assert stats.hits + stats.misses == 4 * 200
