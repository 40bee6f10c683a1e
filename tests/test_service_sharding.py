"""Tests for the sharded grid index (:mod:`repro.service.sharding`).

The load-bearing property is **bit-identity**: a sharded index -- any shard
count, any executor -- must compute exactly the arrays the monolithic
:class:`~repro.service.grid_index.GridIndex` computes (aggregates, window
bounds, candidate masks, pruned point subsets), so refined engine answers can
never depend on the partitioning.  The halo invariant at shard boundaries is
exercised by hot spots placed deliberately across tile edges.
"""

import os

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, PersistError
from repro.geometry import WeightedPoint
from repro.persist.format import (
    GridShardSnapshot,
    GridSnapshot,
    ShardedGridSnapshot,
)
from repro.service import MaxRSEngine, QuerySpec
from repro.service.grid_index import GridIndex
from repro.service.sharding import (
    SerialExecutor,
    ShardedGridIndex,
    ThreadedExecutor,
    default_shard_count,
    plan_tiles,
    resolve_executor,
)

#: The shard counts the acceptance property is pinned across.
SHARD_COUNTS = (1, 2, 4, 7)


def _columns(objects):
    xs = np.array([o.x for o in objects], dtype=np.float64)
    ys = np.array([o.y for o in objects], dtype=np.float64)
    ws = np.array([o.weight for o in objects], dtype=np.float64)
    return xs, ys, ws


@pytest.fixture
def boundary_hotspots(make_objects):
    """Hot spots straddling tile boundaries plus sparse background.

    With the default ~sqrt(n) grid over [0, 100]^2 the 2- and 4-shard tilings
    cut near x=50 / y=50; the dense clusters sit exactly there, so a
    boundary-unsafe bound or dilation would change the pruned subset.
    """
    hot = [WeightedPoint(49.0 + (i % 5), 49.0 + (i // 5) % 5, 3.0)
           for i in range(40)]
    hot += [WeightedPoint(49.5 + (i % 3), 10.0 + i // 3, 2.0) for i in range(15)]
    return hot + make_objects(300, seed=23, extent=100.0)


# ---------------------------------------------------------------------- #
# Executors
# ---------------------------------------------------------------------- #
class TestExecutors:
    def test_unknown_executor_rejected(self):
        for name in ("distributed", "process"):
            with pytest.raises(ConfigurationError):
                resolve_executor(name, 4)

    def test_resolve_accepts_instances_and_rejects_junk(self):
        serial = SerialExecutor()
        assert resolve_executor(serial, 4) is serial
        with pytest.raises(ConfigurationError):
            resolve_executor(42, 4)

    def test_auto_rule_is_serial_for_one_shard(self):
        assert resolve_executor(None, 1).name == "serial"
        assert resolve_executor("auto", 1).name == "serial"

    def test_map_preserves_order_and_results(self):
        for executor in (SerialExecutor(), ThreadedExecutor(max_workers=2)):
            assert executor.map(lambda v: v * v, range(9)) == \
                [v * v for v in range(9)]

    def test_map_propagates_exceptions(self):
        def boom(v):
            if v == 3:
                raise ValueError("shard 3 failed")
            return v

        with pytest.raises(ValueError, match="shard 3"):
            ThreadedExecutor(max_workers=2).map(boom, range(6))

    def test_threaded_map_failure_leaves_no_orphan_tasks(self):
        """A failed map cancels/awaits the rest: nothing keeps running on
        the pool after the exception propagates."""
        import threading
        import time as _time

        started, finished = set(), set()
        gate = threading.Event()

        def task(v):
            if v == 0:
                # Let some siblings get picked up before the failure lands.
                gate.wait(2.0)
                raise ValueError("first shard failed")
            started.add(v)
            if v == 1:
                gate.set()
            _time.sleep(0.05)
            finished.add(v)
            return v

        executor = ThreadedExecutor(max_workers=2)
        try:
            with pytest.raises(ValueError, match="first shard"):
                executor.map(task, range(12))
            # Every task that began had been awaited before map() raised.
            assert started == finished
            snapshot = set(started)
            _time.sleep(0.2)
            assert started == snapshot, "tasks kept starting after failure"
        finally:
            executor.close()

    def test_effective_cpu_count_is_affinity_aware(self):
        from repro.service.sharding import effective_cpu_count

        count = effective_cpu_count()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count == len(os.sched_getaffinity(0))

    def test_threaded_map_is_deadlock_free_when_nested(self):
        """Nested fan-out on one saturated worker must still finish."""
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            executor = ThreadedExecutor(pool=pool)

            def outer(v):
                return sum(executor.map(lambda inner: inner + v, range(4)))

            assert executor.map(outer, range(3)) == \
                [sum(inner + v for inner in range(4)) for v in range(3)]

    def test_close_shuts_down_owned_pool_only(self):
        executor = ThreadedExecutor(max_workers=2)
        assert executor.map(lambda v: v, [1, 2, 3]) == [1, 2, 3]
        executor.close()  # idempotent, owned pool released
        executor.close()

        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            shared = ThreadedExecutor(pool=pool)
            shared.close()  # must NOT shut the borrowed pool down
            assert pool.submit(lambda: 7).result() == 7

    def test_default_shard_count_is_positive(self):
        assert default_shard_count() >= 1


def _square(v):
    return v * v


def _fail_on_three(v):
    if v == 3:
        raise ValueError(f"task {v} failed")
    return v


@pytest.mark.parametrize("make_executor", [
    SerialExecutor,
    lambda: ThreadedExecutor(max_workers=2),
], ids=["serial", "threaded"])
def test_first_failure_contract_across_all_tiers(make_executor):
    """Every tier raises the first failure and stays usable afterwards."""
    executor = make_executor()
    try:
        with pytest.raises(ValueError, match="task 3"):
            executor.map(_fail_on_three, range(6))
        assert executor.map(_square, range(5)) == [v * v for v in range(5)]
    finally:
        if hasattr(executor, "close"):
            executor.close()


class TestAutoResolution:
    """The auto path at 1, 2 and 8 cores (the ``cores`` fixture), whatever
    this host has."""

    def test_auto_rule_follows_the_core_count(self, cores):
        shards = default_shard_count()
        resolved = resolve_executor(None, shards)
        if cores == 1:
            assert shards == 1 and resolved.name == "serial"
        else:
            assert shards == cores and resolved.name == "threaded"
        assert resolve_executor("auto", shards).name == resolved.name
        # Explicit fan-out still needs a second core to go threaded.
        assert resolve_executor(None, 4).name == \
            ("serial" if cores == 1 else "threaded")
        with pytest.raises(ConfigurationError):
            resolve_executor("process", shards)
        with pytest.raises(ConfigurationError):
            MaxRSEngine(shard_executor="process")
        with MaxRSEngine() as engine:
            sharding = engine.stats()["sharding"]
        assert sharding["effective_shards"] == shards
        assert sharding["resolved_executor"] == resolved.name

    def test_default_engine_matches_one_shard(self, cores, boundary_hotspots):
        specs = [QuerySpec.maxrs(8.0, 8.0),
                 QuerySpec.maxrs(30.0, 30.0, error_bound=0.2),
                 QuerySpec.maxcrs(10.0),
                 QuerySpec.maxkrs(8.0, 8.0, 2)]
        with MaxRSEngine() as engine, MaxRSEngine(shards=1) as single:
            handle = engine.register_dataset(boundary_hotspots)
            reference = single.register_dataset(boundary_hotspots)
            grid = engine.grid_index(handle)
            if cores == 1:
                assert isinstance(grid, GridIndex)
            else:
                assert isinstance(grid, ShardedGridIndex)
                assert grid.executor_name == "threaded"
            for spec in specs:
                assert engine.query(handle, spec) == \
                    single.query(reference, spec), spec


class TestPlanTiles:
    def test_tiles_partition_the_grid(self):
        for shards, n_rows, n_cols in [(1, 5, 5), (4, 10, 10), (7, 9, 13),
                                       (6, 4, 9), (8, 3, 3)]:
            row_edges, col_edges = plan_tiles(shards, n_rows, n_cols)
            assert row_edges[0] == 0 and row_edges[-1] == n_rows
            assert col_edges[0] == 0 and col_edges[-1] == n_cols
            assert all(a < b for a, b in zip(row_edges, row_edges[1:]))
            assert all(a < b for a, b in zip(col_edges, col_edges[1:]))
            tiles = (len(row_edges) - 1) * (len(col_edges) - 1)
            assert 1 <= tiles <= shards

    def test_infeasible_counts_degrade_to_largest_feasible(self):
        # 7 shards over a 1 x 3 grid: at most 3 one-cell tiles exist.
        row_edges, col_edges = plan_tiles(7, 1, 3)
        assert (len(row_edges) - 1) * (len(col_edges) - 1) == 3

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_tiles(0, 4, 4)


# ---------------------------------------------------------------------- #
# Bit-identity against the monolithic index
# ---------------------------------------------------------------------- #
class TestIndexBitIdentity:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_all_query_surfaces_match_unsharded(self, boundary_hotspots,
                                                shards, executor):
        xs, ys, ws = _columns(boundary_hotspots)
        mono = GridIndex(xs, ys, ws)
        sharded = ShardedGridIndex(xs, ys, ws, shards=shards,
                                   executor=executor)
        assert (sharded.n_rows, sharded.n_cols) == (mono.n_rows, mono.n_cols)
        assert np.array_equal(sharded.cell_weights, mono.cell_weights)
        assert np.array_equal(sharded.cell_counts, mono.cell_counts)
        assert np.array_equal(sharded.point_cell, mono.point_cell)
        for width, height in [(8.0, 8.0), (3.0, 12.0), (55.0, 55.0),
                              (250.0, 250.0)]:
            bounds = mono.upper_bounds(width, height)
            assert np.array_equal(sharded.upper_bounds(width, height), bounds)
            assert sharded.best_cell(width, height) == \
                mono.best_cell(width, height, bounds)
            lower = float(bounds.max()) * 0.8
            mask = mono.candidate_mask(width, height, lower, bounds)
            assert np.array_equal(
                sharded.candidate_mask(width, height, lower), mask)
            dilated = mono.dilate(mask, width, height)
            assert np.array_equal(sharded.dilate(mask, width, height), dilated)
            assert np.array_equal(sharded.points_in_mask(dilated),
                                  mono.points_in_mask(dilated))
            row, col, _ = mono.best_cell(width, height, bounds)
            assert np.array_equal(
                sharded.points_in_window(row, col, width, height),
                mono.points_in_window(row, col, width, height))

    def test_shards_partition_the_points(self, boundary_hotspots):
        xs, ys, ws = _columns(boundary_hotspots)
        sharded = ShardedGridIndex(xs, ys, ws, shards=4, executor="serial")
        ids = np.concatenate([shard.point_ids for shard in sharded.shards])
        assert len(ids) == len(xs)
        assert np.array_equal(np.sort(ids), np.arange(len(xs)))

    def test_points_in_cell_matches_unsharded(self, boundary_hotspots):
        xs, ys, ws = _columns(boundary_hotspots)
        mono = GridIndex(xs, ys, ws)
        sharded = ShardedGridIndex(xs, ys, ws, shards=4, executor="serial")
        occupied = np.argwhere(mono.cell_counts > 0)
        for row, col in occupied[:: max(1, len(occupied) // 20)]:
            assert np.array_equal(sharded.points_in_cell(int(row), int(col)),
                                  mono.points_in_cell(int(row), int(col)))

    def test_index_stays_queryable_after_close(self, boundary_hotspots):
        xs, ys, ws = _columns(boundary_hotspots)
        mono = GridIndex(xs, ys, ws)
        index = ShardedGridIndex(xs, ys, ws, shards=4, executor="threaded")
        windows = index._window_sums(2, 2)
        index.close()
        index.close()  # idempotent
        assert index.executor_name == "serial"
        assert np.array_equal(index._window_sums(2, 2), windows)
        mask = mono.cell_weights > np.median(mono.cell_weights)
        assert np.array_equal(index.points_in_mask(mask),
                              mono.points_in_mask(mask))
        # An executor the caller passed in is theirs to close.
        shared = ThreadedExecutor(max_workers=2)
        borrowed = ShardedGridIndex(xs, ys, ws, shards=4, executor=shared)
        borrowed.close()
        assert borrowed.executor_name == "threaded"
        shared.close()

    def test_stats_report_shards_and_executor(self, boundary_hotspots):
        xs, ys, ws = _columns(boundary_hotspots)
        sharded = ShardedGridIndex(xs, ys, ws, shards=4, executor="threaded")
        stats = sharded.stats()
        assert stats["shard_count"] == 4
        assert stats["executor"] == "threaded"
        assert len(stats["shards"]) == 4
        assert sum(entry["points"] for entry in stats["shards"]) == len(xs)
        mono_stats = GridIndex(xs, ys, ws).stats()
        for key in ("rows", "cols", "points", "occupied_cells",
                    "max_points_per_cell"):
            assert stats[key] == mono_stats[key]

    def test_timing_hook_sees_every_shard(self, boundary_hotspots):
        xs, ys, ws = _columns(boundary_hotspots)
        seen = []
        sharded = ShardedGridIndex(
            xs, ys, ws, shards=4, executor="serial",
            timing_hook=lambda stage, shard, secs: seen.append((stage, shard)))
        assert sorted(seen) == [("shard_build", k) for k in range(4)]
        sharded.points_in_mask(np.ones((sharded.n_rows, sharded.n_cols),
                                       dtype=bool))
        assert sorted(s for s in seen if s[0] == "shard_gather") == \
            [("shard_gather", k) for k in range(4)]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    count=st.integers(min_value=1, max_value=120),
    shards=st.sampled_from(SHARD_COUNTS),
    width=st.floats(min_value=0.5, max_value=150.0),
    height=st.floats(min_value=0.5, max_value=150.0),
)
def test_property_refined_answers_are_bit_identical(seed, count, shards,
                                                    width, height):
    """Engine acceptance property: sharded == unsharded, bit for bit.

    Integer-valued weights keep every partial sum exactly representable, so
    equality of weights and regions is exact, not approximate.
    """
    rng = np.random.default_rng(seed)
    objects = [WeightedPoint(float(x), float(y), float(w)) for x, y, w in
               zip(rng.uniform(0.0, 100.0, count),
                   rng.uniform(0.0, 100.0, count),
                   rng.choice([1.0, 2.0, 3.0], count))]
    baseline = MaxRSEngine(shards=1)
    handle = baseline.register_dataset(objects)
    with MaxRSEngine(shards=shards, shard_executor="threaded") as engine:
        sharded_handle = engine.register_dataset(objects)

        maxrs = QuerySpec.maxrs(width, height)
        expected = baseline.query(handle, maxrs)
        got = engine.query(sharded_handle, maxrs)
        assert got.total_weight == expected.total_weight
        assert got.region == expected.region
        assert got.location == expected.location

        maxkrs = QuerySpec.maxkrs(width, height, 2)
        for got_k, expected_k in zip(engine.query(sharded_handle, maxkrs),
                                     baseline.query(handle, maxkrs)):
            assert got_k.total_weight == expected_k.total_weight
            assert got_k.region == expected_k.region

        maxcrs = QuerySpec.maxcrs(min(width, height))
        expected_c = baseline.query(handle, maxcrs)
        got_c = engine.query(sharded_handle, maxcrs)
        assert got_c.total_weight == expected_c.total_weight
        assert got_c.location == expected_c.location


# ---------------------------------------------------------------------- #
# Degenerate geometry (satellite): 1-shard and multi-shard
# ---------------------------------------------------------------------- #
def _indexes_for(objects, shards):
    xs, ys, ws = _columns(objects)
    if shards == 1:
        return GridIndex(xs, ys, ws), MaxRSEngine(shards=1)
    return (ShardedGridIndex(xs, ys, ws, shards=shards, executor="serial"),
            MaxRSEngine(shards=shards, shard_executor="serial"))


class TestDegenerateGeometry:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_single_point_dataset(self, shards):
        objects = [WeightedPoint(3.0, 4.0, 2.5)]
        index, engine = _indexes_for(objects, shards)
        assert (index.n_rows, index.n_cols) == (1, 1)
        assert index.upper_bounds(10.0, 10.0)[0, 0] == 2.5
        assert np.array_equal(
            index.points_in_mask(np.ones((1, 1), dtype=bool)), [0])
        handle = engine.register_dataset(objects)
        result = engine.query(handle, QuerySpec.maxrs(10.0, 10.0))
        assert result.total_weight == 2.5

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_collinear_points_collapse_one_axis(self, shards, axis):
        if axis == "x":
            objects = [WeightedPoint(7.0, float(i), 1.0) for i in range(30)]
        else:
            objects = [WeightedPoint(float(i), -2.0, 1.0) for i in range(30)]
        index, engine = _indexes_for(objects, shards)
        # The zero-extent axis collapses to one cell of nominal unit width.
        if axis == "x":
            assert index.n_cols == 1 and index.cell_w == 1.0
        else:
            assert index.n_rows == 1 and index.cell_h == 1.0
        bounds = index.upper_bounds(3.0, 3.0)
        assert bounds.shape == (index.n_rows, index.n_cols)
        assert float(bounds.max()) <= 30.0
        handle = engine.register_dataset(objects)
        result = engine.query(handle, QuerySpec.maxrs(3.0, 3.0))
        # 3 consecutive unit-spaced points fit a 3-extent window (the paper's
        # half-open boundary semantics exclude a 4th on the closing edge).
        assert result.total_weight == 3.0

    @pytest.mark.parametrize("shards", [1, 4])
    def test_query_window_larger_than_bounding_box(self, shards, make_objects):
        objects = make_objects(60, seed=9, extent=50.0)
        index, engine = _indexes_for(objects, shards)
        total = sum(o.weight for o in objects)
        bounds = index.upper_bounds(1e6, 1e6)
        # A window covering everything: every cell's bound is the total.
        assert np.allclose(bounds, total)
        mask = index.candidate_mask(1e6, 1e6, total, bounds)
        assert mask.all()
        assert len(index.points_in_mask(index.dilate(mask, 1e6, 1e6))) == \
            len(objects)
        handle = engine.register_dataset(objects)
        result = engine.query(handle, QuerySpec.maxrs(1e6, 1e6))
        assert result.total_weight == total

    def test_more_shards_than_cells_collapses(self):
        objects = [WeightedPoint(1.0, 1.0, 1.0), WeightedPoint(2.0, 2.0, 1.0)]
        xs, ys, ws = _columns(objects)
        sharded = ShardedGridIndex(xs, ys, ws, shards=16, executor="serial")
        assert sharded.shard_count <= sharded.n_rows * sharded.n_cols

    def test_invalid_shard_count_rejected(self, make_objects):
        xs, ys, ws = _columns(make_objects(10))
        with pytest.raises(ConfigurationError):
            ShardedGridIndex(xs, ys, ws, shards=0)
        with pytest.raises(ConfigurationError):
            MaxRSEngine(shards=0)

    def test_empty_dataset_rejected(self):
        empty = np.array([], dtype=np.float64)
        with pytest.raises(ConfigurationError):
            ShardedGridIndex(empty, empty, empty, shards=2)


# ---------------------------------------------------------------------- #
# Snapshot round trip
# ---------------------------------------------------------------------- #
class TestShardedSnapshots:
    def test_snapshot_roundtrip_is_bit_identical(self, boundary_hotspots):
        xs, ys, ws = _columns(boundary_hotspots)
        original = ShardedGridIndex(xs, ys, ws, shards=4, executor="serial")
        restored = ShardedGridIndex.from_snapshot(xs, ys, ws,
                                                  original.snapshot())
        assert restored.shard_count == original.shard_count
        assert np.array_equal(restored.cell_weights, original.cell_weights)
        assert np.array_equal(restored.cell_counts, original.cell_counts)
        bounds = original.upper_bounds(8.0, 8.0)
        assert np.array_equal(restored.upper_bounds(8.0, 8.0), bounds)

    def test_v1_single_grid_snapshot_adopted_as_one_shard(self, make_objects):
        xs, ys, ws = _columns(make_objects(80, seed=4))
        mono = GridIndex(xs, ys, ws)
        adopted = ShardedGridIndex.from_snapshot(xs, ys, ws, mono.snapshot())
        assert adopted.shard_count == 1
        assert np.array_equal(adopted.cell_weights, mono.cell_weights)

    def test_stale_shard_counts_rejected(self, make_objects):
        xs, ys, ws = _columns(make_objects(50, seed=2))
        snap = ShardedGridIndex(xs, ys, ws, shards=2,
                                executor="serial").snapshot()
        tampered = snap.shards[0].cell_counts.copy()
        tampered.ravel()[0] += 1
        bad = ShardedGridSnapshot(
            n_rows=snap.n_rows, n_cols=snap.n_cols, x0=snap.x0, y0=snap.y0,
            cell_w=snap.cell_w, cell_h=snap.cell_h,
            shards=(GridShardSnapshot(
                row0=snap.shards[0].row0, row1=snap.shards[0].row1,
                col0=snap.shards[0].col0, col1=snap.shards[0].col1,
                cell_weights=snap.shards[0].cell_weights,
                cell_counts=tampered),) + snap.shards[1:],
        )
        with pytest.raises(PersistError):
            ShardedGridIndex.from_snapshot(xs, ys, ws, bad)

    def test_non_tiling_shards_rejected(self, make_objects):
        xs, ys, ws = _columns(make_objects(50, seed=2))
        snap = ShardedGridIndex(xs, ys, ws, shards=2,
                                executor="serial").snapshot()
        overlapping = ShardedGridSnapshot(
            n_rows=snap.n_rows, n_cols=snap.n_cols, x0=snap.x0, y0=snap.y0,
            cell_w=snap.cell_w, cell_h=snap.cell_h,
            shards=(snap.shards[0], snap.shards[0]),
        )
        assert not overlapping.tiles_exactly()
        with pytest.raises(PersistError):
            ShardedGridIndex.from_snapshot(xs, ys, ws, overlapping)


class TestClosedEngineDegradesServing:
    def test_sharded_queries_survive_close(self, make_objects):
        """close()'s contract: shard fan-out degrades to the calling thread,
        it must never raise through a shut-down pool."""
        objects = make_objects(120, seed=41)
        engine = MaxRSEngine(shards=4, shard_executor="threaded")
        handle = engine.register_dataset(objects)
        spec = QuerySpec.maxrs(9.0, 9.0)
        before = engine.query(handle, spec)
        engine.close()
        engine.clear_cache()
        after = engine.query(handle, spec)  # full recompute, serial fan-out
        assert after.total_weight == before.total_weight
        assert after.region == before.region
        batch = engine.query_batch(handle, [spec, QuerySpec.maxrs(4.0, 4.0)])
        assert batch[0].total_weight == before.total_weight

    def test_misconfigured_executor_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            MaxRSEngine(shard_executor="treaded")
