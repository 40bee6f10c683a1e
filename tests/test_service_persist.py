"""Engine <-> snapshot-store integration (:mod:`repro.service` + :mod:`repro.persist`).

The serving contract across a restart: a ``MaxRSEngine(persist_dir=...)``
constructed over a previously written snapshot directory re-serves every
dataset with **bit-identical** refined answers, reports its snapshot I/O in
block transfers, and degrades gracefully (corrupt grid -> rebuild; corrupt
points -> dataset skipped and reported, never silently wrong).
"""

import math
from dataclasses import replace

import pytest

pytest.importorskip("numpy")

import numpy as np

from repro.core.plane_sweep import solve_in_memory
from repro.errors import ServiceError
from repro.geometry import WeightedPoint
from repro.persist import open_catalog
from repro.service import GridIndex, MaxRSEngine, QuerySpec


def _dataset(count=400, seed=5):
    rng = np.random.default_rng(seed)
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(rng.uniform(0, 100, count),
                               rng.uniform(0, 100, count),
                               rng.choice([1.0, 2.0, 3.0], count))]


@pytest.fixture
def objects():
    return _dataset()


class TestWriteThrough:
    def test_register_persists_by_default(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(objects, name="ds")
        catalog = open_catalog(tmp_path)
        assert "ds" in catalog
        assert catalog.get("ds").count == len(objects)
        assert catalog.get("ds").grid is not None
        assert engine.stats()["persist"]["io"]["block_writes"] > 0

    def test_persist_false_keeps_dataset_memory_only(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(objects, name="ds", persist=False)
        assert "ds" not in open_catalog(tmp_path)

    def test_persist_true_without_dir_rejected(self, objects):
        with pytest.raises(ServiceError, match="persist_dir"):
            MaxRSEngine().register_dataset(objects, persist=True)

    def test_reregistering_same_data_saves_once(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(objects, name="ds")
        writes = engine.stats()["persist"]["io"]["block_writes"]
        engine.register_dataset(objects, name="ds")
        assert engine.stats()["persist"]["io"]["block_writes"] == writes

    def test_persist_grid_false_omits_grid_blob(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path, persist_grid=False)
        engine.register_dataset(objects, name="ds")
        assert open_catalog(tmp_path).get("ds").grid is None

    def test_grid_can_be_added_to_an_existing_snapshot(self, tmp_path, objects):
        """A later persist_grid=True engine upgrades a grid-less snapshot."""
        MaxRSEngine(persist_dir=tmp_path,
                    persist_grid=False).register_dataset(objects, name="ds")
        MaxRSEngine(persist_dir=tmp_path,
                    persist_grid=True).register_dataset(objects, name="ds")
        assert open_catalog(tmp_path).get("ds").grid is not None


class TestWarmStart:
    def test_restart_serves_bit_identical_refined_answers(self, tmp_path, objects):
        specs = [QuerySpec.maxrs(7.0, 7.0), QuerySpec.maxrs(3.0, 12.0),
                 QuerySpec.maxkrs(9.0, 9.0, 2)]
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        before = [day1.query("ds", spec) for spec in specs]

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()["persist"]
        assert stats["datasets_restored"] == 1
        assert stats["grids_restored"] == 1
        assert stats["restore_errors"] == {}
        assert stats["io"]["block_reads"] > 0
        after = [day2.query("ds", spec) for spec in specs]

        for a, b in zip(before[:2], after[:2]):
            assert a.total_weight == b.total_weight
            assert a.region == b.region
        assert [r.total_weight for r in before[2]] == \
               [r.total_weight for r in after[2]]
        # And both agree with the ground-truth full in-memory solve.
        truth = solve_in_memory(objects, 7.0, 7.0)
        assert after[0].total_weight == truth.total_weight
        assert after[0].region == truth.region

    def test_restored_dataset_sweeps_its_columns(self, tmp_path, objects):
        """A warm-started (column-registered) dataset answers exact and
        bounded MaxRS -- pruned and unpruned refines -- bit-identical to the
        in-memory solve, without ever building its point objects."""
        # A hot spot, so that small windows prune the rest away.
        objects = objects + [WeightedPoint(50.0 + i % 7 / 4, 50.0 + i % 5 / 4)
                             for i in range(200)]
        MaxRSEngine(persist_dir=tmp_path).register_dataset(objects, name="ds")
        day2 = MaxRSEngine(persist_dir=tmp_path)
        for width, height in ((4.0, 4.0), (90.0, 80.0)):
            truth = solve_in_memory(objects, width, height)
            assert day2.query("ds", QuerySpec.maxrs(width, height)) == truth
            bounded = day2.query("ds", QuerySpec.maxrs(width, height,
                                                       error_bound=1e-9))
            if not bounded.cost["descent"]["certified"]:
                assert replace(bounded, gap=None) == truth
            assert bounded.total_weight * (1 + bounded.gap) \
                >= truth.total_weight
        assert day2.metrics.counter("refine_pruned") >= 1
        assert day2.metrics.counter("refine_unpruned") >= 1
        assert day2.metrics.counter("descent_stop_exact") >= 1
        assert day2.store.get("ds")._objects is None  # still lazy

    def test_restored_grid_is_the_persisted_one(self, tmp_path, objects):
        day1 = MaxRSEngine(persist_dir=tmp_path, target_points_per_cell=4)
        day1.register_dataset(objects, name="ds")
        old = day1.grid_index("ds")
        # The restarted engine is configured differently; it must still adopt
        # the *persisted* resolution, not re-derive one.
        day2 = MaxRSEngine(persist_dir=tmp_path, target_points_per_cell=1)
        new = day2.grid_index("ds")
        assert (new.n_rows, new.n_cols) == (old.n_rows, old.n_cols)
        assert np.array_equal(new.cell_weights, old.cell_weights)
        assert np.array_equal(new.cell_counts, old.cell_counts)

    def test_checkpointed_results_become_cache_hits(self, tmp_path, objects):
        spec = QuerySpec.maxrs(6.0, 6.0)
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        answer = day1.query("ds", spec)
        day1.checkpoint()

        day2 = MaxRSEngine(persist_dir=tmp_path)
        assert day2.stats()["persist"]["results_restored"] == 1
        restored = day2.query("ds", spec)
        assert day2.stats()["cache"]["hits"] == 1
        assert restored.total_weight == answer.total_weight
        assert restored.region == answer.region
        assert restored.location == answer.location

    def test_checkpoint_without_dir_rejected(self, objects):
        with pytest.raises(ServiceError, match="persist_dir"):
            MaxRSEngine().checkpoint()

    def test_checkpoint_merges_instead_of_clobbering(self, tmp_path, objects):
        """Evicted-but-valid durable results survive a later checkpoint."""
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        day1.query("ds", QuerySpec.maxrs(6.0, 6.0))
        day1.checkpoint()
        # The cached answer is gone (as under LRU pressure), a new one
        # arrives, and the engine checkpoints again.
        day1.clear_cache()
        day1.query("ds", QuerySpec.maxrs(3.0, 11.0))
        day1.checkpoint()

        day2 = MaxRSEngine(persist_dir=tmp_path)
        assert day2.stats()["persist"]["results_restored"] == 2
        day2.query("ds", QuerySpec.maxrs(6.0, 6.0))
        day2.query("ds", QuerySpec.maxrs(3.0, 11.0))
        assert day2.stats()["cache"]["hits"] == 2

    def test_idle_checkpoint_rewrites_nothing(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(objects, name="ds")
        engine.query("ds", QuerySpec.maxrs(6.0, 6.0))
        engine.checkpoint()
        catalog_mtime = (tmp_path / "catalog.json").stat().st_mtime_ns
        engine.checkpoint()  # nothing changed since the last one
        assert (tmp_path / "catalog.json").stat().st_mtime_ns == catalog_mtime

    def test_empty_dataset_round_trips(self, tmp_path):
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset([], name="empty")
        day2 = MaxRSEngine(persist_dir=tmp_path)
        result = day2.query("empty", QuerySpec.maxrs(2.0, 2.0))
        assert result.total_weight == 0.0


class TestDegradation:
    def test_corrupt_points_blob_skips_dataset_and_reports(self, tmp_path, objects):
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        blob = tmp_path / open_catalog(tmp_path).get("ds").points_file
        raw = bytearray(blob.read_bytes())
        raw[-3] ^= 0xFF
        blob.write_bytes(bytes(raw))

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()["persist"]
        assert stats["datasets_restored"] == 0
        assert "ds" in stats["restore_errors"]
        with pytest.raises(ServiceError, match="unknown dataset"):
            day2.query("ds", QuerySpec.maxrs(2.0, 2.0))

    def test_corrupt_grid_blob_falls_back_to_rebuild(self, tmp_path, objects):
        day1 = MaxRSEngine(persist_dir=tmp_path, shards=1)
        day1.register_dataset(objects, name="ds")
        truth = day1.query("ds", QuerySpec.maxrs(8.0, 8.0))
        blob = tmp_path / open_catalog(tmp_path).get("ds").grid.file
        raw = bytearray(blob.read_bytes())
        raw[-3] ^= 0xFF
        blob.write_bytes(bytes(raw))

        day2 = MaxRSEngine(persist_dir=tmp_path, shards=1)
        stats = day2.stats()["persist"]
        assert stats["datasets_restored"] == 1
        assert stats["grids_restored"] == 0
        assert day2.grid_index("ds") is not None  # rebuilt in memory
        result = day2.query("ds", QuerySpec.maxrs(8.0, 8.0))
        assert result.total_weight == truth.total_weight
        assert result.region == truth.region
        # ... and the rebuild self-healed the durable copy: the next restart
        # restores the grid from disk again.
        assert day2.metrics.counter("grids_repaired") == 1
        day3 = MaxRSEngine(persist_dir=tmp_path, shards=1)
        assert day3.stats()["persist"]["grids_restored"] == 1

    def test_stale_grid_aggregates_rejected_by_cross_check(self, objects):
        """from_snapshot must refuse aggregates that disagree with the points."""
        from repro.errors import PersistError

        entry_xs = np.array([o.x for o in objects])
        entry_ys = np.array([o.y for o in objects])
        entry_ws = np.array([o.weight for o in objects])
        grid = GridIndex(entry_xs, entry_ys, entry_ws)
        snap = grid.snapshot()
        tampered = snap.cell_counts.copy()
        tampered[0, 0] += 1
        bad = type(snap)(
            n_rows=snap.n_rows, n_cols=snap.n_cols, x0=snap.x0, y0=snap.y0,
            cell_w=snap.cell_w, cell_h=snap.cell_h,
            cell_weights=snap.cell_weights, cell_counts=tampered,
        )
        with pytest.raises(PersistError, match="disagree"):
            GridIndex.from_snapshot(entry_xs, entry_ys, entry_ws, bad)

    def test_faithful_snapshot_passes_cross_check(self, objects):
        entry_xs = np.array([o.x for o in objects])
        entry_ys = np.array([o.y for o in objects])
        entry_ws = np.array([o.weight for o in objects])
        grid = GridIndex(entry_xs, entry_ys, entry_ws)
        rebuilt = GridIndex.from_snapshot(entry_xs, entry_ys, entry_ws,
                                          grid.snapshot())
        bounds_a = grid.upper_bounds(5.0, 5.0)
        bounds_b = rebuilt.upper_bounds(5.0, 5.0)
        assert np.array_equal(bounds_a, bounds_b)


class TestLifecycle:
    def test_unregister_drops_snapshot(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(objects, name="ds")
        engine.unregister_dataset("ds")
        assert "ds" not in open_catalog(tmp_path)
        assert MaxRSEngine(persist_dir=tmp_path).stats()["datasets"] == 0

    def test_unregister_keep_snapshot(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(objects, name="ds")
        engine.unregister_dataset("ds", keep_snapshot=True)
        assert "ds" in open_catalog(tmp_path)
        revived = MaxRSEngine(persist_dir=tmp_path)
        assert revived.stats()["persist"]["datasets_restored"] == 1

    def test_replace_updates_snapshot(self, tmp_path, objects):
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(objects, name="ds")
        old_fp = open_catalog(tmp_path).get("ds").fingerprint
        other = _dataset(seed=99)
        engine.register_dataset(other, name="ds", replace=True)
        manifest = open_catalog(tmp_path).get("ds")
        assert manifest.fingerprint != old_fp
        assert manifest.count == len(other)


class TestShardedPersistence:
    """Snapshot format v2: one grid blob per shard, restored in parallel."""

    def test_sharded_write_through_and_warm_start(self, tmp_path, objects):
        spec = QuerySpec.maxrs(7.0, 5.0)
        day1 = MaxRSEngine(shards=4, shard_executor="threaded",
                           persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        before = day1.query("ds", spec)
        day1.close()
        manifest = open_catalog(tmp_path).get("ds")
        assert manifest.grid is not None
        assert manifest.grid.shards is not None
        assert len(manifest.grid.shards) == 4
        # One blob per shard, plus one per pyramid level (format v3).
        assert len(manifest.grid.files()) == 4 + len(manifest.grid.levels or ())

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()["persist"]
        assert stats["restore_errors"] == {}
        assert stats["grids_restored"] == 1
        assert stats["io"]["block_reads"] > 0  # blobs flowed through repro.em
        restored = day2.grid_index("ds")
        assert restored.shard_count == 4
        after = day2.query("ds", spec)
        assert after.total_weight == before.total_weight
        assert after.region == before.region

    def test_sharded_restore_matches_unsharded_restore(self, tmp_path, objects):
        spec = QuerySpec.maxrs(6.0, 6.0)
        mono_dir, shard_dir = tmp_path / "mono", tmp_path / "sharded"
        MaxRSEngine(shards=1, persist_dir=mono_dir) \
            .register_dataset(objects, name="ds")
        MaxRSEngine(shards=4, persist_dir=shard_dir) \
            .register_dataset(objects, name="ds")
        mono = MaxRSEngine(persist_dir=mono_dir).query("ds", spec)
        sharded = MaxRSEngine(persist_dir=shard_dir).query("ds", spec)
        assert sharded.total_weight == mono.total_weight
        assert sharded.region == mono.region

    def test_v1_catalog_still_restores(self, tmp_path, objects):
        """A pre-sharding store (format_version 1) must keep working."""
        import json

        spec = QuerySpec.maxrs(7.0, 5.0)
        writer = MaxRSEngine(shards=1, persist_dir=tmp_path)
        writer.register_dataset(objects, name="ds")
        before = writer.query("ds", spec)
        catalog_path = tmp_path / "catalog.json"
        document = json.loads(catalog_path.read_text())
        assert document["datasets"]["ds"]["grid"].get("shards") is None
        document["format_version"] = 1
        catalog_path.write_text(json.dumps(document))

        reader = MaxRSEngine(shards=4, persist_dir=tmp_path)
        assert reader.stats()["persist"]["restore_errors"] == {}
        # The v1 single-grid snapshot is adopted as a 1-shard index even
        # though this engine is configured for 4 shards.
        assert isinstance(reader.grid_index("ds"), GridIndex)
        after = reader.query("ds", spec)
        assert after.total_weight == before.total_weight
        assert after.region == before.region

    def test_corrupt_shard_blob_falls_back_to_rebuild(self, tmp_path, objects):
        spec = QuerySpec.maxrs(7.0, 5.0)
        day1 = MaxRSEngine(shards=2, persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        before = day1.query("ds", spec)
        blob = sorted(tmp_path.glob("*-r*.grid"))[0]
        raw = bytearray(blob.read_bytes())
        raw[80] ^= 0xFF
        blob.write_bytes(bytes(raw))

        day2 = MaxRSEngine(shards=2, persist_dir=tmp_path)
        stats = day2.stats()
        assert stats["persist"]["restore_errors"] == {}  # dataset survived
        assert stats["counters"]["grid_restore_failures"] == 1
        assert stats["counters"]["grids_repaired"] == 1
        after = day2.query("ds", spec)
        assert after.total_weight == before.total_weight
        assert after.region == before.region

    def test_restore_adopts_persisted_layout_over_configuration(
            self, tmp_path, objects):
        """Like the resolution, the persisted *layout* wins on warm start:
        a 4-shard engine restoring a v1 store serves the 1-shard index it
        saved (bit-identical bounds), not a repartitioned one."""
        MaxRSEngine(shards=1, persist_dir=tmp_path) \
            .register_dataset(objects, name="ds")
        reader = MaxRSEngine(shards=4, persist_dir=tmp_path)
        assert isinstance(reader.grid_index("ds"), GridIndex)
        # Re-registering identical bytes is a no-op: the adopted layout (and
        # its snapshot) stays.
        reader.register_dataset(objects, name="ds")
        assert open_catalog(tmp_path).get("ds").grid.shards is None

    def test_rebuilt_grid_refreshes_snapshot_layout(self, tmp_path, objects):
        MaxRSEngine(shards=1, persist_dir=tmp_path) \
            .register_dataset(objects, name="ds")
        assert open_catalog(tmp_path).get("ds").grid.shards is None
        # Dropping the resident index (snapshot kept) forces the next
        # registration to rebuild under the configured sharding; the
        # write-through must then refresh the durable grid so a restart
        # adopts the partitioning this engine actually serves with.
        engine = MaxRSEngine(shards=4, persist_dir=tmp_path)
        engine.unregister_dataset("ds", keep_snapshot=True)
        engine.register_dataset(objects, name="ds")
        manifest = open_catalog(tmp_path).get("ds")
        assert manifest.grid.shards is not None
        assert len(manifest.grid.shards) == 4

    def test_catalog_version_is_lowest_expressible(self, tmp_path, objects):
        """Flat unsharded stores stay version 1 (rollback-safe), flat
        sharded ones version 2; only catalogs actually holding pyramid
        level blobs are stamped version 3."""
        import json

        MaxRSEngine(shards=1, pyramid_levels=1,
                    persist_dir=tmp_path / "mono") \
            .register_dataset(objects, name="ds")
        mono = json.loads((tmp_path / "mono" / "catalog.json").read_text())
        assert mono["format_version"] == 1
        MaxRSEngine(shards=4, pyramid_levels=1,
                    persist_dir=tmp_path / "sharded") \
            .register_dataset(objects, name="ds")
        sharded = json.loads(
            (tmp_path / "sharded" / "catalog.json").read_text())
        assert sharded["format_version"] == 2
        MaxRSEngine(shards=1, persist_dir=tmp_path / "pyramid") \
            .register_dataset(objects, name="ds")
        pyramid = json.loads(
            (tmp_path / "pyramid" / "catalog.json").read_text())
        assert pyramid["format_version"] == 3

    def test_rebuilt_grid_refreshes_snapshot_resolution(self, tmp_path,
                                                        objects):
        """Same shard count, different resolution: the layout check must
        see through it and refresh the durable grid."""
        MaxRSEngine(shards=4, persist_dir=tmp_path) \
            .register_dataset(objects, name="ds")
        before = open_catalog(tmp_path).get("ds").grid
        engine = MaxRSEngine(shards=4, target_points_per_cell=4,
                             persist_dir=tmp_path)
        engine.unregister_dataset("ds", keep_snapshot=True)
        engine.register_dataset(objects, name="ds")
        after = open_catalog(tmp_path).get("ds").grid
        assert (after.n_rows, after.n_cols) != (before.n_rows, before.n_cols)
        served = engine.grid_index("ds")
        assert (after.n_rows, after.n_cols) == (served.n_rows, served.n_cols)

    def test_collapsed_sharding_keeps_v1_layout(self, tmp_path):
        """A grid too small to tile (single point) must not stamp the
        catalog v2: a multi-shard engine falls back to the plain index."""
        import json

        from repro.service import GridIndex as PlainGridIndex

        engine = MaxRSEngine(shards=4, persist_dir=tmp_path)
        engine.register_dataset([WeightedPoint(1.0, 2.0, 3.0)], name="one")
        assert isinstance(engine.grid_index("one"), PlainGridIndex)
        document = json.loads((tmp_path / "catalog.json").read_text())
        assert document["format_version"] == 1
        assert open_catalog(tmp_path).get("one").grid.shards is None
