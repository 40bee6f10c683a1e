"""Engine <-> snapshot-store integration (:mod:`repro.service` + :mod:`repro.persist`).

The serving contract across a restart: a ``MaxRSEngine(persist_dir=...)``
constructed over a previously written snapshot directory re-serves every
dataset with **bit-identical** refined answers, reports its snapshot I/O in
block transfers, and degrades gracefully (corrupt results -> recomputed;
corrupt points -> dataset skipped and reported, never silently wrong).
Grids are never persisted: a restart builds each one from the verified
points, and the grid blobs that catalogs of earlier builds list are ignored,
then deleted by the store's next write.
"""

import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import numpy as np

from repro.core.plane_sweep import solve_in_memory
from repro.errors import ServiceError
from repro.geometry import WeightedPoint
from repro.persist import SnapshotStore, open_catalog
from repro.service import MaxRSEngine, QuerySpec

#: A catalog written by an earlier build with ``MaxRSEngine(shards=2)``; see
#: the README in that directory for how it was made.
LEGACY_CATALOG = Path(__file__).parent / "data" / "legacy_sharded_catalog"


def _points_blocks(count):
    """Blocks of a points blob with the default 4 KB blocks: three float64
    columns, 512 values a block."""
    return math.ceil(3 * count / 512)


def _flip_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0xFF
    path.write_bytes(bytes(raw))


def _name_legacy_grid(persist_dir, grid, *, version):
    """Make ``ds``'s catalog entry look like one of an earlier build: add
    the ``grid`` object that build wrote, and stamp its format version."""
    path = persist_dir / "catalog.json"
    document = json.loads(path.read_text())
    document["datasets"]["ds"]["grid"] = grid
    document["format_version"] = version
    path.write_text(json.dumps(document))


def _v1_grid(persist_dir, *, corrupt=False):
    """A version-1 single-blob ``grid`` object for ``ds``, with its blob on
    disk (a copy of the points blob: this build never reads it)."""
    points = persist_dir / open_catalog(persist_dir).get("ds").points_file
    blob = persist_dir / f"{points.stem}-20x20.grid"
    blob.write_bytes(points.read_bytes())
    if corrupt:
        _flip_byte(blob)
    return {"file": blob.name, "n_rows": 20, "n_cols": 20, "x0": 0.0,
            "y0": 0.0, "cell_w": 5.0, "cell_h": 5.0}


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
        entry = json.loads((tmp_path / "catalog.json").read_text())[
            "datasets"]["ds"]
        assert "grid" not in entry  # grids are rebuilt, never persisted
        assert engine.stats()["persist"]["io"]["block_writes"] > 0

    def test_snapshot_io_is_the_points_blob(self, tmp_path, objects):
        """A save and a restore each move exactly the points blob's blocks,
        plus the results blob once there is one."""
        blocks = _points_blocks(len(objects))
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        assert day1.stats()["persist"]["io"]["block_writes"] == blocks
        assert MaxRSEngine(persist_dir=tmp_path) \
            .stats()["persist"]["io"]["block_reads"] == blocks
        day1.query("ds", QuerySpec.maxrs(6.0, 6.0))
        day1.checkpoint()  # one 104-byte result record: one more block
        assert day1.stats()["persist"]["io"]["block_writes"] == blocks + 1
        assert sorted(path.suffix for path in tmp_path.iterdir()) == \
            [".json", ".points", ".results"]
        day2 = MaxRSEngine(persist_dir=tmp_path)
        assert day2.stats()["persist"]["io"]["block_reads"] == blocks + 1

    def test_same_data_under_a_second_name_writes_no_points(self, tmp_path):
        """The second name shares the first one's points blob, which
        outlives the first name's snapshot."""
        points = _dataset(count=20_000, seed=7)
        engine = MaxRSEngine(persist_dir=tmp_path)
        engine.register_dataset(points, name="a")
        writes = engine.stats()["persist"]["io"]["block_writes"]
        assert writes == _points_blocks(len(points)) == 118
        engine.register_dataset(points, name="b")
        assert engine.stats()["persist"]["io"]["block_writes"] == writes
        blob = open_catalog(tmp_path).get("b").points_file
        assert open_catalog(tmp_path).get("a").points_file == blob
        engine.unregister_dataset("a")
        assert "a" not in open_catalog(tmp_path)
        assert (tmp_path / blob).exists()

        revived = MaxRSEngine(persist_dir=tmp_path)
        assert revived.stats()["persist"]["datasets_restored"] == 1
        spec = QuerySpec.maxrs(3.0, 3.0)
        assert revived.query("b", spec) == engine.query("b", spec)

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

    def test_restart_indexes_at_its_own_resolution(self, tmp_path, objects):
        """A restarted engine builds each grid with its own configuration,
        exactly as registering the data with it would; exact answers do not
        depend on the resolution."""
        day1 = MaxRSEngine(persist_dir=tmp_path, target_points_per_cell=4)
        day1.register_dataset(objects, name="ds")
        old = day1.grid_index("ds")
        day2 = MaxRSEngine(persist_dir=tmp_path, target_points_per_cell=1)
        new = day2.grid_index("ds")
        fresh = MaxRSEngine(target_points_per_cell=1)
        fresh.register_dataset(objects, name="ds")
        want = fresh.grid_index("ds")
        assert (new.n_rows, new.n_cols) != (old.n_rows, old.n_cols)
        assert (new.n_rows, new.n_cols) == (want.n_rows, want.n_cols)
        assert np.array_equal(new.cell_weights, want.cell_weights)
        assert np.array_equal(new.cell_counts, want.cell_counts)
        for width, height in ((7.0, 7.0), (3.0, 12.0), (40.0, 30.0)):
            truth = solve_in_memory(objects, width, height)
            answer = day2.query("ds", QuerySpec.maxrs(width, height))
            assert answer.total_weight == truth.total_weight
            assert answer.region == truth.region

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

    def test_idle_checkpoint_reads_nothing(self, tmp_path, objects):
        """A checkpoint with no answer new since the last save or restore
        moves no block, before a restart and after it."""
        engine = MaxRSEngine(persist_dir=tmp_path)
        for name, points in (("a", objects), ("b", objects[:200])):
            engine.register_dataset(points, name=name)
            engine.query(name, QuerySpec.maxrs(6.0, 6.0))
        engine.checkpoint()
        io = dict(engine.stats()["persist"]["io"])
        engine.checkpoint()
        assert engine.stats()["persist"]["io"] == io

        day2 = MaxRSEngine(persist_dir=tmp_path)
        assert day2.stats()["persist"]["results_restored"] == 2
        io = dict(day2.stats()["persist"]["io"])
        day2.checkpoint()
        assert day2.stats()["persist"]["io"] == io
        # A new answer is merged with the saved one, as before.
        day2.query("a", QuerySpec.maxrs(3.0, 11.0))
        day2.checkpoint()
        assert day2.stats()["persist"]["io"]["block_reads"] > \
            io["block_reads"]
        assert MaxRSEngine(persist_dir=tmp_path).stats()["persist"][
            "results_restored"] == 3

    def test_restore_hashes_each_dataset_once(self, tmp_path, objects,
                                              monkeypatch):
        """The snapshot store verifies the fingerprint; the point store
        takes the verified columns over without hashing them again."""
        import repro.persist.format as persist_format
        import repro.persist.store as persist_store
        import repro.service.store as service_store

        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="a")
        day1.register_dataset(objects[:100], name="b")
        truth = day1.query("a", QuerySpec.maxrs(8.0, 8.0))
        hashed = []

        def counting(xs, ys, ws):
            hashed.append(len(xs))
            return persist_format.fingerprint_columns(xs, ys, ws)

        for module in (persist_store, service_store):
            monkeypatch.setattr(module, "fingerprint_columns", counting)
        day2 = MaxRSEngine(persist_dir=tmp_path)
        assert day2.stats()["persist"]["datasets_restored"] == 2
        assert sorted(hashed) == [100, len(objects)]
        assert day2.query("a", QuerySpec.maxrs(8.0, 8.0)) == truth
        assert {day2.store.get(name).handle.fingerprint for name in "ab"} == \
            {day1.store.get(name).handle.fingerprint for name in "ab"}

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

    def test_negative_weight_snapshot_is_a_restore_error(self, tmp_path):
        """The grid's window sums bound a placement only for non-negative
        weights, so a snapshot holding a negative one is not served."""
        xs = np.array([1.0, 2.0, 3.0])
        SnapshotStore(tmp_path).save_dataset("ds", xs, xs,
                                             np.array([1.0, -5.0, 2.0]))
        engine = MaxRSEngine(persist_dir=tmp_path)
        stats = engine.stats()["persist"]
        assert stats["datasets_restored"] == 0
        assert "non-negative" in stats["restore_errors"]["ds"]
        assert "ds" not in engine.store

    def test_corrupt_grid_blob_falls_back_to_rebuild(self, tmp_path,
                                                     objects):
        """A grid blob that an earlier build's catalog lists is never read,
        so a corrupt one costs nothing: the grid is built from the points."""
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        truth = day1.query("ds", QuerySpec.maxrs(8.0, 8.0))
        _name_legacy_grid(tmp_path, _v1_grid(tmp_path, corrupt=True),
                          version=1)

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()["persist"]
        assert stats["datasets_restored"] == 1
        assert stats["restore_errors"] == {}
        built, rebuilt = day1.grid_index("ds"), day2.grid_index("ds")
        assert (rebuilt.n_rows, rebuilt.n_cols) == (built.n_rows, built.n_cols)
        assert np.array_equal(rebuilt.cell_weights, built.cell_weights)
        result = day2.query("ds", QuerySpec.maxrs(8.0, 8.0))
        assert result.total_weight == truth.total_weight
        assert result.region == truth.region

    def test_failed_restore_is_saved_again_on_reregistration(self, tmp_path,
                                                             objects):
        """Registering a dataset whose snapshot failed to restore writes it
        again, though the catalog still holds its fingerprint."""
        MaxRSEngine(persist_dir=tmp_path).register_dataset(objects, name="ds")
        _flip_byte(tmp_path / open_catalog(tmp_path).get("ds").points_file)

        day2 = MaxRSEngine(persist_dir=tmp_path)
        assert list(day2.stats()["persist"]["restore_errors"]) == ["ds"]
        before = day2.stats()["persist"]["io"]["block_writes"]
        day2.register_dataset(objects, name="ds")
        after = day2.stats()["persist"]["io"]["block_writes"]
        assert after - before == _points_blocks(len(objects)) > 0
        assert day2.stats()["persist"]["restore_errors"] == {}
        day2.register_dataset(objects, name="ds")  # saved once, not twice
        assert day2.stats()["persist"]["io"]["block_writes"] == after

        day3 = MaxRSEngine(persist_dir=tmp_path)
        stats = day3.stats()["persist"]
        assert stats["restore_errors"] == {}
        assert stats["datasets_restored"] == 1
        truth = solve_in_memory(objects, 8.0, 8.0)
        answer = day3.query("ds", QuerySpec.maxrs(8.0, 8.0))
        assert answer.total_weight == truth.total_weight
        assert answer.region == truth.region

    def test_corrupt_results_blob_falls_back_to_recompute(self, tmp_path,
                                                          objects):
        """A corrupt results blob loses the warm cache, never the dataset;
        the next checkpoint writes it again."""
        spec = QuerySpec.maxrs(6.0, 6.0)
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        answer = day1.query("ds", spec)
        day1.checkpoint()
        _flip_byte(tmp_path / open_catalog(tmp_path).get("ds").results_file)

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()
        assert stats["persist"]["datasets_restored"] == 1
        assert list(stats["persist"]["restore_errors"]) == ["ds:results"]
        assert stats["counters"]["result_restore_failures"] == 1
        missed = day2.query("ds", spec)
        assert missed.cost["cache"] == "miss"
        assert missed.total_weight == answer.total_weight
        assert missed.region == answer.region
        assert missed.location == answer.location
        day2.checkpoint()

        day3 = MaxRSEngine(persist_dir=tmp_path)
        assert day3.stats()["persist"]["restore_errors"] == {}
        hit = day3.query("ds", spec)
        assert hit.cost["cache"] == "hit"
        assert hit.total_weight == answer.total_weight
        assert hit.region == answer.region

    def test_result_record_with_an_invalid_size_is_a_results_error(
            self, tmp_path, objects):
        """A results record whose query size is not a positive finite
        number cannot key the cache: it costs the warm cache, never the
        dataset or the engine."""
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        day1.persist.save_results("ds", [(float("nan"),) + (1.0,) * 12])

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()
        assert stats["persist"]["datasets_restored"] == 1
        assert list(stats["persist"]["restore_errors"]) == ["ds:results"]
        answer = day2.query("ds", QuerySpec.maxrs(6.0, 6.0))
        assert answer.cost["cache"] == "miss"
        assert answer == solve_in_memory(objects, 6.0, 6.0)


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
    """Catalogs written by earlier builds, whose entries list grid blobs
    (``tests/data/legacy_sharded_catalog``: format version 3, a grid saved
    as one blob per shard plus three level blobs of the grid pyramid that
    earlier builds kept).

    This build never reads those blobs: a restore builds each grid from the
    fingerprint-verified points and writes nothing, and the store's next
    catalog write drops the ``grid`` object and deletes the blobs.
    """

    @pytest.fixture
    def legacy_dir(self, tmp_path):
        target = tmp_path / "legacy"
        shutil.copytree(LEGACY_CATALOG, target)
        return target

    def test_sharded_restore_matches_unsharded_restore(self, legacy_dir):
        catalog = (legacy_dir / "catalog.json").read_bytes()
        grid_blobs = sorted(legacy_dir.glob("*.grid"))
        assert len(grid_blobs) == 5

        restored = MaxRSEngine(persist_dir=legacy_dir)
        assert restored.stats()["persist"]["restore_errors"] == {}
        # The restore itself wrote and deleted nothing...
        assert (legacy_dir / "catalog.json").read_bytes() == catalog
        assert sorted(legacy_dir.glob("*.grid")) == grid_blobs
        # ...the checkpointed answer is still a cache hit...
        hit = restored.query("ds", QuerySpec.maxrs(7.0, 5.0))
        assert hit.cost["cache"] == "hit"
        # ...and the grid and every refined answer are a fresh engine's on
        # the same points.
        objects = SnapshotStore(legacy_dir).load_dataset("ds").objects()
        fresh = MaxRSEngine()
        handle = fresh.register_dataset(objects)
        grid, want = restored.grid_index("ds"), fresh.grid_index(handle)
        assert np.array_equal(grid.cell_weights, want.cell_weights)
        for spec in (QuerySpec.maxrs(7.0, 5.0), QuerySpec.maxrs(12.0, 3.0),
                     QuerySpec.maxcrs(9.0)):
            got, want = restored.query("ds", spec), fresh.query(handle, spec)
            assert got.total_weight == want.total_weight, spec
            assert got.location == want.location, spec
            if spec.kind == "maxrs":
                assert got.region == want.region, spec

    def test_rebuilt_grid_refreshes_snapshot_layout(self, legacy_dir):
        """The store's next write (here a checkpoint) drops the grid object
        and deletes the shard and level blobs; results survive."""
        day1 = MaxRSEngine(persist_dir=legacy_dir)
        day1.query("ds", QuerySpec.maxrs(12.0, 3.0))
        day1.checkpoint()
        document = json.loads((legacy_dir / "catalog.json").read_text())
        assert document["format_version"] == 1
        assert "grid" not in document["datasets"]["ds"]
        assert not sorted(legacy_dir.glob("*.grid"))

        day2 = MaxRSEngine(persist_dir=legacy_dir)
        stats = day2.stats()["persist"]
        assert stats["restore_errors"] == {}
        assert stats["results_restored"] == 2
        for spec in (QuerySpec.maxrs(7.0, 5.0), QuerySpec.maxrs(12.0, 3.0)):
            assert day2.query("ds", spec).cost["cache"] == "hit"

    def test_grid_less_rewrite_keeps_the_legacy_entry_loadable(
            self, legacy_dir, objects):
        """Registering another dataset rewrites the catalog around the
        legacy entry, without its grid; a later engine still serves it."""
        reader = MaxRSEngine(persist_dir=legacy_dir)
        reader.register_dataset(objects, name="other")
        document = json.loads((legacy_dir / "catalog.json").read_text())
        assert document["format_version"] == 1
        assert all("grid" not in entry
                   for entry in document["datasets"].values())
        assert not sorted(legacy_dir.glob("*.grid"))

        third = MaxRSEngine(persist_dir=legacy_dir)
        stats = third.stats()["persist"]
        assert stats["restore_errors"] == {}
        assert stats["datasets_restored"] == 2
        assert third.query("ds", QuerySpec.maxrs(7.0, 5.0)).cost["cache"] \
            == "hit"
        reference = solve_in_memory(objects, 6.0, 6.0)
        answer = third.query("other", QuerySpec.maxrs(6.0, 6.0))
        assert answer.total_weight == reference.total_weight
        assert answer.region == reference.region

    def test_v1_catalog_still_restores(self, tmp_path, objects):
        """A version-1 catalog whose entry names a single-blob grid restores
        without reading it, and loses it at the store's next write."""
        spec = QuerySpec.maxrs(7.0, 5.0)
        writer = MaxRSEngine(persist_dir=tmp_path)
        writer.register_dataset(objects, name="ds")
        before = writer.query("ds", spec)
        _name_legacy_grid(tmp_path, _v1_grid(tmp_path), version=1)

        reader = MaxRSEngine(persist_dir=tmp_path)
        assert reader.stats()["persist"]["restore_errors"] == {}
        after = reader.query("ds", spec)
        assert after.total_weight == before.total_weight
        assert after.region == before.region
        assert sorted(tmp_path.glob("*.grid"))  # the restore deleted nothing
        reader.checkpoint()
        document = json.loads((tmp_path / "catalog.json").read_text())
        assert "grid" not in document["datasets"]["ds"]
        assert not sorted(tmp_path.glob("*.grid"))

    def test_catalog_version_is_lowest_expressible(self, tmp_path, objects):
        """Every catalog this build writes is version 1 with no grid object,
        so every earlier build can read it."""
        MaxRSEngine(persist_dir=tmp_path).register_dataset(objects, name="ds")
        document = json.loads((tmp_path / "catalog.json").read_text())
        assert document["format_version"] == 1
        assert "grid" not in document["datasets"]["ds"]
        assert not sorted(tmp_path.glob("*.grid"))
