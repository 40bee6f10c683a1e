"""Tests for the durable snapshot store (:mod:`repro.persist.store`).

The central contract: ``save_dataset`` -> ``load_dataset`` reproduces the
packed columns **byte-identically** (same fingerprint), for arbitrary
datasets -- asserted by a hypothesis property over randomised columns plus
edge cases (empty dataset, single point, extreme weights) -- and corrupt
snapshots are rejected, never served.
"""

import json

import pytest

pytest.importorskip("numpy")

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.em import EMConfig
from repro.errors import PersistError
from repro.persist import (
    CATALOG_FILENAME,
    SnapshotStore,
    fingerprint_columns,
    open_catalog,
)

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.function_scoped_fixture])

finite_doubles = st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e12, max_value=1e12)
columns_strategy = st.integers(min_value=0, max_value=300).flatmap(
    lambda n: st.tuples(
        st.lists(finite_doubles, min_size=n, max_size=n),
        st.lists(finite_doubles, min_size=n, max_size=n),
        st.lists(finite_doubles, min_size=n, max_size=n),
    )
)


def _columns(xs, ys, ws):
    return (np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64),
            np.asarray(ws, dtype=np.float64))


# ---------------------------------------------------------------------- #
# The round-trip property
# ---------------------------------------------------------------------- #
@_SETTINGS
@given(data=columns_strategy)
def test_round_trip_is_byte_identical(tmp_path_factory, data):
    xs, ys, ws = _columns(*data)
    store = SnapshotStore(tmp_path_factory.mktemp("persist"))
    manifest = store.save_dataset("ds", xs, ys, ws)
    loaded = store.load_dataset("ds")
    assert loaded.xs.tobytes() == xs.astype("<f8").tobytes()
    assert loaded.ys.tobytes() == ys.astype("<f8").tobytes()
    assert loaded.ws.tobytes() == ws.astype("<f8").tobytes()
    assert loaded.manifest.fingerprint == manifest.fingerprint
    assert manifest.fingerprint == fingerprint_columns(xs, ys, ws)


class TestEdgeCases:
    def test_empty_dataset(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("empty", *_columns([], [], []))
        loaded = store.load_dataset("empty")
        assert loaded.manifest.count == 0
        assert len(loaded.xs) == len(loaded.ys) == len(loaded.ws) == 0

    def test_single_point(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("one", *_columns([1.0], [2.0], [3.0]))
        loaded = store.load_dataset("one")
        assert (loaded.xs[0], loaded.ys[0], loaded.ws[0]) == (1.0, 2.0, 3.0)

    def test_extreme_weights(self, tmp_path):
        """Denormals, huge magnitudes and signed zeros survive bit-exactly."""
        ws = [5e-324, 1.7e308, -1.7e308, -0.0, 2.0 ** -1022]
        xs = [0.1, 0.2, 0.3, 0.4, 0.5]
        store = SnapshotStore(tmp_path)
        store.save_dataset("extreme", *_columns(xs, xs, ws))
        loaded = store.load_dataset("extreme")
        assert loaded.ws.tobytes() == np.asarray(ws, dtype="<f8").tobytes()

    def test_block_boundary_counts(self, tmp_path):
        """Counts around the records-per-block boundary (512 for 4 KB)."""
        store = SnapshotStore(tmp_path)
        for count in (511, 512, 513):
            xs = np.arange(count, dtype=np.float64)
            store.save_dataset(f"n{count}", xs, xs + 0.5, xs * 2.0)
            loaded = store.load_dataset(f"n{count}")
            assert np.array_equal(loaded.xs, xs)
            assert np.array_equal(loaded.ys, xs + 0.5)
            assert np.array_equal(loaded.ws, xs * 2.0)


def test_register_columns_copies_caller_arrays():
    """Mutating the caller's arrays after registration must not corrupt the
    snapshot (the columns must match their fingerprint forever)."""
    from repro.service.store import PointStore

    xs = np.array([1.0, 2.0])
    ys = np.array([3.0, 4.0])
    ws = np.array([1.0, 1.0])
    store = PointStore()
    handle = store.register_columns(xs, ys, ws, name="ds")
    xs[0] = 999.0
    entry = store.get("ds")
    assert entry.xs[0] == 1.0
    assert fingerprint_columns(entry.xs, entry.ys, entry.ws) == handle.fingerprint


class TestVerification:
    def _saved_store(self, tmp_path, count=100):
        rng = np.random.default_rng(3)
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", rng.uniform(0, 100, count),
                           rng.uniform(0, 100, count),
                           rng.choice([1.0, 2.0], count))
        return store

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(PersistError, match="not in the snapshot catalog"):
            SnapshotStore(tmp_path).load_dataset("ghost")

    def test_corrupted_points_blob_rejected(self, tmp_path):
        store = self._saved_store(tmp_path)
        blob = tmp_path / store.manifest_for("ds").points_file
        raw = bytearray(blob.read_bytes())
        raw[-5] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(PersistError, match="checksum"):
            store.load_dataset("ds")

    def test_swapped_blob_fails_fingerprint(self, tmp_path):
        """A well-formed blob of the *wrong data* is caught by the fingerprint."""
        store = self._saved_store(tmp_path)
        manifest = store.manifest_for("ds")
        other = SnapshotStore(tmp_path / "other")
        other.save_dataset("ds", *(np.arange(100, dtype=np.float64),) * 3)
        wrong = (tmp_path / "other" / other.manifest_for("ds").points_file)
        (tmp_path / manifest.points_file).write_bytes(wrong.read_bytes())
        with pytest.raises(PersistError, match="fingerprint"):
            store.load_dataset("ds")

    def test_mismatched_block_size_rejected(self, tmp_path):
        SnapshotStore(tmp_path).save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        reopened = SnapshotStore(
            tmp_path, config=EMConfig(block_size=512, buffer_size=8 * 512))
        with pytest.raises(PersistError, match="matching EMConfig"):
            reopened.load_dataset("ds")


class TestLegacyGridEntries:
    """Entries of earlier builds that list grid blobs under ``grid``."""

    def _legacy_store(self, tmp_path):
        """A store whose ``ds`` entry names two (corrupt) grid blobs."""
        xs = np.arange(1000, dtype=np.float64)  # 3000 records -> 6 blocks
        SnapshotStore(tmp_path).save_dataset("ds", xs, xs, xs)
        path = tmp_path / CATALOG_FILENAME
        document = json.loads(path.read_text())
        document["format_version"] = 3
        document["datasets"]["ds"]["grid"] = {
            "file": "old.grid", "levels": [{"file": "old-L2.grid"}]}
        path.write_text(json.dumps(document))
        for name in ("old.grid", "old-L2.grid"):
            (tmp_path / name).write_bytes(b"corrupt")
        return xs

    def test_load_reads_the_points_only(self, tmp_path):
        xs = self._legacy_store(tmp_path)
        catalog_bytes = (tmp_path / CATALOG_FILENAME).read_bytes()
        store = SnapshotStore(tmp_path)
        loaded = store.load_dataset("ds")
        assert np.array_equal(loaded.xs, xs)
        assert store.counters.block_reads == 6
        # Reading writes nothing and deletes nothing.
        assert (tmp_path / CATALOG_FILENAME).read_bytes() == catalog_bytes
        assert (tmp_path / "old.grid").exists()
        assert (tmp_path / "old-L2.grid").exists()

    def test_next_write_drops_and_deletes_legacy_grid_blobs(self, tmp_path):
        xs = self._legacy_store(tmp_path)
        store = SnapshotStore(tmp_path)
        store.save_dataset("other", *_columns([1.0], [2.0], [3.0]))
        document = json.loads((tmp_path / CATALOG_FILENAME).read_text())
        assert document["format_version"] == 1
        assert "grid" not in document["datasets"]["ds"]
        assert store.manifest_for("ds").legacy_grid_files == ()
        assert not sorted(tmp_path.glob("*.grid"))
        assert np.array_equal(SnapshotStore(tmp_path).load_dataset("ds").xs,
                              xs)


class TestResults:
    def test_results_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        records = [tuple(float(v) for v in range(13)),
                   tuple(float(v) * 0.5 for v in range(13))]
        store.save_results("ds", records)
        assert store.load_results("ds") == records
        assert store.manifest_for("ds").results_count == 2

    def test_results_round_trip_across_block_boundaries(self, tmp_path):
        """104 B records do not divide 4 KB blocks; per-block padding must
        never shift into the decoded record stream (39 records/block)."""
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        records = [tuple(float(13 * i + j) for j in range(13))
                   for i in range(100)]  # ~2.6 blocks
        store.save_results("ds", records)
        assert store.load_results("ds") == records

    def test_no_results_is_empty(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        assert store.load_results("ds") == []

    def test_empty_save_clears_results(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        store.save_results("ds", [tuple(float(v) for v in range(13))])
        results_file = store.manifest_for("ds").results_file
        store.save_results("ds", [])
        assert store.manifest_for("ds").results_file is None
        assert not (tmp_path / results_file).exists()

    def test_results_need_a_snapshot(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        with pytest.raises(PersistError, match="no snapshot"):
            store.save_results("ghost", [])

    def test_results_are_per_dataset_id(self, tmp_path):
        """Two ids over byte-identical data keep separate result blobs."""
        store = SnapshotStore(tmp_path)
        cols = _columns([1.0], [2.0], [3.0])
        store.save_dataset("a", *cols)
        store.save_dataset("b", *cols)
        record_a = [tuple(float(v) for v in range(13))]
        record_b = [tuple(float(v) * 2.0 for v in range(13)),
                    tuple(float(v) * 3.0 for v in range(13))]
        store.save_results("a", record_a)
        store.save_results("b", record_b)
        assert store.load_results("a") == record_a
        assert store.load_results("b") == record_b


class TestLifecycle:
    def test_io_is_block_accounted(self, tmp_path):
        store = SnapshotStore(tmp_path)
        xs = np.arange(1000, dtype=np.float64)  # 3000 records -> 6 blocks
        store.save_dataset("ds", xs, xs, xs)
        assert store.counters.block_writes == 6
        assert store.counters.block_reads == 0
        store.load_dataset("ds")
        assert store.counters.block_reads == 6

    def test_delete_removes_blobs_and_entry(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        points = store.manifest_for("ds").points_file
        assert store.delete_dataset("ds")
        assert not store.delete_dataset("ds")  # already gone
        assert "ds" not in store
        assert not (tmp_path / points).exists()

    def test_shared_blobs_survive_deleting_one_name(self, tmp_path):
        store = SnapshotStore(tmp_path)
        cols = _columns([1.0, 2.0], [3.0, 4.0], [1.0, 1.0])
        store.save_dataset("a", *cols)
        store.save_dataset("b", *cols)  # same fingerprint -> same blob
        points = store.manifest_for("a").points_file
        assert store.manifest_for("b").points_file == points
        store.delete_dataset("a")
        assert (tmp_path / points).exists()
        store.load_dataset("b")  # still serveable

    def test_shared_blob_is_written_once(self, tmp_path):
        """A points blob is named by its content: saving the same columns
        under another id, or again under the same one, writes no block;
        a blob this store could not verify is written again."""
        store = SnapshotStore(tmp_path)
        xs = np.arange(1000, dtype=np.float64)
        store.save_dataset("a", xs, xs, xs)
        assert store.counters.block_writes == 6
        store.save_dataset("b", xs, xs, xs)
        store.save_dataset("a", xs, xs, xs)
        assert store.counters.block_writes == 6
        blob = tmp_path / store.manifest_for("b").points_file
        raw = bytearray(blob.read_bytes())
        raw[-5] ^= 0xFF
        blob.write_bytes(bytes(raw))

        reopened = SnapshotStore(tmp_path)
        with pytest.raises(PersistError, match="checksum"):
            reopened.load_dataset("a")
        reopened.save_dataset("a", xs, xs, xs)  # repairs the shared blob
        assert reopened.counters.block_writes == 6
        reopened.save_dataset("c", xs, xs, xs)
        assert reopened.counters.block_writes == 6
        for name in "abc":
            assert SnapshotStore(tmp_path).load_dataset(name).xs.tobytes() \
                == xs.tobytes()

    def test_read_only_open_does_not_create_the_directory(self, tmp_path):
        """A mistyped persist_dir must not turn into an empty-looking store."""
        missing = tmp_path / "no-such-store"
        store = SnapshotStore(missing)
        assert not missing.exists()
        with pytest.raises(PersistError, match="not in the snapshot catalog"):
            store.load_dataset("ds")
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        assert missing.exists()  # the first save creates it

    def test_open_catalog_reads_without_store(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        catalog = open_catalog(tmp_path)
        assert list(catalog.datasets) == ["ds"]
        assert catalog.get("ds").count == 1

    def test_overwrite_with_new_data_drops_old_blobs(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save_dataset("ds", *_columns([1.0], [2.0], [3.0]))
        old_points = store.manifest_for("ds").points_file
        store.save_dataset("ds", *_columns([9.0], [9.0], [9.0]))
        assert store.manifest_for("ds").points_file != old_points
        assert not (tmp_path / old_points).exists()
