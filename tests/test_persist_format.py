"""Tests for the snapshot on-disk format (:mod:`repro.persist.format`)."""

import json
from dataclasses import replace

import pytest

import numpy as np

from repro.errors import PersistError
from repro.persist.format import (
    BLOB_MAGIC,
    CATALOG_FILENAME,
    SUPPORTED_CATALOG_VERSIONS,
    DatasetManifest,
    SnapshotCatalog,
    fingerprint_columns,
    load_catalog,
    read_blob,
    save_catalog,
    write_blob,
)
from repro.persist.store import SnapshotStore


def _column(values):
    return np.asarray(values, dtype=np.float64)


class TestFingerprint:
    def test_deterministic_and_sensitive(self):
        xs, ys, ws = _column([1.0, 2.0]), _column([3.0, 4.0]), _column([1.0, 1.0])
        a = fingerprint_columns(xs, ys, ws)
        assert a == fingerprint_columns(xs.copy(), ys.copy(), ws.copy())
        assert len(a) == 64
        assert a != fingerprint_columns(xs, ys, _column([1.0, 2.0]))

    def test_matches_point_store_fingerprints(self):
        """The store and the persist layer must agree on dataset identity."""
        from repro.geometry import WeightedPoint
        from repro.service.store import PointStore

        objects = [WeightedPoint(1.5, -2.25, 3.0), WeightedPoint(0.0, 0.0, 1.0)]
        handle = PointStore().register(objects)
        xs = _column([o.x for o in objects])
        ys = _column([o.y for o in objects])
        ws = _column([o.weight for o in objects])
        assert handle.fingerprint == fingerprint_columns(xs, ys, ws)


class TestBlob:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "test.blob"
        payloads = [b"a" * 512, b"b" * 512, b"c" * 100]  # trailing partial block
        write_blob(path, block_size=512, payloads=payloads, num_records=282)
        block_size, num_records, blocks = read_blob(path)
        assert block_size == 512
        assert num_records == 282
        assert blocks[0] == b"a" * 512
        assert blocks[2] == b"c" * 100 + b"\x00" * 412  # padded on disk

    def test_empty_blob(self, tmp_path):
        path = tmp_path / "empty.blob"
        write_blob(path, block_size=512, payloads=[], num_records=0)
        assert read_blob(path) == (512, 0, [])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PersistError, match="cannot read"):
            read_blob(tmp_path / "nope.blob")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.blob"
        write_blob(path, block_size=512, payloads=[b"x" * 512], num_records=64)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistError, match="magic"):
            read_blob(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "short.blob"
        write_blob(path, block_size=512, payloads=[b"x" * 512], num_records=64)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(PersistError, match="truncated"):
            read_blob(path)

    def test_bit_flip_fails_checksum(self, tmp_path):
        path = tmp_path / "flip.blob"
        write_blob(path, block_size=512, payloads=[b"x" * 512], num_records=64)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # flip one payload bit
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistError, match="checksum"):
            read_blob(path)

    def test_magic_identifies_version(self):
        assert BLOB_MAGIC.endswith(b"\x01")


#: The ``grid`` object an earlier build wrote into a catalog entry: a
#: single-blob base grid (catalog v1) plus one pyramid level blob (v3).
_LEGACY_GRID = {
    "file": "abab-3x4.grid", "n_rows": 3, "n_cols": 4, "x0": 0.0, "y0": -1.0,
    "cell_w": 2.5, "cell_h": 1.25,
    "levels": [{"file": "abab-3x4-L2-2x2.grid", "scale": 2, "n_rows": 2,
                "n_cols": 2}],
}


class TestCatalog:
    def _manifest(self, dataset_id="demo", fingerprint="ab" * 32, *,
                  legacy=True):
        """A manifest; ``legacy`` reads it from an earlier build's entry
        that carries a ``grid`` object and a results blob."""
        document = {
            "fingerprint": fingerprint, "count": 7, "total_weight": 11.5,
            "codec": "f64-column/1", "block_size": 4096,
            "points_file": "abab.points",
        }
        if legacy:
            document.update(grid=_LEGACY_GRID, results_file="abab.results",
                            results_count=2)
        return DatasetManifest.from_json(dataset_id, document)

    def test_legacy_grid_names_are_read(self):
        manifest = self._manifest()
        assert manifest.legacy_grid_files == ("abab-3x4.grid",
                                              "abab-3x4-L2-2x2.grid")
        assert manifest.files() == ("abab.points", "abab.results",
                                    "abab-3x4.grid", "abab-3x4-L2-2x2.grid")

    def test_sharded_legacy_grid_names_are_read(self):
        grid = {"file": None, "n_rows": 2, "n_cols": 2, "x0": 0.0, "y0": 0.0,
                "cell_w": 1.0, "cell_h": 1.0,
                "shards": [{"file": "s0.grid", "row0": 0, "row1": 2,
                            "col0": 0, "col1": 1},
                           {"file": "s1.grid", "row0": 0, "row1": 2,
                            "col0": 1, "col1": 2}]}
        manifest = DatasetManifest.from_json("demo", {
            "fingerprint": "ab" * 32, "count": 7, "total_weight": 11.5,
            "codec": "f64-column/1", "block_size": 4096,
            "points_file": "abab.points", "grid": grid})
        assert manifest.legacy_grid_files == ("s0.grid", "s1.grid")

    def test_round_trip(self, tmp_path):
        """Entries round-trip, except the legacy grid names: this build
        writes version 1 and no ``grid`` object."""
        catalog = SnapshotCatalog(datasets={
            "demo": self._manifest(),
            "bare": self._manifest("bare", "cd" * 32, legacy=False),
        })
        save_catalog(tmp_path, catalog)
        document = json.loads((tmp_path / CATALOG_FILENAME).read_text())
        assert document["format_version"] == 1
        assert all("grid" not in entry
                   for entry in document["datasets"].values())
        loaded = load_catalog(tmp_path)
        assert loaded.datasets == {
            dataset_id: replace(manifest, legacy_grid_files=())
            for dataset_id, manifest in catalog.datasets.items()}

    def test_missing_catalog_is_empty(self, tmp_path):
        assert len(load_catalog(tmp_path)) == 0

    def test_newer_version_rejected(self, tmp_path):
        save_catalog(tmp_path, SnapshotCatalog())
        path = tmp_path / CATALOG_FILENAME
        document = json.loads(path.read_text())
        document["format_version"] = max(SUPPORTED_CATALOG_VERSIONS) + 1
        path.write_text(json.dumps(document))
        with pytest.raises(PersistError, match="format version"):
            load_catalog(tmp_path)

    def test_unversioned_document_rejected(self, tmp_path):
        (tmp_path / CATALOG_FILENAME).write_text("{}")
        with pytest.raises(PersistError, match="versioned"):
            load_catalog(tmp_path)

    def test_malformed_json_rejected(self, tmp_path):
        (tmp_path / CATALOG_FILENAME).write_text("{not json")
        with pytest.raises(PersistError, match="cannot read"):
            load_catalog(tmp_path)

    def test_malformed_entry_rejected(self, tmp_path):
        save_catalog(tmp_path, SnapshotCatalog(datasets={"demo": self._manifest()}))
        path = tmp_path / CATALOG_FILENAME
        document = json.loads(path.read_text())
        del document["datasets"]["demo"]["fingerprint"]
        path.write_text(json.dumps(document))
        with pytest.raises(PersistError, match="malformed catalog entry"):
            load_catalog(tmp_path)

    def test_non_object_entry_rejected(self, tmp_path):
        (tmp_path / CATALOG_FILENAME).write_text(json.dumps(
            {"format_version": 1, "datasets": {"demo": ["abab.points"]}}))
        with pytest.raises(PersistError, match="malformed catalog entry"):
            load_catalog(tmp_path)

    @pytest.mark.parametrize("grid", [
        "abab.grid", {"file": 7, "levels": "abab.grid"},
        {"file": None, "shards": [{"row0": 0}]},
        {"file": None, "shards": ["abab.grid"]},
    ])
    def test_malformed_legacy_grid_rejected(self, grid):
        document = {
            "fingerprint": "ab" * 32, "count": 7, "total_weight": 11.5,
            "codec": "f64-column/1", "block_size": 4096,
            "points_file": "abab.points", "grid": grid,
        }
        with pytest.raises(PersistError, match="malformed catalog entry"):
            DatasetManifest.from_json("demo", document)

    @pytest.mark.parametrize("name", [
        "../victim.txt", "/tmp/victim.txt", "sub/abab.points", "", ".", "..",
    ])
    @pytest.mark.parametrize("field", [
        "points_file", "results_file", "grid.file", "grid.shards",
        "grid.levels",
    ])
    def test_blob_names_must_be_bare_file_names(self, field, name):
        document = {
            "fingerprint": "ab" * 32, "count": 7, "total_weight": 11.5,
            "codec": "f64-column/1", "block_size": 4096,
            "points_file": "abab.points",
        }
        if field == "grid.file":
            document["grid"] = {"file": name}
        elif field.startswith("grid."):
            document["grid"] = {"file": None,
                                field[len("grid."):]: [{"file": name}]}
        else:
            document[field] = name
        with pytest.raises(PersistError, match="bare file name"):
            DatasetManifest.from_json("demo", document)

    def test_tampered_blob_name_cannot_reach_outside_the_store(self, tmp_path):
        """A catalog naming ``../victim.txt`` is rejected before any blob
        is read or unlinked, so deleting the dataset cannot remove a file
        next to the store directory."""
        store_dir = tmp_path / "store"
        victim = tmp_path / "victim.txt"
        victim.write_text("not a snapshot blob")
        SnapshotStore(store_dir).save_dataset(
            "ds", _column([1.0]), _column([2.0]), _column([3.0]))
        path = store_dir / CATALOG_FILENAME
        document = json.loads(path.read_text())
        document["datasets"]["ds"]["results_file"] = "../victim.txt"
        document["datasets"]["ds"]["results_count"] = 1
        path.write_text(json.dumps(document))

        with pytest.raises(PersistError, match="malformed catalog entry"):
            load_catalog(store_dir)
        with pytest.raises(PersistError, match="bare file name"):
            SnapshotStore(store_dir).delete_dataset("ds")
        assert victim.read_text() == "not a snapshot blob"

    def test_references_tracks_shared_blobs(self):
        catalog = SnapshotCatalog(datasets={"demo": self._manifest()})
        assert catalog.references("abab.points")
        assert catalog.references("abab-3x4.grid")
        assert catalog.references("abab-3x4-L2-2x2.grid")
        assert catalog.references("abab.results")
        assert not catalog.references("abab.points", excluding="demo")
        assert not catalog.references("other.points")
