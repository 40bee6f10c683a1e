"""On-disk format of the durable snapshot store.

Two kinds of files live in a persist directory (see the package docstring in
:mod:`repro.persist` for the full layout):

* **Blob files** (``*.points``, ``*.grid``) hold the raw blocks of one
  columnar :class:`~repro.em.record_file.RecordFile`, exactly as they existed
  on the simulated :class:`~repro.em.device.BlockDevice`, behind a fixed
  64-byte header::

      magic (8 B) | block_size (u64) | num_blocks (u64) | num_records (u64)
                  | sha256 of the padded block payload (32 B)

    Every block is padded to ``block_size`` bytes, so block ``i`` starts at
    byte ``64 + i * block_size`` and the whole payload is one contiguous
    little-endian float64 stream (columnar layout, one column after another).
    The checksum rejects torn or bit-flipped files before any record is
    decoded; the magic's trailing byte is the blob format version.

* **The catalog** (``catalog.json``) is the manifest: a versioned JSON
  document mapping every ``dataset_id`` to its fingerprint, record counts,
  codec name, blob file names and (optionally) the persisted grid-index
  geometry.  The catalog is rewritten atomically (temp file + ``os.replace``)
  on every save or delete, so a crash mid-write never leaves a half-updated
  manifest -- at worst an orphaned blob, which a later save overwrites.

This module knows nothing about the service layer: it deals in numpy columns,
dataclasses and bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.em.serializer import StructRecordCodec
from repro.errors import PersistError
from repro.geometry import WeightedPoint

__all__ = [
    "BLOB_MAGIC",
    "CATALOG_FILENAME",
    "CATALOG_VERSION",
    "SUPPORTED_CATALOG_VERSIONS",
    "POINTS_CODEC_NAME",
    "RESULT_CODEC",
    "DatasetManifest",
    "GridLevelManifest",
    "GridLevelSnapshot",
    "GridManifest",
    "GridShardManifest",
    "GridSnapshot",
    "SnapshotCatalog",
    "fingerprint_columns",
    "load_catalog",
    "points_from_columns",
    "read_blob",
    "save_catalog",
    "write_blob",
]

#: Blob file magic; the trailing byte is the blob format version.
BLOB_MAGIC = b"RPSNAP\x00\x01"

#: Fixed blob header: magic, block size, block count, record count, checksum.
_BLOB_HEADER = struct.Struct("<8sQQQ32s")

#: Name of the manifest file inside a persist directory.
CATALOG_FILENAME = "catalog.json"

#: Catalog format version this build writes.  Version 2 added sharded grid
#: manifests (one blob per shard); version 3 added grid-pyramid level blobs
#: (one checksummed blob per coarse level).  This build writes single-blob
#: grids only.  All three versions are read: a sharded grid entry still
#: parses, but its grid is rebuilt from the points instead of loaded, and
#: v1/v2 single-blob grids restore as 1-level (flat) pyramids.
CATALOG_VERSION = 3

#: Catalog format versions this build can read.
SUPPORTED_CATALOG_VERSIONS = (1, 2, 3)

#: Codec identifier recorded in every manifest entry.  Bump alongside any
#: change to the column encoding so old stores are rejected, not misread.
POINTS_CODEC_NAME = "f64-column/1"

#: Codec for persisted hot refined-MaxRS results (``*.results`` blobs): one
#: record per cached answer --
#: ``(width, height, loc_x, loc_y, x1, y1, x2, y2, region_weight,
#: total_weight, recursion_levels, leaf_count, cost)``.
#: All-doubles so the round trip is bit-exact and the record size (104 B,
#: 39 records per 4 KB block) is platform independent.
RESULT_CODEC = StructRecordCodec("<13d")


def fingerprint_columns(xs: np.ndarray, ys: np.ndarray, ws: np.ndarray) -> str:
    """Hex SHA-256 over the packed little-endian float64 columns.

    This is *the* dataset identity of the serving stack: the
    :class:`~repro.service.store.PointStore` keys its result cache with it and
    the snapshot store verifies it on every load, so a snapshot that decodes
    to different bytes than were saved can never be served.
    """
    digest = hashlib.sha256()
    for column in (xs, ys, ws):
        digest.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
    return digest.hexdigest()


def points_from_columns(xs: np.ndarray, ys: np.ndarray, ws: np.ndarray,
                        indices=None) -> List[WeightedPoint]:
    """Materialise :class:`~repro.geometry.WeightedPoint` objects from columns.

    The one place column values become point objects, shared by the snapshot
    loader and the lazy paths of the service's
    :class:`~repro.service.store.RegisteredDataset`.  ``indices`` selects a
    subset (in the given order); ``None`` materialises every point.
    """
    if indices is None:
        return [WeightedPoint(float(x), float(y), float(w))
                for x, y, w in zip(xs, ys, ws)]
    return [WeightedPoint(float(xs[i]), float(ys[i]), float(ws[i]))
            for i in indices]


# ---------------------------------------------------------------------- #
# Blob files
# ---------------------------------------------------------------------- #
def write_blob(path: Path, *, block_size: int, payloads: Sequence[bytes],
               num_records: int) -> None:
    """Write a blob file atomically (temp file + rename).

    ``payloads`` are the raw block images in file order; each may be shorter
    than ``block_size`` (a trailing partial block) and is zero-padded so the
    on-disk blocks are fixed size.
    """
    body = b"".join(payload.ljust(block_size, b"\x00") for payload in payloads)
    header = _BLOB_HEADER.pack(BLOB_MAGIC, block_size, len(payloads),
                               num_records, hashlib.sha256(body).digest())
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(header)
            handle.write(body)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def read_blob(path: Path) -> Tuple[int, int, List[bytes]]:
    """Read and verify a blob file; return ``(block_size, num_records, blocks)``.

    Raises
    ------
    PersistError
        If the file is missing, truncated, carries the wrong magic/version,
        or its payload checksum does not match the header.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise PersistError(f"cannot read snapshot blob {path}: {exc}") from exc
    if len(raw) < _BLOB_HEADER.size:
        raise PersistError(f"snapshot blob {path} is truncated "
                           f"({len(raw)} B < {_BLOB_HEADER.size} B header)")
    magic, block_size, num_blocks, num_records, digest = _BLOB_HEADER.unpack(
        raw[:_BLOB_HEADER.size])
    if magic != BLOB_MAGIC:
        raise PersistError(
            f"snapshot blob {path} has magic {magic!r}, expected {BLOB_MAGIC!r} "
            "(corrupt file or incompatible blob format version)"
        )
    body = raw[_BLOB_HEADER.size:]
    if len(body) != num_blocks * block_size:
        raise PersistError(
            f"snapshot blob {path} is truncated: header promises "
            f"{num_blocks} x {block_size} B, found {len(body)} B"
        )
    if hashlib.sha256(body).digest() != digest:
        raise PersistError(f"snapshot blob {path} fails its checksum; "
                           "rejecting the corrupt snapshot")
    blocks = [body[i * block_size:(i + 1) * block_size]
              for i in range(num_blocks)]
    return block_size, num_records, blocks


# ---------------------------------------------------------------------- #
# Manifest dataclasses
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class GridLevelSnapshot:
    """The persistable state of one coarse grid-pyramid level (format v3).

    ``scale`` base cells fold into one level cell per axis; the aggregate
    arrays have the level's own (coarser) shape.  Levels are stored as their
    own checksummed blobs and verified against a fresh roll-up of the level
    below on load, so a corrupt or stale level can never loosen a bound.
    """

    scale: int
    n_rows: int
    n_cols: int
    cell_weights: np.ndarray  # float64, shape (n_rows, n_cols)
    cell_counts: np.ndarray   # int64,  shape (n_rows, n_cols)


@dataclass(frozen=True, slots=True)
class GridSnapshot:
    """The persistable state of one :class:`~repro.service.grid_index.GridIndex`.

    Geometry plus the per-cell aggregates (base grid and, since format v3,
    the coarse pyramid levels).  The CSR point lists and the prefix-sum
    tables are *not* persisted -- they are rebuilt from the point columns in
    vectorised time on load, and recomputing the per-cell counts doubles as
    a structural consistency check against the persisted ones.
    """

    n_rows: int
    n_cols: int
    x0: float
    y0: float
    cell_w: float
    cell_h: float
    cell_weights: np.ndarray  # float64, shape (n_rows, n_cols)
    cell_counts: np.ndarray   # int64,  shape (n_rows, n_cols)
    levels: Tuple[GridLevelSnapshot, ...] = ()


@dataclass(frozen=True, slots=True)
class GridShardManifest:
    """Catalog entry describing one shard's grid blob and cell block.

    Earlier builds saved a grid as one blob per shard.  This build no longer
    writes or reads those blobs, but still parses, lists and re-serialises
    the entry, so a catalog holding one keeps working (see
    :attr:`GridManifest.shards`).
    """

    file: str
    row0: int
    row1: int
    col0: int
    col1: int

    def to_json(self) -> Dict[str, object]:
        return {"file": self.file, "row0": self.row0, "row1": self.row1,
                "col0": self.col0, "col1": self.col1}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "GridShardManifest":
        try:
            return cls(file=str(data["file"]),
                       row0=int(data["row0"]), row1=int(data["row1"]),
                       col0=int(data["col0"]), col1=int(data["col1"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(f"malformed grid shard manifest entry: {exc}") from exc


@dataclass(frozen=True, slots=True)
class GridLevelManifest:
    """Catalog entry describing one pyramid level's blob (format v3)."""

    file: str
    scale: int
    n_rows: int
    n_cols: int

    def to_json(self) -> Dict[str, object]:
        return {"file": self.file, "scale": self.scale,
                "n_rows": self.n_rows, "n_cols": self.n_cols}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "GridLevelManifest":
        try:
            return cls(file=str(data["file"]), scale=int(data["scale"]),
                       n_rows=int(data["n_rows"]), n_cols=int(data["n_cols"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(f"malformed grid level manifest entry: {exc}") from exc


@dataclass(frozen=True, slots=True)
class GridManifest:
    """Catalog entry describing one persisted grid index.

    Two base layouts share this entry: the version-1 single-blob grid
    (``file`` set, ``shards`` ``None``) and the version-2 sharded grid
    (``shards`` set, ``file`` ``None``).  Exactly one of the two must be
    present.  This build writes the single-blob layout only; a sharded
    entry from an earlier build still parses and lists its blobs, and the
    engine rebuilds its grid on restore.  ``levels`` (format v3) is
    orthogonal to the base layout: either may carry level blobs (finest
    first).
    """

    file: Optional[str]
    n_rows: int
    n_cols: int
    x0: float
    y0: float
    cell_w: float
    cell_h: float
    shards: Optional[Tuple[GridShardManifest, ...]] = None
    levels: Optional[Tuple[GridLevelManifest, ...]] = None

    def files(self) -> Tuple[str, ...]:
        """Every blob file this grid entry references."""
        base: Tuple[str, ...]
        if self.shards is not None:
            base = tuple(shard.file for shard in self.shards)
        else:
            base = (self.file,) if self.file is not None else ()
        if self.levels:
            base += tuple(level.file for level in self.levels)
        return base

    def to_json(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "file": self.file, "n_rows": self.n_rows, "n_cols": self.n_cols,
            "x0": self.x0, "y0": self.y0,
            "cell_w": self.cell_w, "cell_h": self.cell_h,
        }
        if self.shards is not None:
            document["shards"] = [shard.to_json() for shard in self.shards]
        if self.levels:
            document["levels"] = [level.to_json() for level in self.levels]
        return document

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "GridManifest":
        try:
            raw_shards = data.get("shards")
            shards = None
            if raw_shards is not None:
                if not isinstance(raw_shards, list) or not raw_shards:
                    raise ValueError("'shards' must be a non-empty list")
                shards = tuple(GridShardManifest.from_json(entry)
                               for entry in raw_shards)
            raw_levels = data.get("levels")
            levels = None
            if raw_levels is not None:
                if not isinstance(raw_levels, list) or not raw_levels:
                    raise ValueError("'levels' must be a non-empty list")
                levels = tuple(GridLevelManifest.from_json(entry)
                               for entry in raw_levels)
            raw_file = data.get("file")
            file = str(raw_file) if raw_file is not None else None
            if (file is None) == (shards is None):
                raise ValueError(
                    "exactly one of 'file' and 'shards' must be present"
                )
            return cls(file=file,
                       n_rows=int(data["n_rows"]), n_cols=int(data["n_cols"]),
                       x0=float(data["x0"]), y0=float(data["y0"]),
                       cell_w=float(data["cell_w"]), cell_h=float(data["cell_h"]),
                       shards=shards, levels=levels)
        except PersistError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(f"malformed grid manifest entry: {exc}") from exc


@dataclass(frozen=True, slots=True)
class DatasetManifest:
    """Catalog entry describing one persisted dataset snapshot."""

    dataset_id: str
    fingerprint: str
    count: int
    total_weight: float
    codec: str
    block_size: int
    points_file: str
    grid: Optional[GridManifest] = None
    results_file: Optional[str] = None
    results_count: int = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "count": self.count,
            "total_weight": self.total_weight,
            "codec": self.codec,
            "block_size": self.block_size,
            "points_file": self.points_file,
            "grid": self.grid.to_json() if self.grid is not None else None,
            "results_file": self.results_file,
            "results_count": self.results_count,
        }

    @classmethod
    def from_json(cls, dataset_id: str, data: Dict[str, object]) -> "DatasetManifest":
        try:
            grid_data = data.get("grid")
            results_file = data.get("results_file")
            return cls(
                dataset_id=dataset_id,
                fingerprint=str(data["fingerprint"]),
                count=int(data["count"]),
                total_weight=float(data["total_weight"]),
                codec=str(data["codec"]),
                block_size=int(data["block_size"]),
                points_file=str(data["points_file"]),
                grid=GridManifest.from_json(grid_data) if grid_data else None,
                results_file=str(results_file) if results_file else None,
                results_count=int(data.get("results_count", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistError(
                f"malformed catalog entry for dataset {dataset_id!r}: {exc}"
            ) from exc


@dataclass(slots=True)
class SnapshotCatalog:
    """The manifest of a persist directory: ``dataset_id -> DatasetManifest``."""

    datasets: Dict[str, DatasetManifest] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.datasets)

    def __contains__(self, dataset_id: str) -> bool:
        return dataset_id in self.datasets

    def get(self, dataset_id: str) -> Optional[DatasetManifest]:
        return self.datasets.get(dataset_id)

    def references(self, file_name: str, *, excluding: Optional[str] = None) -> bool:
        """Whether any entry (except ``excluding``) references ``file_name``.

        Datasets with identical content share blob files, so deletion must
        check for remaining references before unlinking.
        """
        for dataset_id, manifest in self.datasets.items():
            if dataset_id == excluding:
                continue
            if manifest.points_file == file_name:
                return True
            if manifest.grid is not None and file_name in manifest.grid.files():
                return True
            if manifest.results_file == file_name:
                return True
        return False


def load_catalog(directory: Path) -> SnapshotCatalog:
    """Load the catalog of a persist directory (empty when none exists yet).

    Raises
    ------
    PersistError
        If the catalog exists but is unreadable, malformed, or written by a
        newer format version than this build understands.
    """
    path = Path(directory) / CATALOG_FILENAME
    if not path.exists():
        return SnapshotCatalog()
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PersistError(f"cannot read snapshot catalog {path}: {exc}") from exc
    if not isinstance(document, dict) or "format_version" not in document:
        raise PersistError(f"snapshot catalog {path} is not a versioned manifest")
    version = document["format_version"]
    if version not in SUPPORTED_CATALOG_VERSIONS:
        raise PersistError(
            f"snapshot catalog {path} has format version {version}; this "
            f"build understands versions {SUPPORTED_CATALOG_VERSIONS}"
        )
    entries = document.get("datasets", {})
    if not isinstance(entries, dict):
        raise PersistError(f"snapshot catalog {path} has a malformed dataset map")
    return SnapshotCatalog(datasets={
        dataset_id: DatasetManifest.from_json(dataset_id, entry)
        for dataset_id, entry in entries.items()
    })


def save_catalog(directory: Path, catalog: SnapshotCatalog) -> None:
    """Atomically rewrite the catalog of a persist directory.

    The stamped format version is the *lowest* one that can express the
    catalog: a store whose grids are all single-blob (or absent) is written
    as version 1, so it stays readable by pre-sharding builds after a
    rollback; a catalog still holding a sharded grid entry of an earlier
    build but no pyramid levels is stamped version 2, and only one actually
    carrying level blobs is stamped version 3.
    """
    path = Path(directory) / CATALOG_FILENAME
    grids = [manifest.grid for manifest in catalog.datasets.values()
             if manifest.grid is not None]
    if any(grid.levels for grid in grids):
        version = CATALOG_VERSION
    elif any(grid.shards is not None for grid in grids):
        version = 2
    else:
        version = 1
    document = {
        "format_version": version,
        "datasets": {dataset_id: manifest.to_json()
                     for dataset_id, manifest in sorted(catalog.datasets.items())},
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
