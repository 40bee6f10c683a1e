"""On-disk format of the durable snapshot store.

Two kinds of files live in a persist directory (see the package docstring in
:mod:`repro.persist` for the full layout):

* **Blob files** (``*.points``, ``*.results``) hold the raw blocks of one
  :class:`~repro.em.record_file.RecordFile`, exactly as they existed on the
  simulated :class:`~repro.em.device.BlockDevice`, behind a fixed 64-byte
  header::

      magic (8 B) | block_size (u64) | num_blocks (u64) | num_records (u64)
                  | sha256 of the padded block payload (32 B)

    Every block is padded to ``block_size`` bytes, so block ``i`` starts at
    byte ``64 + i * block_size`` and the whole payload is one contiguous
    little-endian float64 stream (columnar layout, one column after another).
    The checksum rejects torn or bit-flipped files before any record is
    decoded; the magic's trailing byte is the blob format version.

* **The catalog** (``catalog.json``) is the manifest: a versioned JSON
  document mapping every ``dataset_id`` to its fingerprint, record counts,
  codec name and blob file names.  The catalog is rewritten atomically (temp
  file + ``os.replace``) on every save or delete, so a crash mid-write never
  leaves a half-updated manifest -- at worst an orphaned blob, which a later
  save overwrites.  Every blob name a catalog lists must be a bare file name:
  the store reads and unlinks them inside its own directory only.

Grid indexes are not persisted: a restart rebuilds each grid from the
verified points (see :mod:`repro.persist`).  Catalogs of earlier builds list
grid blobs under a ``grid`` object; their names are read only so the store
can delete those blobs on its next catalog write.

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

#: Catalog format version this build writes: entries without a ``grid``
#: object, which every earlier build reads.  Earlier builds also wrote
#: version 2 (one grid blob per shard) and version 3 (grid-pyramid level
#: blobs); this build reads all three and ignores their grid blobs.
CATALOG_VERSION = 1

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
def _blob_name(value: object) -> str:
    """A blob name read from a catalog, which must be a bare file name.

    The store reads and unlinks catalog-listed blobs inside its own
    directory, so a name with a directory part (``../victim``, ``/etc/x``)
    or a special name (``""``, ``"."``, ``".."``) is a malformed entry.
    """
    name = str(value)
    if name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(f"blob name {name!r} is not a bare file name")
    return name


def _legacy_grid_files(grid: object) -> Tuple[str, ...]:
    """The blob names a ``grid`` object of an earlier build lists.

    Version 1 named one blob (``file``), version 2 one per shard
    (``shards[].file``) and version 3 one per pyramid level
    (``levels[].file``).  Nothing else of the object is read.
    """
    if not isinstance(grid, dict):
        raise ValueError("'grid' must be an object")
    names = [grid["file"]] if grid.get("file") is not None else []
    for key in ("shards", "levels"):
        entries = grid.get(key)
        if entries is None:
            continue
        if not isinstance(entries, list):
            raise ValueError(f"'grid.{key}' must be a list")
        names.extend(entry["file"] for entry in entries)
    return tuple(_blob_name(name) for name in names)


@dataclass(frozen=True, slots=True)
class DatasetManifest:
    """Catalog entry describing one persisted dataset snapshot.

    ``legacy_grid_files`` lists the grid blobs an earlier build's entry
    names.  It is never written back: the store drops it, and unlinks the
    blobs, on its next catalog write.
    """

    dataset_id: str
    fingerprint: str
    count: int
    total_weight: float
    codec: str
    block_size: int
    points_file: str
    results_file: Optional[str] = None
    results_count: int = 0
    legacy_grid_files: Tuple[str, ...] = ()

    def files(self) -> Tuple[str, ...]:
        """Every blob file this entry references."""
        results = (self.results_file,) if self.results_file is not None else ()
        return (self.points_file,) + results + self.legacy_grid_files

    def to_json(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "count": self.count,
            "total_weight": self.total_weight,
            "codec": self.codec,
            "block_size": self.block_size,
            "points_file": self.points_file,
            "results_file": self.results_file,
            "results_count": self.results_count,
        }

    @classmethod
    def from_json(cls, dataset_id: str, data: Dict[str, object]) -> "DatasetManifest":
        try:
            if not isinstance(data, dict):
                raise TypeError("the entry is not a JSON object")
            grid = data.get("grid")
            results_file = data.get("results_file")
            return cls(
                dataset_id=dataset_id,
                fingerprint=str(data["fingerprint"]),
                count=int(data["count"]),
                total_weight=float(data["total_weight"]),
                codec=str(data["codec"]),
                block_size=int(data["block_size"]),
                points_file=_blob_name(data["points_file"]),
                results_file=(_blob_name(results_file)
                              if results_file is not None else None),
                results_count=int(data.get("results_count", 0)),
                legacy_grid_files=_legacy_grid_files(grid) if grid else (),
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
        return any(file_name in manifest.files()
                   for dataset_id, manifest in self.datasets.items()
                   if dataset_id != excluding)


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

    Always stamps :data:`CATALOG_VERSION` and writes no ``grid`` object, so
    the catalog stays readable by every earlier build after a rollback.
    """
    path = Path(directory) / CATALOG_FILENAME
    document = {
        "format_version": CATALOG_VERSION,
        "datasets": {dataset_id: manifest.to_json()
                     for dataset_id, manifest in sorted(catalog.datasets.items())},
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
