"""repro.persist -- durable dataset snapshots for the resident engine.

The paper's premise is that MaxRS at scale is I/O-bound, and :mod:`repro.em`
counts every block transfer faithfully -- yet a restarted
:class:`~repro.service.engine.MaxRSEngine` used to lose every registered
dataset and grid aggregate and re-ingest from scratch.  This package is the
missing persistence layer: it spills :class:`~repro.service.store.PointStore`
snapshots (packed ``(x, y, weight)`` columns plus their SHA-256 fingerprint)
and, optionally, each dataset's :class:`~repro.service.grid_index.GridIndex`
aggregates through the existing EM substrate, so **persistence I/O is
block-accounted the same way the paper counts transfers** (see
:attr:`SnapshotStore.counters`).

On-disk layout of a persist directory
-------------------------------------
::

    persist_dir/
        catalog.json            # versioned manifest (the SnapshotCatalog):
                                #   format_version, and per dataset_id its
                                #   fingerprint, count, total weight, codec
                                #   name, block size, blob file names and the
                                #   persisted grid geometry (resolution,
                                #   origin, cell sizes)
        <fp16>.points           # columnar blob: the x column, then the y
                                #   column, then the weight column, as raw
                                #   4 KB blocks of little-endian float64
                                #   (COLUMN_CODEC) behind a 64-byte header
                                #   with magic, sizes and a SHA-256 checksum
        <fp16>.grid             # optional columnar blob: the grid's flattened
                                #   cell-weight column then its cell-count
                                #   column, same container format
        <fp16>.results          # optional blob of hot refined-MaxRS results
                                #   (RESULT_CODEC records, written by the
                                #   engine's checkpoint()): the warm serving
                                #   state that lets a restart re-serve
                                #   previously answered queries without
                                #   re-solving them

    ``<fp16>`` is the first 16 hex digits of the dataset fingerprint, so
    byte-identical datasets registered under several ids share blob files;
    the catalog tracks references and deletion only unlinks unshared blobs.

Verification on load is layered: the blob checksum rejects torn or
bit-flipped files, the recomputed column fingerprint must match the catalog
(so a snapshot can never decode to different data than was saved), and grid
aggregates are structurally cross-checked against the reloaded points --
a bad grid blob falls back to an in-memory rebuild instead of failing the
restore.

Entry points: :func:`open_catalog` to inspect a directory,
:class:`SnapshotStore` (``save_dataset`` / ``load_dataset`` /
``delete_dataset``) for programmatic access, and
``MaxRSEngine(persist_dir=...)`` for the integrated write-through /
warm-start path most callers want.
"""

from repro.persist.format import (
    CATALOG_FILENAME,
    CATALOG_VERSION,
    POINTS_CODEC_NAME,
    RESULT_CODEC,
    SUPPORTED_CATALOG_VERSIONS,
    DatasetManifest,
    GridManifest,
    GridShardManifest,
    GridSnapshot,
    SnapshotCatalog,
    fingerprint_columns,
)
from repro.persist.store import LoadedSnapshot, SnapshotStore, open_catalog

__all__ = [
    "CATALOG_FILENAME",
    "CATALOG_VERSION",
    "SUPPORTED_CATALOG_VERSIONS",
    "POINTS_CODEC_NAME",
    "DatasetManifest",
    "GridManifest",
    "GridShardManifest",
    "GridSnapshot",
    "LoadedSnapshot",
    "RESULT_CODEC",
    "SnapshotCatalog",
    "SnapshotStore",
    "fingerprint_columns",
    "open_catalog",
]
