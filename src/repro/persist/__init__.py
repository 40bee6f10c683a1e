"""repro.persist -- durable dataset snapshots for the resident engine.

The paper's premise is that MaxRS at scale is I/O-bound, and :mod:`repro.em`
counts every block transfer faithfully -- yet a restarted
:class:`~repro.service.engine.MaxRSEngine` used to lose every registered
dataset and re-ingest from scratch.  This package is the
missing persistence layer: it spills :class:`~repro.service.store.PointStore`
snapshots (packed ``(x, y, weight)`` columns plus their SHA-256 fingerprint)
and the engine's checkpointed results through the existing EM substrate, so
**persistence I/O is block-accounted the same way the paper counts
transfers** (see :attr:`SnapshotStore.counters`).

Grid indexes are not persisted.  A restarted engine rebuilds each grid from
the verified points with the same build registration runs: a persisted grid
had to be re-binned and re-aggregated to be verified anyway, so restoring it
did all of a rebuild's work and also read about twice the blocks.

On-disk layout of a persist directory
-------------------------------------
::

    persist_dir/
        catalog.json            # versioned manifest (the SnapshotCatalog):
                                #   format_version, and per dataset_id its
                                #   fingerprint, count, total weight, codec
                                #   name, block size and blob file names
        <fp16>.points           # columnar blob: the x column, then the y
                                #   column, then the weight column, as raw
                                #   4 KB blocks of little-endian float64
                                #   (COLUMN_CODEC) behind a 64-byte header
                                #   with magic, sizes and a SHA-256 checksum
        <fp16>-<id8>.results    # optional blob of hot refined-MaxRS results
                                #   (RESULT_CODEC records, written by the
                                #   engine's checkpoint()): the warm serving
                                #   state that lets a restart re-serve
                                #   previously answered queries without
                                #   re-solving them

    ``<fp16>`` is the first 16 hex digits of the dataset fingerprint, so
    byte-identical datasets registered under several ids share points
    blobs; the catalog tracks references and deletion only unlinks unshared
    blobs.  Catalogs of earlier builds also list ``*.grid`` blobs; they are
    never read, and the store's next catalog write drops and deletes them.

Verification on load is layered: the blob checksum rejects torn or
bit-flipped files, and the recomputed column fingerprint must match the
catalog, so a snapshot can never decode to different data than was saved.

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
    "LoadedSnapshot",
    "RESULT_CODEC",
    "SnapshotCatalog",
    "SnapshotStore",
    "fingerprint_columns",
    "open_catalog",
]
