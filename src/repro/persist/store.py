"""The durable snapshot store: save/load datasets through the EM substrate.

:class:`SnapshotStore` is the write/read engine behind a persist directory.
All record traffic flows through a private :class:`~repro.em.context.EMContext`
(:class:`~repro.em.record_file.RecordFile` on a simulated
:class:`~repro.em.device.BlockDevice` behind the
:class:`~repro.em.buffer_pool.BufferPool`), so every save and load is charged
in **block transfers** on :attr:`SnapshotStore.counters` -- the same unit the
paper measures its algorithms in, which is what makes warm-start I/O directly
comparable to ingestion I/O.

Durability is a mirror, not a second code path: a save writes the columnar
record file block by block onto the simulated disk (each write charged), then
the finished block images are copied verbatim into a checksummed host blob
file; a load verifies the blob, installs its blocks back onto the simulated
disk for free (:meth:`~repro.em.device.BlockDevice.restore_block` -- the bytes
are already "on disk"), and reads them through the buffer pool, charging one
block read each.  Fingerprints are recomputed from the decoded columns on
every load, so a snapshot that decodes differently than it was saved is
rejected rather than served.

Only what cannot be recomputed is saved: a dataset's point columns and its
checkpointed results.  Every catalog write goes through one helper, which
also drops the grid blobs that catalogs of earlier builds list and deletes
them once nothing references them; read-only use (:func:`open_catalog`,
``load_dataset``) never writes or deletes anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import obs
from repro.em.codecs import COLUMN_CODEC
from repro.em.config import EMConfig
from repro.em.context import EMContext
from repro.em.counters import IOStats
from repro.errors import PersistError
from repro.geometry import WeightedPoint
from repro.em.serializer import RecordCodec
from repro.persist.format import (
    POINTS_CODEC_NAME,
    RESULT_CODEC,
    DatasetManifest,
    SnapshotCatalog,
    fingerprint_columns,
    load_catalog,
    points_from_columns,
    read_blob,
    save_catalog,
    write_blob,
)

__all__ = ["LoadedSnapshot", "SnapshotStore", "open_catalog"]


def open_catalog(persist_dir) -> SnapshotCatalog:
    """Read the manifest of a persist directory without opening a store.

    Cheap (one small JSON file, no block I/O); use it to inspect what a
    directory holds before deciding to restore.  Returns an empty catalog for
    a directory that exists but has never been saved to.
    """
    return load_catalog(Path(persist_dir))


@dataclass(frozen=True, slots=True)
class LoadedSnapshot:
    """One dataset read back from the snapshot store (fingerprint-verified)."""

    manifest: DatasetManifest
    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray

    def objects(self) -> List[WeightedPoint]:
        """Materialise the snapshot as a list of weighted points."""
        return points_from_columns(self.xs, self.ys, self.ws)


class SnapshotStore:
    """Durable dataset snapshots under one directory, I/O-accounted in blocks.

    Parameters
    ----------
    persist_dir:
        Directory holding the catalog and blob files; created if missing.
    config:
        External-memory configuration for the accounting substrate (block
        size, buffer size).  Defaults to the paper's (4 KB blocks).  Snapshots
        record their block size; loading one written with a different block
        size raises :class:`~repro.errors.PersistError` rather than silently
        re-chunking, so recorded transfer counts stay comparable.
    """

    def __init__(self, persist_dir, *, config: Optional[EMConfig] = None) -> None:
        self.root = Path(persist_dir)
        self.context = EMContext(config)
        # The directory is only created by the first *save*: pure read paths
        # (warm-start restore, MaxRSSolver.from_snapshot) must not turn a
        # mistyped persist_dir into a plausible-looking empty store.
        self.catalog = load_catalog(self.root)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def counters(self) -> IOStats:
        """Block-transfer counters charged by every save and load."""
        return self.context.stats

    def dataset_ids(self) -> List[str]:
        """Ids of every dataset in the catalog (sorted for determinism)."""
        return sorted(self.catalog.datasets)

    def manifest_for(self, dataset_id: str) -> Optional[DatasetManifest]:
        """The catalog entry of one dataset (``None`` when absent)."""
        return self.catalog.get(dataset_id)

    def __len__(self) -> int:
        return len(self.catalog)

    def __contains__(self, dataset_id: str) -> bool:
        return dataset_id in self.catalog

    # ------------------------------------------------------------------ #
    # Saving
    # ------------------------------------------------------------------ #
    def save_dataset(self, dataset_id: str, xs: np.ndarray, ys: np.ndarray,
                     ws: np.ndarray) -> DatasetManifest:
        """Persist one dataset's point columns as one blob.

        Overwrites any existing snapshot under ``dataset_id``; blobs of the
        old snapshot that nothing references any more are deleted.  Returns
        the new manifest; the catalog file is rewritten atomically.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        fingerprint = fingerprint_columns(xs, ys, ws)
        points_file = f"{fingerprint[:16]}.points"
        self._write_columns(points_file, [xs, ys, ws])

        # Re-saving byte-identical data keeps any persisted results (they are
        # keyed by the fingerprint and still valid); a new fingerprint drops
        # them -- results for data a name no longer means must not survive.
        previous = self.catalog.datasets.get(dataset_id)
        same_data = previous is not None and previous.fingerprint == fingerprint
        manifest = DatasetManifest(
            dataset_id=dataset_id,
            fingerprint=fingerprint,
            count=int(len(xs)),
            total_weight=float(ws.sum()) if len(ws) else 0.0,
            codec=POINTS_CODEC_NAME,
            block_size=self.context.config.block_size,
            points_file=points_file,
            results_file=previous.results_file if same_data else None,
            results_count=previous.results_count if same_data else 0,
        )
        self.catalog.datasets[dataset_id] = manifest
        self._commit(previous)
        return manifest

    def save_results(self, dataset_id: str,
                     records: List[tuple]) -> DatasetManifest:
        """Persist a dataset's hot refined-MaxRS results (may be empty).

        ``records`` are :data:`~repro.persist.format.RESULT_CODEC` tuples --
        the engine's ``checkpoint()`` builds them from its result cache.  An
        empty list clears any previously persisted results.  The dataset must
        already be in the catalog (results ride along with a snapshot, they
        are not standalone).
        """
        manifest = self.catalog.get(dataset_id)
        if manifest is None:
            raise PersistError(
                f"cannot persist results for {dataset_id!r}: the dataset has "
                "no snapshot in the catalog"
            )
        if not records and manifest.results_file is None:
            return manifest  # nothing persisted, nothing to clear
        self.root.mkdir(parents=True, exist_ok=True)
        results_file: Optional[str] = None
        if records:
            # Unlike points blobs, results are per-dataset-id state (each id
            # checkpoints its own hot set), so the stem carries an id hash:
            # two ids over byte-identical data must not clobber each other.
            id_hash = hashlib.sha256(dataset_id.encode("utf-8")).hexdigest()[:8]
            results_file = f"{manifest.fingerprint[:16]}-{id_hash}.results"
            self._write_records(results_file, RESULT_CODEC, records)
        self.catalog.datasets[dataset_id] = dataclasses.replace(
            manifest, results_file=results_file, results_count=len(records))
        self._commit(manifest)
        return self.catalog.datasets[dataset_id]

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def load_results(self, dataset_id: str) -> List[tuple]:
        """Read back a dataset's persisted hot results (empty when none).

        Raises
        ------
        PersistError
            When the dataset has no snapshot, or its results blob is corrupt
            or holds a different record count than the manifest promises.
        """
        manifest = self.catalog.get(dataset_id)
        if manifest is None:
            raise PersistError(
                f"dataset {dataset_id!r} is not in the snapshot catalog of {self.root}"
            )
        if manifest.results_file is None:
            return []
        data, num_records = self._read_raw(manifest.results_file,
                                           expected_block_size=manifest.block_size,
                                           record_size=RESULT_CODEC.record_size)
        if num_records != manifest.results_count:
            raise PersistError(
                f"results blob of {dataset_id!r} holds {num_records} records, "
                f"manifest promises {manifest.results_count}"
            )
        return RESULT_CODEC.decode_all(data)

    def load_dataset(self, dataset_id: str) -> LoadedSnapshot:
        """Read one dataset back, verifying checksum and fingerprint.

        Raises
        ------
        PersistError
            When the dataset is not in the catalog, was written with an
            incompatible codec or block size, or its points blob is corrupt.
        """
        manifest = self.catalog.get(dataset_id)
        if manifest is None:
            raise PersistError(
                f"dataset {dataset_id!r} is not in the snapshot catalog of {self.root}"
            )
        if manifest.codec != POINTS_CODEC_NAME:
            raise PersistError(
                f"snapshot of {dataset_id!r} uses codec {manifest.codec!r}; "
                f"this build reads {POINTS_CODEC_NAME!r}"
            )
        flat = self._read_columns(manifest.points_file,
                                  expected_block_size=manifest.block_size)
        if len(flat) != 3 * manifest.count:
            raise PersistError(
                f"snapshot of {dataset_id!r} holds {len(flat)} column values, "
                f"expected {3 * manifest.count}"
            )
        xs = flat[:manifest.count].copy()
        ys = flat[manifest.count:2 * manifest.count].copy()
        ws = flat[2 * manifest.count:].copy()
        fingerprint = fingerprint_columns(xs, ys, ws)
        if fingerprint != manifest.fingerprint:
            raise PersistError(
                f"snapshot of {dataset_id!r} decodes to fingerprint "
                f"{fingerprint[:12]}..., catalog says "
                f"{manifest.fingerprint[:12]}...; rejecting the corrupt snapshot"
            )
        return LoadedSnapshot(manifest=manifest, xs=xs, ys=ys, ws=ws)

    # ------------------------------------------------------------------ #
    # Deletion
    # ------------------------------------------------------------------ #
    def delete_dataset(self, dataset_id: str) -> bool:
        """Drop a dataset from the catalog and remove unshared blob files.

        Returns whether the dataset was present.  Blob files are only
        unlinked when no other catalog entry references them (identical
        datasets registered under several ids share blobs).
        """
        manifest = self.catalog.datasets.pop(dataset_id, None)
        if manifest is None:
            return False
        self._commit(manifest)
        return True

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _write_records(self, file_name: str, codec: RecordCodec,
                       records) -> None:
        """Write records as one record file, mirror its blocks to a blob."""
        self._write_file(file_name, codec,
                         lambda writer: writer.extend(records))

    def _write_columns(self, file_name: str, columns: List[np.ndarray]) -> None:
        """Write float64 columns, one after another, as a columnar blob.

        The columns go through the writer's block-array path, matching the
        read path's ``frombuffer``: the bytes and the charged block writes
        are those of packing 8-byte records one at a time.
        """
        def append_columns(writer) -> None:
            for column in columns:
                writer.append_rows(
                    np.asarray(column, dtype=np.float64).reshape(-1, 1))

        self._write_file(file_name, COLUMN_CODEC, append_columns)

    def _write_file(self, file_name: str, codec: RecordCodec, fill) -> None:
        """Write one record file with ``fill(writer)``, mirror it to a blob.

        The record file is written through the buffer pool (one charged block
        write per block, the EM cost of spilling the snapshot), its finished
        block images are copied into the host blob, and the simulated blocks
        are then released -- the blob is the durable copy.
        """
        with obs.span("persist.blob_io", file=file_name, mode="write") as span:
            before = self.context.stats.snapshot()
            file = self.context.create_file(codec, name=file_name)
            try:
                with file.writer() as writer:
                    fill(writer)
                payloads = [self.context.device.peek(block_id)
                            for block_id in file.block_ids]
                write_blob(self.root / file_name,
                           block_size=self.context.config.block_size,
                           payloads=payloads, num_records=file.num_records)
            finally:
                # Release the simulated blocks even when the host write fails
                # -- the store's EMContext is long-lived and must not leak
                # them.
                file.delete()
            delta = self.context.stats.since(before)
            span.set_attributes(block_reads=delta.block_reads,
                                block_writes=delta.block_writes)

    def _read_raw(self, file_name: str, *, expected_block_size: int,
                  record_size: int):
        """Read a blob back through the substrate as one verified byte stream.

        Charges one block read per block: the blob's verified block images
        are installed on the simulated disk for free
        (:meth:`~repro.em.device.BlockDevice.restore_block`) and then fetched
        through the buffer pool.  Returns ``(data, num_records)`` with
        ``data`` trimmed to exactly the records' bytes.
        """
        with obs.span("persist.blob_io", file=file_name, mode="read") as span:
            before = self.context.stats.snapshot()
            block_size, num_records, blocks = read_blob(self.root / file_name)
            if block_size != expected_block_size:
                raise PersistError(
                    f"snapshot blob {file_name} carries block size "
                    f"{block_size}, its manifest says {expected_block_size}"
                )
            if block_size != self.context.config.block_size:
                raise PersistError(
                    f"snapshot blob {file_name} was written with "
                    f"{block_size} B blocks; this store is configured for "
                    f"{self.context.config.block_size} B blocks -- open it "
                    "with a matching EMConfig"
                )
            device = self.context.device
            pool = self.context.pool
            block_ids = [device.restore_block(block) for block in blocks]
            # Each block holds a whole number of records followed by padding;
            # trim per block before joining or the pad bytes of every full
            # block would shift into the record stream (records_per_block *
            # record_size < block_size whenever the record size does not
            # divide the block).
            usable = (block_size // record_size) * record_size
            parts = []
            for block_id in block_ids:
                parts.append(pool.get(block_id).data[:usable])
            for block_id in block_ids:
                pool.invalidate(block_id)
                device.free(block_id)
            data = b"".join(parts)[:num_records * record_size]
            if len(data) != num_records * record_size:
                raise PersistError(
                    f"snapshot blob {file_name} holds fewer bytes than its "
                    f"{num_records} records require"
                )
            delta = self.context.stats.since(before)
            span.set_attributes(block_reads=delta.block_reads,
                                block_writes=delta.block_writes)
            return data, num_records

    def _read_columns(self, file_name: str, *,
                      expected_block_size: int) -> np.ndarray:
        """Read a columnar blob back as one float64 stream."""
        data, _ = self._read_raw(file_name,
                                 expected_block_size=expected_block_size,
                                 record_size=COLUMN_CODEC.record_size)
        return np.frombuffer(data, dtype="<f8")

    def _commit(self, dropped: Optional[DatasetManifest]) -> None:
        """Rewrite the catalog, then unlink the blobs nothing references.

        The one place catalogs are written.  ``dropped`` is the entry the
        caller just replaced or removed; its blobs are candidates for
        deletion.  So is every grid blob that an entry of an earlier build
        still lists: the names are dropped from the catalog written here, and
        the blobs are unlinked once that catalog is in place.
        """
        candidates = list(dropped.files()) if dropped is not None else []
        for dataset_id, manifest in list(self.catalog.datasets.items()):
            if manifest.legacy_grid_files:
                candidates.extend(manifest.legacy_grid_files)
                self.catalog.datasets[dataset_id] = dataclasses.replace(
                    manifest, legacy_grid_files=())
        save_catalog(self.root, self.catalog)
        for file_name in candidates:
            if not self.catalog.references(file_name):
                (self.root / file_name).unlink(missing_ok=True)
