"""Disk-resident files of fixed-size records.

A :class:`RecordFile` is an ordered sequence of records stored across disk
blocks of the simulated :class:`~repro.em.device.BlockDevice` and accessed
through the :class:`~repro.em.buffer_pool.BufferPool`.  It is the only way the
algorithms touch the disk, so every I/O they incur flows through this module
and is counted.

Access patterns provided:

* :class:`RecordWriter` -- append-only sequential writer.  Records are packed
  into an in-memory output buffer of one block and written when full, so
  writing ``n`` records costs ``ceil(n / B)`` block writes, matching the
  ``O(n/B)`` accounting used throughout the paper's proofs.
* :class:`RecordReader` -- sequential scanner.  Reading costs one block read
  per block not already resident in the buffer pool.
* :meth:`RecordFile.read_block_records` -- random access to one block as
  records, which the sequential reader reads through.

Files whose records are runs of float64 fields also move whole blocks as
numpy arrays, and every external-memory pass of the program moves them so:

* :meth:`RecordFile.read_block_array` reads one block as a
  ``(records, fields)`` array, :meth:`RecordFile.iter_block_arrays` reads
  the blocks in file order, one per step, :meth:`RecordFile.read_blocks`
  reads them all into a list, and :meth:`RecordFile.read_rows` reads the
  whole file as one array;
* :meth:`RecordWriter.append_rows` appends an array's rows, cut at the
  block boundaries, and :meth:`RecordFile.write_all` takes that path for
  every float64 codec.

Both are charged exactly as a record-at-a-time pass is (one buffer-pool
``get`` per block read, one block written straight through to disk per
full or final block) and the bytes are the struct codec's packing.  The
block passes built on them (the external sort, the dual transform, the
division phase, MergeSweep, the leaves of ExactMaxRS and ApproxMaxCRS's
coverage scan) keep one rule, so their buffer-pool traffic, and with it
every later cache hit, is that of a pass over records: a pass reads input
block ``i``, then makes the writes its records cause, then reads block
``i + 1``.  A pass that already holds a file's rows from an earlier scan
may replay that rule with :meth:`RecordFile.reread_block`, which makes a
read's buffer-pool ``get`` and decodes nothing (the division phase does).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.em.buffer_pool import BufferPool
from repro.em.serializer import RecordCodec
from repro.errors import SerializationError, StorageError

__all__ = ["RecordFile", "RecordReader", "RecordWriter"]

Record = Tuple[float, ...]


class RecordFile:
    """An ordered, block-structured file of fixed-size records.

    Parameters
    ----------
    pool:
        The buffer pool through which all block traffic flows.
    codec:
        Codec describing the record layout.
    name:
        Optional human-readable name used in error messages and debugging.
    """

    def __init__(self, pool: BufferPool, codec: RecordCodec, name: str = "<anonymous>") -> None:
        self.pool = pool
        self.codec = codec
        self.name = name
        self.block_ids: List[int] = []
        self.num_records = 0
        self._deleted = False

    # ------------------------------------------------------------------ #
    # Derived sizes
    # ------------------------------------------------------------------ #
    @property
    def records_per_block(self) -> int:
        """``B`` for this file's record type."""
        return self.pool.device.config.records_per_block(self.codec.record_size)

    @property
    def num_blocks(self) -> int:
        """The number of blocks the file currently occupies."""
        return len(self.block_ids)

    def __len__(self) -> int:
        return self.num_records

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def writer(self) -> "RecordWriter":
        """Return an append-only writer positioned at the end of the file."""
        self._check_alive()
        if self.num_records % self.records_per_block != 0:
            raise StorageError(
                f"file {self.name!r} has a partially filled last block; "
                "appending after a partial block is not supported"
            )
        return RecordWriter(self)

    def write_all(self, records: Iterable[Record]) -> "RecordFile":
        """Append every record in ``records`` (an array or any iterable of
        records) and return ``self``.

        A float64 codec's records are appended as rows: the same bytes and
        block writes as appending them one by one, without a per-record
        encode.  Other codecs append record by record.
        """
        fields = self.codec.float64_fields
        with self.writer() as writer:
            if fields is None:
                for record in records:
                    writer.append(record)
            else:
                writer.append_rows(_as_rows(records, fields))
        return self

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def reader(self) -> "RecordReader":
        """Return a sequential reader positioned at the start of the file."""
        self._check_alive()
        return RecordReader(self)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.reader())

    def read_all(self) -> List[Record]:
        """Read the entire file into memory (caller is responsible for fit)."""
        return list(self.reader())

    def read_rows(self):
        """Read the entire file into memory as one ``(records, fields)``
        float64 array, every block once, in file order."""
        blocks = self.read_blocks()
        if not blocks:
            return np.empty((0, _float64_fields(self.codec)))
        return np.concatenate(blocks)

    def read_blocks(self) -> list:
        """Read every block once, in file order: the arrays
        :meth:`read_block_array` returns."""
        return list(self.iter_block_arrays())

    def iter_block_arrays(self) -> Iterator:
        """Yield every block as a float64 array, in file order.

        Each block is read when the consumer asks for it, so whatever the
        consumer writes between two steps lands between the two reads.
        """
        self._check_alive()
        for block_index in range(len(self.block_ids)):
            yield self.read_block_array(block_index)

    def read_block_records(self, block_index: int) -> List[Record]:
        """Return the records of the ``block_index``-th block of the file."""
        frame = self.pool.get(self._block_id(block_index))
        records = self.codec.decode_block(frame.data)
        if block_index == len(self.block_ids) - 1:
            remainder = self.num_records - block_index * self.records_per_block
            records = records[:remainder]
        return records

    def read_block_array(self, block_index: int):
        """Return the records of the ``block_index``-th block as an array.

        The array has shape ``(records, fields)`` and dtype float64; the
        block is fetched through the buffer pool exactly as
        :meth:`read_block_records` fetches it.  Requires a codec whose
        records are float64 runs.
        """
        fields = _float64_fields(self.codec)
        frame = self.pool.get(self._block_id(block_index))
        count = self._records_in_block(block_index)
        return np.frombuffer(frame.data, dtype="<f8",
                             count=count * fields).reshape(count, fields)

    def reread_block(self, block_index: int) -> None:
        """Read the ``block_index``-th block through the buffer pool, as
        :meth:`read_block_records` does, and decode nothing.

        For a pass that replays a scan of this file from the rows an
        earlier scan read: the pool sees the same ``get``, hit or miss.
        """
        self.pool.get(self._block_id(block_index))

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def delete(self) -> None:
        """Release every block of the file (temporary files of the recursion)."""
        if self._deleted:
            return
        for block_id in self.block_ids:
            self.pool.invalidate(block_id)
            self.pool.device.free(block_id)
        self.block_ids = []
        self.num_records = 0
        self._deleted = True

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _block_id(self, block_index: int) -> int:
        """The id of the file's ``block_index``-th block, checked."""
        self._check_alive()
        if not 0 <= block_index < len(self.block_ids):
            raise StorageError(
                f"block index {block_index} out of range for file {self.name!r} "
                f"with {len(self.block_ids)} blocks"
            )
        return self.block_ids[block_index]

    def _records_in_block(self, block_index: int) -> int:
        if block_index < len(self.block_ids) - 1:
            return self.records_per_block
        return self.num_records - block_index * self.records_per_block

    def _check_alive(self) -> None:
        if self._deleted:
            raise StorageError(f"file {self.name!r} has been deleted")


class RecordWriter:
    """Append-only writer over a :class:`RecordFile`.

    The writer keeps one block's worth of encoded records in memory (the
    output buffer of the EM model) and flushes it to a freshly allocated
    block when full.  Use it as a context manager so the final partial block
    is flushed:

    >>> # doctest-style sketch; see tests for runnable examples
    >>> # with file.writer() as w:
    >>> #     w.append((1.0, 2.0, 3.0))
    """

    def __init__(self, file: RecordFile) -> None:
        self.file = file
        self._per_block = file.records_per_block
        self._encode = file.codec.encode_one
        #: Encoded records (or runs of them) of the block being filled.
        self._parts: List[bytes] = []
        self._count = 0
        self._closed = False

    def append(self, record: Record) -> None:
        """Append one record to the file."""
        self._check_open()
        self._parts.append(self._encode(record))
        self._count += 1
        if self._count >= self._per_block:
            self._flush_buffer()

    def extend(self, records: Iterable[Record]) -> None:
        """Append every record in ``records``."""
        for record in records:
            self.append(record)

    def append_rows(self, rows) -> None:
        """Append the rows of a ``(records, fields)`` float64 array.

        Rows are packed once (``tobytes`` of a little-endian float64 array
        is byte-for-byte the struct codec's packing) and cut at the block
        boundaries, so the file gets the same bytes and the same block
        writes as appending the rows one record at a time.
        """
        self._check_open()
        fields = _float64_fields(self.file.codec)
        data = np.ascontiguousarray(rows, dtype="<f8")
        if data.ndim != 2 or data.shape[1] != fields:
            raise SerializationError(
                f"rows of shape {data.shape} do not match the {fields} "
                f"float64 fields of file {self.file.name!r}"
            )
        packed = memoryview(data.tobytes())
        size = self.file.codec.record_size
        start, count = 0, len(data)
        while count:
            take = min(self._per_block - self._count, count)
            self._parts.append(packed[start * size:(start + take) * size])
            self._count += take
            start += take
            count -= take
            if self._count >= self._per_block:
                self._flush_buffer()

    def close(self) -> None:
        """Flush the final partial block and seal the writer."""
        if self._closed:
            return
        if self._count:
            self._flush_buffer()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"writer for file {self.file.name!r} is closed")

    def _flush_buffer(self) -> None:
        pool = self.file.pool
        block_id = pool.device.allocate()
        # Sequential writers push the block straight to disk and keep no
        # frame: the EM model gives a sequential writer a single output
        # buffer, not a cache of its own output.
        pool.write_through(block_id, b"".join(self._parts))
        self.file.block_ids.append(block_id)
        self.file.num_records += self._count
        self._parts = []
        self._count = 0

    def __enter__(self) -> "RecordWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class RecordReader:
    """Sequential reader over a :class:`RecordFile`.

    Iterating yields records in file order.  Each block is fetched through the
    buffer pool exactly once per pass (more precisely: once per pass during
    which it is not already resident).
    """

    def __init__(self, file: RecordFile) -> None:
        self.file = file
        self._block_index = 0
        self._records: List[Record] = []
        self._record_index = 0

    def __iter__(self) -> "RecordReader":
        return self

    def __next__(self) -> Record:
        while self._record_index >= len(self._records):
            if self._block_index >= self.file.num_blocks:
                raise StopIteration
            self._records = self.file.read_block_records(self._block_index)
            self._record_index = 0
            self._block_index += 1
        record = self._records[self._record_index]
        self._record_index += 1
        return record

    def peek(self) -> Optional[Record]:
        """Return the next record without consuming it, or ``None`` at EOF."""
        while self._record_index >= len(self._records):
            if self._block_index >= self.file.num_blocks:
                return None
            self._records = self.file.read_block_records(self._block_index)
            self._record_index = 0
            self._block_index += 1
        return self._records[self._record_index]


def _as_rows(records, fields: int):
    """``records`` (an array or any iterable of records) as float64 rows."""
    if not isinstance(records, (list, tuple, np.ndarray)):
        records = list(records)
    try:
        rows = np.asarray(records, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SerializationError(
            f"records are not runs of {fields} floats: {exc}") from exc
    return rows.reshape(-1, fields) if rows.size == 0 else rows


def _float64_fields(codec: RecordCodec) -> int:
    """The float64 field count of ``codec``'s records, for the array paths."""
    if codec.float64_fields is None:
        raise SerializationError(
            f"codec {codec!r} does not store float64 records; "
            "read it record by record"
        )
    return codec.float64_fields
