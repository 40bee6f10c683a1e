"""Fixed-size record codecs.

Every disk-resident file in the reproduction stores *fixed-size* records, so a
block of ``block_size`` bytes holds exactly ``B = block_size // record_size``
records.  A codec describes how one record (a flat tuple of numbers) maps to
bytes.  The concrete codecs used by the algorithms live in
:mod:`repro.em.codecs`; this module provides the generic machinery.

Infinite coordinates (``+/-inf``) are legal record fields -- slab-files start
with a ``-inf`` left endpoint, for instance -- and IEEE-754 doubles represent
them exactly, so no special casing is needed.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.errors import SerializationError

__all__ = ["RecordCodec", "StructRecordCodec"]

Record = Tuple[float, ...]


class RecordCodec:
    """Interface of a fixed-size record codec.

    Subclasses must provide :attr:`record_size`, :meth:`encode_one` and
    :meth:`decode_all`.  The block-level helpers (:meth:`encode_block`,
    :meth:`decode_block`) are shared.
    """

    #: Size in bytes of one encoded record.
    record_size: int

    #: Number of fields when a record is a run of little-endian float64s
    #: (so a block is a ``(records, fields)`` float64 array), else ``None``.
    float64_fields: Optional[int] = None

    def encode_one(self, record: Record) -> bytes:
        """Encode a single record to exactly :attr:`record_size` bytes."""
        raise NotImplementedError

    def decode_all(self, data: bytes) -> List[Record]:
        """Decode a buffer containing a whole number of records."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Block helpers
    # ------------------------------------------------------------------ #
    def encode_block(self, records: Sequence[Record], block_size: int) -> bytes:
        """Encode up to one block's worth of records.

        Raises
        ------
        SerializationError
            If the records do not fit in ``block_size`` bytes.
        """
        payload = b"".join(self.encode_one(r) for r in records)
        if len(payload) > block_size:
            raise SerializationError(
                f"{len(records)} records of {self.record_size} B "
                f"exceed block size {block_size} B"
            )
        return payload

    def decode_block(self, data: bytes) -> List[Record]:
        """Decode a block image produced by :meth:`encode_block`."""
        usable = (len(data) // self.record_size) * self.record_size
        return self.decode_all(data[:usable])


class StructRecordCodec(RecordCodec):
    """A codec backed by a :mod:`struct` format string.

    Parameters
    ----------
    fmt:
        A struct format describing one record, e.g. ``"<ddd"`` for an object
        record of two coordinates and a weight.  Little-endian formats are
        recommended so the record size is platform independent.

    Examples
    --------
    >>> codec = StructRecordCodec("<dd")
    >>> codec.record_size
    16
    >>> codec.decode_all(codec.encode_one((1.0, 2.0)))
    [(1.0, 2.0)]
    """

    def __init__(self, fmt: str) -> None:
        self._struct = struct.Struct(fmt)
        self.record_size = self._struct.size
        self.fmt = fmt
        if fmt[:1] == "<" and len(fmt) > 1 and set(fmt[1:]) == {"d"}:
            self.float64_fields = len(fmt) - 1

    def encode_one(self, record: Record) -> bytes:
        try:
            return self._struct.pack(*record)
        except struct.error as exc:
            raise SerializationError(
                f"record {record!r} does not match format {self.fmt!r}: {exc}"
            ) from exc

    def decode_all(self, data: bytes) -> List[Record]:
        if len(data) % self.record_size != 0:
            raise SerializationError(
                f"buffer of {len(data)} B is not a multiple of record size "
                f"{self.record_size} B"
            )
        return list(self._struct.iter_unpack(data))
