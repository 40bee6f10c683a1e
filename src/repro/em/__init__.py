"""Simulated external-memory (EM) substrate.

This package is the cost model of the reproduction.  It simulates the standard
EM model used by the paper -- a disk of fixed-size blocks, a main-memory
buffer of ``M/B`` blocks, and I/O measured as the number of transferred blocks
-- entirely in process and deterministically:

* :class:`~repro.em.config.EMConfig` -- block size and buffer size (the two
  knobs of Table 3) plus the derived parameters ``B``, ``M`` and the merge
  fan-out ``m``.
* :class:`~repro.em.device.BlockDevice` -- the simulated disk; every block
  transfer increments :class:`~repro.em.counters.IOStats`.
* :class:`~repro.em.buffer_pool.BufferPool` -- LRU write-back cache of
  ``M/B`` frames standing in for main memory.
* :class:`~repro.em.record_file.RecordFile` -- block-structured files of
  fixed-size records (datasets, slab-files, event files, sorted runs).
* :class:`~repro.em.external_sort.ExternalSorter` -- the textbook multiway
  external merge sort, ``O((N/B) log_{M/B}(N/B))`` I/Os.
* :class:`~repro.em.context.EMContext` -- the bundle handed to every
  algorithm.

Substitution note: the paper ran on a physical disk and
measured transferred 4 KB blocks; this package reproduces the *count* of
transfers exactly while remaining machine independent.
"""

from repro.em.buffer_pool import BufferPool, Frame
from repro.em.codecs import (
    COLUMN_CODEC,
    EVENT_BOTTOM,
    EVENT_CODEC,
    EVENT_TOP,
    MAX_INTERVAL_CODEC,
    OBJECT_CODEC,
    RECT_CODEC,
    object_to_record,
    record_to_object,
    record_to_rect,
    rect_to_record,
)
from repro.em.config import DEFAULT_BLOCK_SIZE, DEFAULT_BUFFER_SIZE, KIB, EMConfig
from repro.em.context import EMContext
from repro.em.counters import IOSnapshot, IOStats
from repro.em.device import BlockDevice
from repro.em.external_sort import ExternalSorter, external_sort
from repro.em.record_file import RecordFile, RecordReader, RecordWriter
from repro.em.serializer import RecordCodec, StructRecordCodec

__all__ = [
    "BlockDevice",
    "BufferPool",
    "COLUMN_CODEC",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_BUFFER_SIZE",
    "EMConfig",
    "EMContext",
    "EVENT_BOTTOM",
    "EVENT_CODEC",
    "EVENT_TOP",
    "ExternalSorter",
    "Frame",
    "IOSnapshot",
    "IOStats",
    "KIB",
    "MAX_INTERVAL_CODEC",
    "OBJECT_CODEC",
    "RECT_CODEC",
    "RecordCodec",
    "RecordFile",
    "RecordReader",
    "RecordWriter",
    "StructRecordCodec",
    "external_sort",
    "object_to_record",
    "record_to_object",
    "record_to_rect",
    "rect_to_record",
]
