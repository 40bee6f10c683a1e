"""Multiway external merge sort.

ExactMaxRS requires its input rectangles to be sorted by x-coordinate before
the division phase ("The dataset needs to be sorted by x-coordinates before it
is fed into Algorithm 2", proof of Theorem 2), and the plane-sweep baselines
require their event files to be sorted by y-coordinate.  Both use the textbook
external merge sort implemented here:

1. *Run formation*: read ``M`` records at a time, sort them in memory, and
   write each sorted chunk as a run -- ``O(N/B)`` I/Os.
2. *Multiway merge*: repeatedly merge up to ``M/B - 1`` runs into one (one
   input buffer block per run plus one output buffer block) until a single
   run remains -- ``O(N/B)`` I/Os per level, ``O(log_{M/B}(N/M))`` levels.

Total cost ``O((N/B) log_{M/B}(N/B))``, the sorting bound that also lower
bounds the MaxRS problem itself (Theorem 2).

Records are ordered as whole tuples (the first field decides, ties go to
the next, equal records keep their input order), and every file of
ExactMaxRS and the baselines stores float64 records, so the sort runs on
block arrays:

* a run is read block by block, ordered by one stable ``np.lexsort`` over
  all columns and written with ``append_rows``;
* a merge holds the unconsumed rows of every run, ordered by byte keys that
  compare as the records do, then by run index -- the order of a heap of
  ``(record, run)`` entries.  It steps one run block at a time, exactly
  when such a heap merge would read: it emits every pending row up to the
  smallest last-read row among the runs that still have unread blocks,
  flushes the output blocks that fill, then reads that run's next block.

So the sort writes the bytes of a ``list.sort`` per run and a heap merge,
with their block reads and writes, in the same order.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.em.context import EMContext
from repro.em.record_file import RecordFile
from repro.em.serializer import RecordCodec
from repro.errors import AlgorithmError

__all__ = ["ExternalSorter", "external_sort"]


class ExternalSorter:
    """External merge sort over :class:`~repro.em.record_file.RecordFile`.

    Parameters
    ----------
    ctx:
        The external-memory context providing disk, buffer pool and counters.
    codec:
        Codec of the records being sorted (also used for the temporary
        runs); its records must be float64 runs.
    """

    def __init__(self, ctx: EMContext, codec: RecordCodec) -> None:
        self.ctx = ctx
        self.codec = codec

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def sort(self, file: RecordFile, *, delete_input: bool = False) -> RecordFile:
        """Return a new file containing the records of ``file`` in sorted order.

        Parameters
        ----------
        file:
            The input file; it is left untouched unless ``delete_input`` is
            set.
        delete_input:
            When ``True`` the input file's blocks are released once the runs
            have been formed (the recursion of ExactMaxRS discards its
            unsorted temporaries this way).
        """
        runs = self._form_runs(file)
        if delete_input:
            file.delete()
        if not runs:
            return self.ctx.create_file(self.codec, name=f"{file.name}.sorted")
        while len(runs) > 1:
            runs = self._merge_level(runs)
        result = runs[0]
        result.name = f"{file.name}.sorted"
        return result

    # ------------------------------------------------------------------ #
    # Phase 1: run formation
    # ------------------------------------------------------------------ #
    def _form_runs(self, file: RecordFile) -> List[RecordFile]:
        """Runs of ``M`` records, each written as soon as it fills, before
        the next input block is read."""
        memory_records = self.ctx.memory_capacity_records(self.codec.record_size)
        if memory_records < 1:
            raise AlgorithmError("memory cannot hold even one record")
        runs: List[RecordFile] = []
        pending: List = []
        count = 0
        for block in file.iter_block_arrays():
            pending.append(block)
            count += len(block)
            while count >= memory_records:
                rows = np.concatenate(pending)
                runs.append(self._write_run(rows[:memory_records], len(runs)))
                pending = [rows[memory_records:]]
                count -= memory_records
        if count:
            runs.append(self._write_run(np.concatenate(pending), len(runs)))
        return runs

    def _write_run(self, rows, index: int) -> RecordFile:
        # lexsort's last key is the primary one.
        order = np.lexsort(rows.T[::-1])
        run = self.ctx.create_file(self.codec, name=f"sort-run-{index}")
        run.write_all(rows[order])
        return run

    # ------------------------------------------------------------------ #
    # Phase 2: multiway merge
    # ------------------------------------------------------------------ #
    def _merge_level(self, runs: List[RecordFile]) -> List[RecordFile]:
        fanout = max(2, self.ctx.config.num_buffer_blocks - 1)
        merged: List[RecordFile] = []
        for start in range(0, len(runs), fanout):
            group = runs[start:start + fanout]
            merged.append(self._merge_group(group))
        return merged

    def _merge_group(self, group: Sequence[RecordFile]) -> RecordFile:
        """Merge ``group`` into one run, one run block at a time (see the
        module docstring)."""
        if len(group) == 1:
            return group[0]
        output = self.ctx.create_file(self.codec, name="sort-merge")
        next_block = [0] * len(group)
        last: List[bytes] = [b""] * len(group)   # each run's last read key
        # The unconsumed rows of each run's current block, and their keys.
        keys: List = [None] * len(group)
        rows: List = [None] * len(group)

        def read(run: int) -> None:
            rows[run] = group[run].read_block_array(next_block[run])
            next_block[run] += 1
            keys[run] = _order_keys(rows[run], run)
            last[run] = keys[run][-1]

        for run in range(len(group)):
            read(run)
        with output.writer() as writer:
            while True:
                unread = [run for run in range(len(group))
                          if next_block[run] < group[run].num_blocks]
                step = min(unread, key=last.__getitem__) if unread else None
                bound = last[step] if unread else None
                due_keys, due_rows = [], []
                for run, run_keys in enumerate(keys):
                    if not len(run_keys) or (unread and run_keys[0] > bound):
                        continue
                    cut = (len(run_keys) if bound is None else
                           int(np.searchsorted(run_keys, bound, side="right")))
                    due_keys.append(run_keys[:cut])
                    due_rows.append(rows[run][:cut])
                    keys[run], rows[run] = run_keys[cut:], rows[run][cut:]
                if due_keys:
                    order = np.argsort(np.concatenate(due_keys), kind="stable")
                    writer.append_rows(np.concatenate(due_rows)[order])
                if step is None:
                    break
                read(step)
        for run in group:
            run.delete()
        return output


def _order_keys(rows, run: int):
    """Byte keys of ``rows`` that compare as the rows do as tuples of
    floats, then by ``run``.

    Each field maps onto a big-endian unsigned integer in value order
    (negatives flip every bit, the rest their sign bit); ``+ 0.0`` folds
    ``-0.0`` into ``0.0``, which compare equal as floats.
    """
    bits = (rows + 0.0).view(np.int64)
    ordered = np.where(bits < 0, ~bits, bits ^ np.int64(-2 ** 63))
    count, fields = rows.shape
    keys = np.empty((count, 8 * fields + 4), dtype=np.uint8)
    keys[:, :8 * fields] = ordered.astype(">i8").view(np.uint8).reshape(
        count, 8 * fields)
    keys[:, 8 * fields:] = np.frombuffer(run.to_bytes(4, "big"), np.uint8)
    return keys.view(f"S{8 * fields + 4}").ravel()


def external_sort(ctx: EMContext, file: RecordFile, codec: RecordCodec, *,
                  delete_input: bool = False) -> RecordFile:
    """Convenience wrapper around :class:`ExternalSorter`.

    Examples
    --------
    Sort a file of object records by x-coordinate (then y, then weight)::

        sorted_file = external_sort(ctx, objects_file, OBJECT_CODEC)
    """
    return ExternalSorter(ctx, codec).sort(file, delete_input=delete_input)
