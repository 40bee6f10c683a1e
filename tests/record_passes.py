"""Record-at-a-time references of the external-memory passes.

Every external-memory pass of the program moves whole blocks as numpy
arrays (see :mod:`repro.em.record_file`).  Each function here is one of
those passes written one record at a time: it reads and writes the same
blocks, in the same order, with the same bytes.  The differential tests
compare the two on file bytes, record counts, block reads and writes and
the buffer pool's LRU state (``external_cases.pool_state``), and
``external_cases.use_record_paths`` swaps these functions into the solvers.

* :func:`external_sort` -- ``list.sort`` per run and a heap merge of
  ``(record, run)`` entries;
* :func:`objects_file_to_event_file` -- the dual transform;
* :func:`collect_edge_xs`, :func:`choose_boundaries` and
  :func:`partition_event_file` -- the division phase.  The partition
  replays the edge scan's reads from its blocks, record by record, and
  writes the blocks one input block completes in record order, so it may
  give out block ids in another order than the program (bytes and counts
  are the same);
* :func:`merge_sweep` -- MergeSweep as a heap over the streams and
  :class:`~repro.core.segment_tree.MaxAddSegmentTree` s of the effective
  sums (point updates for tuples, range updates for spanning edges),
  ``O(log m)`` per record.  It writes the program's slab-file bit for bit
  whenever the sums are exactly representable (integer weights).  Where an
  infinite weight meets its opposite edge, its tree's nodes hold NaN and
  pick by their position, so it is no reference there;
* :func:`coverage_of_candidates_file` -- ApproxMaxCRS's candidate scan.

Their arguments are not validated: the tests check the program's own
rejections.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

from repro import obs
from repro.core.beststrip import BestStrip, BestStripTracker
from repro.core.segment_tree import MaxAddSegmentTree
from repro.core.slab import Slab, make_subslabs
from repro.em.codecs import (EVENT_BOTTOM, EVENT_CODEC, EVENT_TOP,
                             MAX_INTERVAL_CODEC)
from repro.em.context import EMContext
from repro.em.record_file import RecordFile
from repro.em.serializer import RecordCodec
from repro.geometry import Point

Record = Tuple[float, ...]

#: Relative and absolute tolerance of ``GetMaxInterval``'s tie test, as in
#: the program's merge.
_TIE_TOLERANCE = 1e-12


def _write_records(file: RecordFile, records) -> RecordFile:
    with file.writer() as writer:
        for record in records:
            writer.append(record)
    return file


# ---------------------------------------------------------------------- #
# External sort
# ---------------------------------------------------------------------- #
def external_sort(ctx: EMContext, file: RecordFile, codec: RecordCodec, *,
                  delete_input: bool = False) -> RecordFile:
    """:func:`repro.em.external_sort.external_sort` record by record."""
    memory_records = ctx.memory_capacity_records(codec.record_size)
    runs: List[RecordFile] = []
    chunk: List[Record] = []
    for record in file.reader():
        chunk.append(record)
        if len(chunk) >= memory_records:
            runs.append(_write_run(ctx, codec, chunk, len(runs)))
            chunk = []
    if chunk:
        runs.append(_write_run(ctx, codec, chunk, len(runs)))
    if delete_input:
        file.delete()
    if not runs:
        return ctx.create_file(codec, name=f"{file.name}.sorted")
    fanout = max(2, ctx.config.num_buffer_blocks - 1)
    while len(runs) > 1:
        runs = [_merge_runs(ctx, codec, runs[start:start + fanout])
                for start in range(0, len(runs), fanout)]
    result = runs[0]
    result.name = f"{file.name}.sorted"
    return result


def _write_run(ctx: EMContext, codec: RecordCodec, chunk: List[Record],
               index: int) -> RecordFile:
    chunk.sort()
    return _write_records(ctx.create_file(codec, name=f"sort-run-{index}"),
                          chunk)


def _merge_runs(ctx: EMContext, codec: RecordCodec,
                group: Sequence[RecordFile]) -> RecordFile:
    if len(group) == 1:
        return group[0]
    output = ctx.create_file(codec, name="sort-merge")
    heap = []
    for index, run in enumerate(group):
        reader = run.reader()
        record = next(reader, None)
        if record is not None:
            heap.append((record, index, reader))
    heapq.heapify(heap)
    with output.writer() as writer:
        while heap:
            record, index, reader = heapq.heappop(heap)
            writer.append(record)
            following = next(reader, None)
            if following is not None:
                heapq.heappush(heap, (following, index, reader))
    for run in group:
        run.delete()
    return output


# ---------------------------------------------------------------------- #
# Dual transform
# ---------------------------------------------------------------------- #
def objects_file_to_event_file(ctx: EMContext, objects_file: RecordFile,
                               width: float, height: float,
                               name: str = "events") -> RecordFile:
    """:func:`repro.core.transform.objects_file_to_event_file` record by
    record."""
    event_file = ctx.create_file(EVENT_CODEC, name=name)
    half_w = width / 2.0
    half_h = height / 2.0
    with event_file.writer() as writer:
        for x, y, weight in objects_file.reader():
            x1 = x - half_w
            x2 = x + half_w
            writer.append((y - half_h, EVENT_BOTTOM, x1, x2, weight))
            writer.append((y + half_h, EVENT_TOP, x1, x2, weight))
    return event_file


# ---------------------------------------------------------------------- #
# Division
# ---------------------------------------------------------------------- #
def collect_edge_xs(blocks, slab: Slab) -> List[float]:
    """:func:`repro.core.slab.collect_edge_xs` as a list, record by
    record."""
    lo, hi = slab.lo, slab.hi
    edges: List[float] = []
    for block in blocks:
        for _, _, x1, x2, _ in block.tolist():
            if lo < x1 < hi:
                edges.append(x1)
            if lo < x2 < hi:
                edges.append(x2)
    return edges


def choose_boundaries(edge_xs, fanout: int) -> List[float]:
    """:func:`repro.core.slab.choose_boundaries` with ``sorted()``."""
    ordered = sorted(edge_xs)
    count = len(ordered)
    boundaries: List[float] = []
    for position in range(1, fanout):
        pick = (position * count) // fanout
        if not 0 < pick < count:
            continue
        candidate = ordered[pick]
        if candidate > ordered[0] and (not boundaries
                                       or candidate > boundaries[-1]):
            boundaries.append(candidate)
    return boundaries


def partition_event_file(ctx: EMContext, event_file: RecordFile,
                         blocks: list, slab: Slab,
                         boundaries: Sequence[float], *,
                         name_prefix: str = "slab"
                         ) -> Tuple[List[RecordFile], RecordFile, List[Slab]]:
    """:func:`repro.core.slab.partition_event_file` record by record.

    Replays the scan that read ``blocks``, taking each out of the list as
    it goes: re-reads a block, then splits its records.
    """
    sub_slabs = make_subslabs(slab, boundaries)
    sub_files = [ctx.create_file(EVENT_CODEC, name=f"{name_prefix}-{i}-events")
                 for i in range(len(sub_slabs))]
    spanning_file = ctx.create_file(EVENT_CODEC, name=f"{name_prefix}-spanning")
    writers = [f.writer() for f in sub_files]
    spanning_writer = spanning_file.writer()
    bs = list(boundaries)
    slab_lo, slab_hi = slab.lo, slab.hi
    for block_index in range(len(blocks)):
        records = blocks.pop(0).tolist()
        event_file.reread_block(block_index)
        for y, kind, x1, x2, weight in records:
            a = max(x1, slab_lo)
            b = min(x2, slab_hi)
            if a >= b:
                # Clipped away: spans no sub-slab, keeps its h-line.
                spanning_writer.append((y, kind, a, b, weight))
                continue
            i = bisect_right(bs, a)
            j = bisect_left(bs, b)
            lo_i = bs[i - 1] if i > 0 else slab_lo
            hi_i = bs[i] if i < len(bs) else slab_hi
            if i == j:
                if a <= lo_i and b >= hi_i:
                    spanning_writer.append((y, kind, lo_i, hi_i, weight))
                else:
                    writers[i].append((y, kind, a, b, weight))
                continue
            lo_j = bs[j - 1] if j > 0 else slab_lo
            hi_j = bs[j] if j < len(bs) else slab_hi
            # Left piece: keeps the original left edge when it is strictly
            # inside sub-slab i; otherwise sub-slab i is fully spanned.
            if a > lo_i:
                writers[i].append((y, kind, a, hi_i, weight))
                span_lo = hi_i
            else:
                span_lo = lo_i
            # Right piece, symmetrically.
            if b < hi_j:
                writers[j].append((y, kind, lo_j, b, weight))
                span_hi = lo_j
            else:
                span_hi = hi_j
            if span_lo < span_hi:
                spanning_writer.append((y, kind, span_lo, span_hi, weight))
    for writer in (*writers, spanning_writer):
        writer.close()
    return sub_files, spanning_file, sub_slabs


def spanned_slab_range(sub_slabs: Sequence[Slab], x1: float,
                       x2: float) -> Tuple[int, int]:
    """Return the inclusive range ``(first, last)`` of sub-slab indices fully
    spanned by the x-range ``[x1, x2]``, or ``(1, 0)`` (an empty range) when no
    sub-slab is fully covered."""
    los = [s.lo for s in sub_slabs]
    his = [s.hi for s in sub_slabs]
    first = bisect_left(los, x1)
    last = bisect_right(his, x2) - 1
    if first > last:
        return 1, 0
    return first, last


# ---------------------------------------------------------------------- #
# MergeSweep
# ---------------------------------------------------------------------- #
def merge_sweep(ctx: EMContext, sub_slabs: Sequence[Slab],
                slab_files: Sequence[RecordFile], spanning_file: RecordFile,
                *, name: str = "merged",
                span=obs.NOOP_SPAN) -> Tuple[RecordFile, BestStrip]:
    """:func:`repro.core.merge_sweep.merge_sweep` record by record (it
    applies every record as it reads it: ``applies`` is 0)."""
    m = len(sub_slabs)
    tree = MaxAddSegmentTree(m)       # effective sums (base + upSum)
    upsum = MaxAddSegmentTree(m)      # upSum alone (range add / point query)
    base_interval: List[Tuple[float, float]] = [(s.lo, s.hi) for s in sub_slabs]

    # Heap entries: (y, stream, record, reader); the spanning stream is m,
    # after every slab-file at one y.  Streams are unique, so neither
    # records nor readers are ever compared.
    readers = [f.reader() for f in (*slab_files, spanning_file)]
    heap = []
    for stream, reader in enumerate(readers):
        record = next(reader, None)
        if record is not None:
            heap.append((record[0], stream, record, reader))
    heapq.heapify(heap)

    output = ctx.create_file(MAX_INTERVAL_CODEC, name=name)
    tracker = BestStripTracker()
    with output.writer() as writer:
        while heap:
            y = heap[0][0]
            while heap and heap[0][0] == y:
                _, stream, record, reader = heapq.heappop(heap)
                if stream == m:
                    _apply_spanning(record, sub_slabs, tree, upsum)
                else:
                    _apply_tuple(record, stream, tree, upsum, base_interval)
                following = next(reader, None)
                if following is not None:
                    heapq.heappush(heap, (following[0], stream, following,
                                          reader))
            x_lo, x_hi, best_value = _current_max_interval(
                tree, base_interval, m)
            writer.append((y, x_lo, x_hi, best_value))
            tracker.observe(y, x_lo, x_hi, best_value)
    tracker.finish()
    span.set_attribute("applies", 0)
    return output, tracker.best


def _apply_spanning(record: Record, sub_slabs: Sequence[Slab],
                    tree: MaxAddSegmentTree,
                    upsum: MaxAddSegmentTree) -> None:
    """Apply one spanning-rectangle edge: adjust ``upSum`` of the spanned
    slabs."""
    _, kind, x1, x2, weight = record
    first, last = spanned_slab_range(sub_slabs, x1, x2)
    if first > last:
        return
    delta = weight if kind == EVENT_BOTTOM else -weight
    tree.range_add(first, last, delta)
    upsum.range_add(first, last, delta)


def _apply_tuple(record: Record, slab_index: int, tree: MaxAddSegmentTree,
                 upsum: MaxAddSegmentTree,
                 base_interval: List[Tuple[float, float]]) -> None:
    """Apply one slab-file tuple: replace the sub-slab's base max-interval."""
    _, x1, x2, base_sum = record
    effective_new = base_sum + upsum.point_value(slab_index)
    effective_old = tree.point_value(slab_index)
    tree.range_add(slab_index, slab_index, effective_new - effective_old)
    base_interval[slab_index] = (x1, x2)


def _current_max_interval(tree: MaxAddSegmentTree,
                          base_interval: Sequence[Tuple[float, float]],
                          m: int) -> Tuple[float, float, float]:
    """Return the merged max-interval and its sum for the current strip.

    Implements ``GetMaxInterval``: the winning sub-slab's interval is extended
    over adjacent sub-slabs whose intervals touch it and whose effective sums
    tie with the maximum.
    """
    best_value = tree.global_max()
    winner = tree.argmax_leftmost()
    x_lo, x_hi = base_interval[winner]
    j = winner - 1
    while j >= 0 and base_interval[j][1] == x_lo and \
            tie(tree.point_value(j), best_value):
        x_lo = base_interval[j][0]
        j -= 1
    j = winner + 1
    while j < m and base_interval[j][0] == x_hi and \
            tie(tree.point_value(j), best_value):
        x_hi = base_interval[j][1]
        j += 1
    return x_lo, x_hi, best_value


def tie(value: float, best: float) -> bool:
    """``GetMaxInterval``'s floating-point-tolerant equality."""
    return math.isclose(value, best, rel_tol=_TIE_TOLERANCE,
                        abs_tol=_TIE_TOLERANCE)


# ---------------------------------------------------------------------- #
# Candidate coverage
# ---------------------------------------------------------------------- #
def coverage_of_candidates_file(objects_file: RecordFile,
                                candidates: Sequence[Point],
                                diameter: float) -> List[float]:
    """:func:`repro.circles.coverage.coverage_of_candidates_file` record by
    record."""
    radius_sq = (diameter / 2.0) ** 2
    totals = [0.0] * len(candidates)
    for x, y, weight in objects_file.reader():
        for index, candidate in enumerate(candidates):
            dx = x - candidate.x
            dy = y - candidate.y
            if dx * dx + dy * dy < radius_sq:
                totals[index] += weight
    return totals
