"""MergeSweep -- Algorithm 1 of the paper.

``MergeSweep`` combines the slab-files of ``m`` adjacent sub-slabs, together
with the rectangles that span entire sub-slabs, into the slab-file of their
union.  It sweeps a horizontal line upward across all ``m + 1`` input streams
simultaneously:

* a *spanning* rectangle crossing sub-slab ``i`` raises (bottom edge) or
  lowers (top edge) ``upSum[i]``, the extra weight every point of sub-slab
  ``i`` receives from rectangles that were removed from its sub-problem;
* a max-interval tuple arriving from sub-slab ``i``'s slab-file replaces the
  sub-slab's current best interval and base sum;
* after all edges and tuples sharing one y-coordinate have been applied, the
  sub-slab with the largest *effective* sum (base sum + ``upSum``) provides
  the output tuple for the strip above that h-line; consecutive sub-slabs
  whose intervals touch and tie for the maximum are merged into one longer
  max-interval (the paper's ``GetMaxInterval``).

Whenever numpy imports, the sweep runs in **block batches**:

* one block of every stream is read through the buffer pool, with the same
  ``pool.get`` per block as a sequential reader;
* every pending record whose y lies strictly below the smallest last-read y
  among the streams that still have unread blocks is applied at once.  The
  records at that y wait, and the streams that set it read their next
  block.  So an h-line is emitted only after every record at its y has been
  applied, and each input block is read exactly once: the I/O is one
  sequential pass over the inputs plus one sequential write of the output,
  the ``O(K/B)`` of Lemma 3, unchanged;
* a batch's h-lines are processed in tiles of at most ``_TILE_CELLS``
  (sub-slabs x h-lines) cells.  Each sub-slab's base sum and interval are
  forward-filled down the tile (one run per tuple, expanded by
  ``np.repeat``), ``upSum`` is the cumulative sum of a difference matrix of
  the spanning edges, and each h-line's leftmost maximum gives the output
  tuple, extended by ``GetMaxInterval`` over touching, tied neighbours.

The pending records stay near two blocks per stream, so memory is
``O(m * B)`` records plus one tile.  Per batch the work is a fixed number
of numpy calls, never a loop over the streams.

Without numpy, :func:`heap_merge_sweep` runs: a heap over the streams and a
:class:`~repro.core.segment_tree.MaxAddSegmentTree` of the effective sums
(point updates for tuples, range updates for spanning edges), ``O(log m)``
per record.  It is also the tests' reference: both write the same slab-file,
bit for bit whenever the sums are exactly representable (integer weights),
with the same block reads and writes.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Callable, List, Sequence, Tuple

from repro.core.beststrip import BestStrip, BestStripTracker
from repro.core.segment_tree import MaxAddSegmentTree
from repro.core.slab import Slab
from repro.em.codecs import EVENT_BOTTOM, MAX_INTERVAL_CODEC
from repro.em.context import EMContext
from repro.em.record_file import RecordFile, RecordWriter
from repro.errors import AlgorithmError

try:  # guarded: numpy-less hosts run the heap merge
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None

__all__ = ["merge_sweep"]

#: Most cells (sub-slabs x h-lines) one tile of the block-batched merge
#: materialises, so each of its few matrices stays within 512 KB however
#: many h-lines a batch holds: the tile bounds the merge's peak memory.
_TILE_CELLS = 1 << 16

#: Relative and absolute tolerance of ``GetMaxInterval``'s tie test.
_TIE_TOLERANCE = 1e-12

#: Sub-slabs on each side of the winner where ``GetMaxInterval`` first
#: looks for the run; the few longer runs are redone over every sub-slab.
_CHAIN_REACH = 4

#: Heap tag identifying entries that come from a slab-file stream.
_TAG_TUPLE = 0
#: Heap tag identifying entries that come from the spanning-event stream.
_TAG_SPANNING = 1

_MergeFn = Callable[[Sequence[Slab], Sequence[RecordFile], RecordFile,
                     RecordWriter], BestStrip]


def merge_sweep(
    ctx: EMContext,
    sub_slabs: Sequence[Slab],
    slab_files: Sequence[RecordFile],
    spanning_file: RecordFile,
    *,
    name: str = "merged",
) -> Tuple[RecordFile, BestStrip]:
    """Merge ``m`` slab-files and a spanning-event file into one slab-file.

    Runs in block batches when numpy imports, else record by record (see
    the module docstring); both read and write the same blocks.

    Parameters
    ----------
    ctx:
        External-memory context (output file is created on its disk).
    sub_slabs:
        The ``m`` sub-slabs, left to right; their extents define the initial
        (weight-0) max-intervals and the ``upSum`` ranges of spanning edges.
    slab_files:
        The slab-file of each sub-slab, y-sorted, aligned with ``sub_slabs``.
    spanning_file:
        y-sorted sweep events of the rectangles spanning whole sub-slabs.
    name:
        Name for the output slab-file.

    Returns
    -------
    (output, best):
        The merged slab-file (y-sorted) and the best strip it contains.
    """
    merge = _heap_merge if np is None else _block_merge
    return _run(merge, ctx, sub_slabs, slab_files, spanning_file, name)


def heap_merge_sweep(
    ctx: EMContext,
    sub_slabs: Sequence[Slab],
    slab_files: Sequence[RecordFile],
    spanning_file: RecordFile,
    *,
    name: str = "merged",
) -> Tuple[RecordFile, BestStrip]:
    """:func:`merge_sweep` one record at a time (heap + segment trees).

    The path :func:`merge_sweep` takes when numpy does not import, and the
    reference the block-batched pass is tested against.
    """
    return _run(_heap_merge, ctx, sub_slabs, slab_files, spanning_file, name)


def _run(merge: _MergeFn, ctx: EMContext, sub_slabs: Sequence[Slab],
         slab_files: Sequence[RecordFile], spanning_file: RecordFile,
         name: str) -> Tuple[RecordFile, BestStrip]:
    m = len(sub_slabs)
    if m == 0:
        raise AlgorithmError("MergeSweep needs at least one sub-slab")
    if len(slab_files) != m:
        raise AlgorithmError(
            f"expected {m} slab-files, got {len(slab_files)}"
        )
    output = ctx.create_file(MAX_INTERVAL_CODEC, name=name)
    with output.writer() as writer:
        best = merge(sub_slabs, slab_files, spanning_file, writer)
    return output, best


# ---------------------------------------------------------------------- #
# Block-batched merge (numpy)
# ---------------------------------------------------------------------- #
# Pending records are rows (y, stream, x1, x2, value): a slab-file tuple of
# sub-slab ``stream`` carries its sum, a spanning edge (``stream == m``)
# its signed weight.
def _block_merge(sub_slabs: Sequence[Slab], slab_files: Sequence[RecordFile],
                 spanning_file: RecordFile, writer: RecordWriter) -> BestStrip:
    m = len(sub_slabs)
    streams = [*slab_files, spanning_file]
    num_blocks = np.array([f.num_blocks for f in streams])
    next_block = np.zeros(m + 1, dtype=num_blocks.dtype)
    # y of the last record read from each stream: none of its unread
    # records lies below it.
    last_y = np.zeros(m + 1)
    pending = _Pending()

    def read_block(stream: int) -> None:
        block = streams[stream].read_block_array(int(next_block[stream]))
        next_block[stream] += 1
        last_y[stream] = block[-1, 0]
        rows = np.empty((len(block), 5))
        rows[:, 0] = block[:, 0]
        rows[:, 1] = stream
        if stream < m:   # (y, x1, x2, sum)
            rows[:, 2:] = block[:, 1:]
        else:            # (y, kind, x1, x2, weight)
            rows[:, 2:4] = block[:, 2:4]
            rows[:, 4] = np.where(block[:, 1] == EVENT_BOTTOM,
                                  block[:, 4], -block[:, 4])
        pending.add(rows)

    sweep = _TileSweep(sub_slabs, writer)
    for stream in np.flatnonzero(num_blocks):
        read_block(int(stream))
    with np.errstate(invalid="ignore", over="ignore"):
        while True:
            unread = next_block < num_blocks
            if not unread.any():
                sweep.apply(pending.take())
                break
            bound = last_y[unread].min()
            sweep.apply(pending.take(bound))
            for stream in np.flatnonzero(unread & (last_y == bound)):
                read_block(int(stream))
    return sweep.finish()


class _Pending:
    """Records read but not yet applied, taken in y order.

    A y-sorted run, consumed from the front, plus the rows read since it
    was last rebuilt.  Those are merged into the run once they outgrow an
    eighth of it, so taking a batch costs about the batch and the fresh
    rows, not every pending record.
    """

    def __init__(self) -> None:
        self.run = np.empty((0, 5))
        self.start = 0
        self.fresh = np.empty((0, 5))
        self.blocks: List = []

    def add(self, rows) -> None:
        self.blocks.append(rows)

    def take(self, bound=None):
        """Remove and return every pending row whose y is below ``bound``
        (every pending row when ``bound`` is ``None``)."""
        if self.blocks:
            self.fresh = np.concatenate([self.fresh, *self.blocks])
            self.blocks.clear()
        if bound is None:
            batch = np.concatenate((self.run[self.start:], self.fresh))
            self.run, self.start, self.fresh = batch[:0], 0, batch[:0]
            return batch
        cut = self.start + int(np.searchsorted(self.run[self.start:, 0], bound))
        head = self.run[self.start:cut]
        self.start = cut
        due = self.fresh[:, 0] < bound
        batch = np.concatenate((head, self.fresh[due]))
        self.fresh = self.fresh[~due]
        if 8 * len(self.fresh) > len(self.run) - self.start:
            self._rebuild()
        return batch

    def _rebuild(self) -> None:
        rows = np.concatenate((self.run[self.start:], self.fresh))
        self.run = rows[np.argsort(rows[:, 0], kind="stable")]
        self.start = 0
        self.fresh = rows[:0]


class _TileSweep:
    """State and per-tile step of the block-batched merge.

    Carries, between tiles, each sub-slab's last applied tuple (its base
    sum and interval; weight 0 over the whole sub-slab before the first),
    its ``upSum``, and the best strip so far with the rule of
    :class:`~repro.core.beststrip.BestStripTracker`: the first strict
    maximum wins, and its strip closes at the next h-line, which may lie in
    a later tile.
    """

    def __init__(self, sub_slabs: Sequence[Slab], writer: RecordWriter) -> None:
        self.m = len(sub_slabs)
        self.writer = writer
        self.los = np.array([s.lo for s in sub_slabs], dtype=np.float64)
        self.his = np.array([s.hi for s in sub_slabs], dtype=np.float64)
        self.slab_ids = np.arange(self.m)
        self.tile_rows = max(1, _TILE_CELLS // self.m)
        self.base = np.zeros(self.m)
        self.x1 = self.los.copy()
        self.x2 = self.his.copy()
        self.upsum = np.zeros(self.m)
        # (weight, x1, x2, y1, y2); y2 is None until the next h-line shows.
        self.best = None

    def apply(self, batch) -> None:
        """Apply one batch and emit a tuple for each of its h-lines."""
        if not len(batch):
            return
        hlines, row = np.unique(batch[:, 0], return_inverse=True)
        spanning = batch[:, 1] == self.m
        if spanning.any():
            tuples, spans = batch[~spanning], batch[spanning]
            tuple_row, span_row = row[~spanning], row[spanning]
        else:
            tuples, spans, tuple_row, span_row = batch, None, row, None
        if len(hlines) <= self.tile_rows:
            self._tile(hlines, tuples, tuple_row, spans, span_row)
            return
        order = np.argsort(tuple_row, kind="stable")
        tuples, tuple_row = tuples[order], tuple_row[order]
        if spans is not None:
            order = np.argsort(span_row, kind="stable")
            spans, span_row = spans[order], span_row[order]
        for top in range(0, len(hlines), self.tile_rows):
            bottom = min(top + self.tile_rows, len(hlines))
            a, b = np.searchsorted(tuple_row, (top, bottom))
            tile_spans = tile_span_row = None
            if spans is not None:
                c, d = np.searchsorted(span_row, (top, bottom))
                if c < d:
                    tile_spans, tile_span_row = spans[c:d], span_row[c:d] - top
            self._tile(hlines[top:bottom], tuples[a:b], tuple_row[a:b] - top,
                       tile_spans, tile_span_row)

    def _tile(self, hlines, tuples, tuple_row, spans, span_row) -> None:
        m = self.m
        rows = len(hlines)
        # Forward fill, by runs.  Laid out sub-slab by sub-slab (column-major
        # (sub-slab, h-line) matrices), each sub-slab is a run of its
        # carried state (id s) followed by one run per tuple (id m + i),
        # since its tuples come in y order; a stable sort of the run starts
        # puts them in place and np.repeat expands them.
        owner = np.concatenate((self.slab_ids, tuples[:, 1].astype(np.intp)))
        starts = owner * rows
        starts[m:] += tuple_row
        order = np.argsort(starts, kind="stable")
        lengths = np.empty_like(order)
        run_starts = starts[order]
        np.subtract(run_starts[1:], run_starts[:-1], out=lengths[:-1])
        lengths[-1] = m * rows - run_starts[-1]
        index = np.repeat(order, lengths).reshape(m, rows)
        sums = np.concatenate((self.base, tuples[:, 4]))
        x1s = np.concatenate((self.x1, tuples[:, 2]))
        x2s = np.concatenate((self.x2, tuples[:, 3]))
        if spans is None:   # upSum is constant down each sub-slab
            run_sums = sums[order] + self.upsum[owner[order]]
            effective = np.repeat(run_sums, lengths).reshape(m, rows)
        else:
            effective = np.repeat(sums[order], lengths).reshape(m, rows)
            effective += self._upsum(rows, spans, span_row).T

        winner = effective.argmax(axis=0)
        hline = np.arange(rows)
        value = effective[winner, hline]
        if m > 1:
            first, last = self._get_max_interval(index, effective, x1s, x2s,
                                                 winner, value)
        else:
            first = last = winner
        lo = x1s[index[first, hline]]
        hi = x2s[index[last, hline]]

        carried = index[:, -1]
        self.base, self.x1, self.x2 = sums[carried], x1s[carried], x2s[carried]
        out = np.empty((rows, 4))
        out[:, 0], out[:, 1], out[:, 2], out[:, 3] = hlines, lo, hi, value
        self.writer.append_rows(out)
        self._observe(hlines, lo, hi, value)

    def _upsum(self, rows, spans, span_row):
        """``upSum`` at every h-line of the tile; carries the last row."""
        m = self.m
        first = np.searchsorted(self.los, spans[:, 2], side="left")
        end = np.searchsorted(self.his, spans[:, 3], side="right")
        spanned = first < end  # an edge spanning no sub-slab changes nothing
        delta = spans[spanned, 4]
        cell = span_row[spanned] * (m + 1)
        # float64 even when no edge spans anything: bincount of empty
        # input ignores its weights and counts in integers.
        diff = np.bincount(
            np.concatenate((cell + first[spanned], cell + end[spanned])),
            weights=np.concatenate((delta, -delta)),
            minlength=rows * (m + 1)).astype(np.float64, copy=False)
        diff = diff.reshape(rows, m + 1)
        np.cumsum(diff, axis=1, out=diff)
        np.cumsum(diff, axis=0, out=diff)
        upsum = diff[:, :m]
        upsum += self.upsum
        self.upsum = upsum[-1].copy()
        return upsum

    def _get_max_interval(self, index, effective, x1s, x2s, winner, value):
        """``GetMaxInterval``: the first and last sub-slab of each h-line's run.

        The run is the winner plus the neighbours, on either side, whose
        interval touches the next one inward and whose effective sum ties.
        It is looked for within ``_CHAIN_REACH`` sub-slabs of the winner,
        and over every sub-slab for the h-lines whose run reaches that far.
        """
        m = self.m
        width = min(m, 2 * _CHAIN_REACH + 1)
        start = np.minimum(np.maximum(winner - _CHAIN_REACH, 0), m - width)
        first, last = _runs(index, effective, x1s, x2s, winner, value,
                            np.arange(len(winner)), start, width)
        edge = (((first == start) & (start > 0))
                | ((last == start + width - 1) & (start + width < m)))
        if edge.any():
            redo = np.flatnonzero(edge)
            first[redo], last[redo] = _runs(
                index, effective, x1s, x2s, winner, value, redo,
                np.zeros(len(redo), dtype=np.intp), m)
        return first, last

    def _observe(self, hlines, lo, hi, value) -> None:
        best = self.best
        if best is not None and best[4] is None:
            self.best = best = best[:4] + (float(hlines[0]),)
        i = int(np.argmax(value))
        if best is None or value[i] > best[0]:
            closing = float(hlines[i + 1]) if i + 1 < len(hlines) else None
            self.best = (float(value[i]), float(lo[i]), float(hi[i]),
                         float(hlines[i]), closing)

    def finish(self) -> BestStrip:
        if self.best is None:
            return BestStrip.empty()
        weight, x1, x2, y1, y2 = self.best
        return BestStrip(weight=weight, x1=x1, x2=x2, y1=y1,
                         y2=math.inf if y2 is None else y2)


def _runs(index, effective, x1s, x2s, winner, value, hline, start, width):
    """First and last sub-slab of the tied, touching run around the winner.

    Looks at the ``width`` sub-slabs from ``start`` on, for each h-line in
    ``hline``; a run that reaches the window's edge stops there.
    """
    cells = (start[:, None] + np.arange(width)) * index.shape[1]
    cells += hline[:, None]
    ids = index.ravel().take(cells)
    x1, x2 = x1s.take(ids), x2s.take(ids)
    joins = _ties(effective.ravel().take(cells), value[hline, None])
    touches = x2[:, :-1] == x1[:, 1:]   # column j's interval ends at j + 1's
    pos = (winner[hline] - start)[:, None]
    j = np.arange(width - 1)
    # Left: column j < pos joins while it ties and touches j + 1; the run
    # starts after the last j < pos that does not.
    stop = np.where((touches & joins[:, :-1]) | (j >= pos), -1, j)
    first = stop.max(axis=1) + 1
    # Right: column j + 1 > pos joins while it ties and touches j.
    stop = np.where((touches & joins[:, 1:]) | (j < pos), width, j + 1)
    last = stop.min(axis=1) - 1
    return start + first, start + last


def _ties(values, best):
    """Elementwise ``math.isclose(values, best)`` at ``_TIE_TOLERANCE``.

    Symmetric in its arguments, unlike ``np.isclose``: equal values tie,
    infinities tie only with themselves and NaN with nothing.  Callers
    silence numpy's invalid and overflow warnings.
    """
    diff = np.abs(values - best)
    bound = np.maximum(np.abs(values), np.abs(best))
    bound *= _TIE_TOLERANCE
    np.maximum(bound, _TIE_TOLERANCE, out=bound)
    return (values == best) | ((diff <= bound) & (diff < math.inf))


# ---------------------------------------------------------------------- #
# Record-at-a-time merge (heap + segment trees)
# ---------------------------------------------------------------------- #
def _heap_merge(sub_slabs: Sequence[Slab], slab_files: Sequence[RecordFile],
                spanning_file: RecordFile, writer: RecordWriter) -> BestStrip:
    m = len(sub_slabs)
    tree = MaxAddSegmentTree(m)       # effective sums (base + upSum)
    upsum = MaxAddSegmentTree(m)      # upSum alone (range add / point query)
    base_interval: List[Tuple[float, float]] = [(s.lo, s.hi) for s in sub_slabs]
    slab_los = [s.lo for s in sub_slabs]
    slab_his = [s.hi for s in sub_slabs]

    readers = [f.reader() for f in slab_files]
    spanning_reader = spanning_file.reader()

    # Heap entries: (y, tag, stream index, record).  Stream indices are unique
    # per stream so records never get compared.
    heap: List[Tuple[float, int, int, Tuple[float, ...]]] = []
    for idx, reader in enumerate(readers):
        record = next(reader, None)
        if record is not None:
            heap.append((record[0], _TAG_TUPLE, idx, record))
    spanning_record = next(spanning_reader, None)
    if spanning_record is not None:
        heap.append((spanning_record[0], _TAG_SPANNING, m, spanning_record))
    heapq.heapify(heap)

    tracker = BestStripTracker()
    while heap:
        y = heap[0][0]
        while heap and heap[0][0] == y:
            _, tag, idx, record = heapq.heappop(heap)
            if tag == _TAG_SPANNING:
                _apply_spanning(record, slab_los, slab_his, tree, upsum)
                nxt = next(spanning_reader, None)
                if nxt is not None:
                    heapq.heappush(heap, (nxt[0], _TAG_SPANNING, m, nxt))
            else:
                _apply_tuple(record, idx, tree, upsum, base_interval)
                nxt = next(readers[idx], None)
                if nxt is not None:
                    heapq.heappush(heap, (nxt[0], _TAG_TUPLE, idx, nxt))
        x_lo, x_hi, best_value = _current_max_interval(tree, base_interval, m)
        writer.append((y, x_lo, x_hi, best_value))
        tracker.observe(y, x_lo, x_hi, best_value)

    tracker.finish()
    return tracker.best


def _apply_spanning(record: Tuple[float, ...], slab_los: Sequence[float],
                    slab_his: Sequence[float], tree: MaxAddSegmentTree,
                    upsum: MaxAddSegmentTree) -> None:
    """Apply one spanning-rectangle edge: adjust ``upSum`` of the spanned slabs."""
    _, kind, x1, x2, weight = record
    first = bisect_left(slab_los, x1)
    last = bisect_right(slab_his, x2) - 1
    if first > last:
        return
    delta = weight if kind == EVENT_BOTTOM else -weight
    tree.range_add(first, last, delta)
    upsum.range_add(first, last, delta)


def _apply_tuple(record: Tuple[float, ...], slab_index: int,
                 tree: MaxAddSegmentTree, upsum: MaxAddSegmentTree,
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
            _tie(tree.point_value(j), best_value):
        x_lo = base_interval[j][0]
        j -= 1
    j = winner + 1
    while j < m and base_interval[j][0] == x_hi and \
            _tie(tree.point_value(j), best_value):
        x_hi = base_interval[j][1]
        j += 1
    return x_lo, x_hi, best_value


def _tie(value: float, best: float) -> bool:
    """Floating-point-tolerant equality used when merging tied sub-slabs."""
    return math.isclose(value, best, rel_tol=_TIE_TOLERANCE,
                        abs_tol=_TIE_TOLERANCE)
