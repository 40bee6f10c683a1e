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

The sweep runs in **block batches**:

* one block of every stream is read through the buffer pool, with the same
  ``pool.get`` per block as a sequential reader.  The *bound* is the
  smallest last-read y among the streams that still have unread blocks;
  those streams whose last-read y is the bound read their next block.
  Every record below the bound is *due*: no unread record lies at its y.
  So each input block is read exactly once, and the I/O is one sequential
  pass over the inputs plus one sequential write of the output, the
  ``O(K/B)`` of Lemma 3, unchanged;
* the due records are applied once ``_STEP_HLINES`` records have been read
  since the last apply, and once more after the last read (see *Deferred
  applies*);
* an apply sorts its records by y and works in *steps* of at most
  ``_STEP_HLINES`` h-lines, fewer where spanning edges expand into many
  pieces.  Within a step each sub-slab's state is a run of *pieces* --
  (sub-slab, first row, end row, effective sum, interval) -- one starting
  at the carried state, one at each of its tuples and one at each row
  where a spanning edge covers it.  ``upSum`` is the running sum, within
  each sub-slab, of the carried ``upSum`` and the edges' signed weights;
* the pieces are ranked by (effective sum descending, sub-slab ascending),
  NaN first, which is ``np.argmax``'s leftmost-maximum rule (``0.0`` and
  ``-0.0`` tie; ``+inf`` weights can make NaN).  Painting each piece's rank
  over its rows with a range-min (a sparse table: two ``np.minimum.at``
  calls, then one pass per level) gives every h-line its winner, and
  ``GetMaxInterval`` extends it over touching, tied neighbours, whose live
  pieces one ``np.searchsorted`` on (sub-slab, row) finds.  A neighbour's
  interval lies in its own sub-slab, so only a winner whose interval
  reaches a sub-slab border can have one that touches it.

A step costs ``O(pieces + rows log rows)`` numpy work, never a loop over
the streams nor a (sub-slab x h-line) matrix; the pending records stay near
two blocks per stream, so memory is ``O(m * B)`` records plus one step.

Deferred applies
----------------
Applying due records later than the read that made them due keeps every
count, as long as every ``get`` of the merge misses.  It does: each input
block is read once, and none is resident when the merge starts, as the
inputs were just written by sequential writers, whose blocks never stay
in the buffer pool (each is written through: room made as ``put``
makes it, then one device write and no frame).  Then:

* the pool holds a suffix of the blocks it fetched, in LRU order.  A
  ``get`` that misses evicts the least recently used frame if the pool is
  full, then appends its block; a write of the output evicts that same
  frame if the pool is full when it is made, and leaves no frame behind;
* so writes between two ``get`` calls can only take a full pool one frame
  short, a frame the next ``get`` would have evicted anyway: after every
  ``get`` the pool holds the same frames, in the same LRU order, whatever
  writes came before it.  Reads, writes, write-backs and hits (none) are
  unchanged, and as the output writer is the only allocator during a
  merge, even the output's block ids repeat.

The merge writes the slab-file of a record-at-a-time merge (a heap over
the streams and segment trees of the effective sums, ``O(log m)`` per
record; ``tests/record_passes.py`` keeps it as the reference), bit for bit
whenever the sums are exactly representable (integer weights), with the
same block reads and writes.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.beststrip import BestStrip
from repro.core.slab import Slab
from repro.em.codecs import EVENT_BOTTOM, MAX_INTERVAL_CODEC
from repro.em.context import EMContext
from repro.em.record_file import RecordFile, RecordWriter
from repro.errors import AlgorithmError

__all__ = ["merge_sweep"]

#: Most h-lines one step of the block-batched merge applies.  An apply runs
#: once this many records have been read since the last one, and a step
#: also ends before its records expand into more than four pieces per
#: h-line of this budget (a spanning edge is a piece in every sub-slab it
#: spans): together they bound the merge's peak memory.
_STEP_HLINES = 1 << 12

#: Relative and absolute tolerance of ``GetMaxInterval``'s tie test.
_TIE_TOLERANCE = 1e-12

#: Sub-slabs on each side of the winner where ``GetMaxInterval`` first
#: looks for the run; the few longer runs are redone over every sub-slab.
_CHAIN_REACH = 4


def merge_sweep(
    ctx: EMContext,
    sub_slabs: Sequence[Slab],
    slab_files: Sequence[RecordFile],
    spanning_file: RecordFile,
    *,
    name: str = "merged",
    span=obs.NOOP_SPAN,
) -> Tuple[RecordFile, BestStrip]:
    """Merge ``m`` slab-files and a spanning-event file into one slab-file,
    in block batches (see the module docstring).

    Parameters
    ----------
    ctx:
        External-memory context (output file is created on its disk).
    sub_slabs:
        The ``m`` sub-slabs, left to right; their extents define the initial
        (weight-0) max-intervals and the ``upSum`` ranges of spanning edges.
    slab_files:
        The slab-file of each sub-slab, y-sorted, aligned with ``sub_slabs``;
        every interval lies within its sub-slab, as every sweep and merge
        writes them.
    spanning_file:
        y-sorted sweep events of the rectangles spanning whole sub-slabs.
    name:
        Name for the output slab-file.
    span:
        The caller's span; the merge sets its ``applies`` attribute (how
        many times it applied due records).

    Returns
    -------
    (output, best):
        The merged slab-file (y-sorted) and the best strip it contains.
    """
    m = len(sub_slabs)
    if m == 0:
        raise AlgorithmError("MergeSweep needs at least one sub-slab")
    if len(slab_files) != m:
        raise AlgorithmError(
            f"expected {m} slab-files, got {len(slab_files)}"
        )
    output = ctx.create_file(MAX_INTERVAL_CODEC, name=name)
    with output.writer() as writer:
        best, applies = _block_merge(sub_slabs, slab_files, spanning_file,
                                     writer)
    span.set_attribute("applies", applies)
    return output, best


# Pending records are rows (y, stream, x1, x2, value): a slab-file tuple of
# sub-slab ``stream`` carries its sum, a spanning edge (``stream == m``)
# its signed weight.
def _block_merge(sub_slabs: Sequence[Slab], slab_files: Sequence[RecordFile],
                 spanning_file: RecordFile,
                 writer: RecordWriter) -> Tuple[BestStrip, int]:
    m = len(sub_slabs)
    streams = [*slab_files, spanning_file]
    num_blocks = np.array([f.num_blocks for f in streams])
    next_block = np.zeros(m + 1, dtype=num_blocks.dtype)
    # y of the last record read from each stream: none of its unread
    # records lies below it.
    last_y = np.zeros(m + 1)
    pending = _Pending()
    unapplied = 0   # records read since the last apply

    def read_block(stream: int) -> None:
        nonlocal unapplied
        block = streams[stream].read_block_array(int(next_block[stream]))
        next_block[stream] += 1
        last_y[stream] = block[-1, 0]
        unapplied += len(block)
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

    sweep = _StepSweep(sub_slabs, writer)
    for stream in np.flatnonzero(num_blocks):
        read_block(int(stream))
    with np.errstate(invalid="ignore", over="ignore"):
        while True:
            unread = next_block < num_blocks
            if not unread.any():
                sweep.apply(pending.take())
                break
            bound = last_y[unread].min()
            if unapplied >= _STEP_HLINES:
                sweep.apply(pending.take(bound))
                unapplied = 0
            for stream in np.flatnonzero(unread & (last_y == bound)):
                read_block(int(stream))
    return sweep.finish(), sweep.applies


class _Pending:
    """Records read but not yet applied, in y-sorted runs.

    A :meth:`take` sorts the rows read since the last one into one more
    run.  The rows below the bound are a prefix of every run, so the rows
    that stay pending are never copied.
    """

    def __init__(self) -> None:
        self.runs: List = []
        self.blocks: List = []

    def add(self, rows) -> None:
        self.blocks.append(rows)

    def take(self, bound=None):
        """Remove and return, y-sorted, every pending row whose y is below
        ``bound`` (every pending row when ``bound`` is ``None``).

        Runs and rows keep their read order among equal y, so rows of one
        stream that share a y keep their file order.
        """
        if self.blocks:
            self.runs.append(_y_sorted(np.concatenate(self.blocks)))
            self.blocks.clear()
        due, kept = [], []
        for run in self.runs:
            cut = len(run) if bound is None else int(
                np.searchsorted(run[:, 0], bound))
            due.append(run[:cut])
            if cut < len(run):
                kept.append(run[cut:])
        self.runs = kept
        return _y_sorted(np.concatenate(due)) if due else np.empty((0, 5))


def _y_sorted(rows):
    """``rows`` stably sorted by y (column 0)."""
    return rows.take(np.argsort(rows[:, 0], kind="stable"), axis=0)


class _StepSweep:
    """State and per-step work of the block-batched merge.

    Carries, between steps, each sub-slab's last applied tuple (its base
    sum and interval; weight 0 over the whole sub-slab before the first),
    its ``upSum``, and the best strip so far with the rule of
    :class:`~repro.core.beststrip.BestStripTracker`: the first strict
    maximum wins, and its strip closes at the next h-line, which may lie in
    a later step.  ``applies`` counts the calls of :meth:`apply` that had
    records to apply.
    """

    def __init__(self, sub_slabs: Sequence[Slab], writer: RecordWriter) -> None:
        self.m = len(sub_slabs)
        self.writer = writer
        self.los = np.array([s.lo for s in sub_slabs], dtype=np.float64)
        self.his = np.array([s.hi for s in sub_slabs], dtype=np.float64)
        self.slab_ids = np.arange(self.m)
        # Radix-sortable sub-slab ids (numpy's stable sort of 16-bit keys).
        self.sort_dtype = np.uint16 if self.m < 1 << 16 else np.intp
        self.base = np.zeros(self.m)
        self.x1 = self.los.copy()
        self.x2 = self.his.copy()
        self.upsum = np.zeros(self.m)
        # (weight, x1, x2, y1, y2); y2 is None until the next h-line shows.
        self.best = None
        self.applies = 0

    def apply(self, batch) -> None:
        """Apply y-sorted due records, a step at a time, and emit a tuple
        for each of their h-lines."""
        if not len(batch):
            return
        self.applies += 1
        # Columns (y, stream, x1, x2, value), each contiguous.
        columns = np.ascontiguousarray(batch.T)
        ys = columns[0]
        opens = np.empty(len(ys), dtype=bool)   # the record opens an h-line
        opens[0] = True
        np.not_equal(ys[1:], ys[:-1], out=opens[1:])
        row = np.cumsum(opens) - 1
        hlines = ys[opens]
        # Each record's sub-slabs [first, end): a tuple's own, the ones a
        # spanning edge spans (an edge spanning none changes nothing).
        first = columns[1].astype(np.intp)
        end = first + 1
        edges = np.flatnonzero(first == self.m)
        if len(edges):
            first[edges] = np.searchsorted(self.los, columns[2, edges],
                                           side="left")
            end[edges] = np.maximum(
                np.searchsorted(self.his, columns[3, edges], side="right"),
                first[edges])
        # Steps: a new one at every _STEP_HLINES-th h-line, and at an
        # h-line where the pieces before it pass a multiple of the budget.
        hline_start = np.flatnonzero(opens)
        counts = end - first
        before = (np.cumsum(counts) - counts)[hline_start]
        cut = np.diff(before // (4 * _STEP_HLINES)) != 0
        cut |= np.diff(np.arange(len(hlines)) // _STEP_HLINES) != 0
        starts = np.concatenate(([0], np.flatnonzero(cut) + 1, [len(hlines)]))
        bounds = np.append(hline_start, len(batch))[starts]
        for h0, h1, a, b in zip(starts[:-1].tolist(), starts[1:].tolist(),
                                bounds[:-1].tolist(), bounds[1:].tolist()):
            self._step(hlines[h0:h1], row[a:b] - h0, first[a:b], end[a:b],
                       columns[:, a:b])

    def _step(self, hlines, row, first, end, columns) -> None:
        """Apply one step's records and emit the step's tuples.

        ``columns`` are the records' (y, stream, x1, x2, value), y-sorted;
        ``row`` is each record's h-line within the step, ``[first, end)``
        the sub-slabs it touches.
        """
        m, rows = self.m, len(hlines)
        _, stream, x1s, x2s, values = columns
        # Elements: each sub-slab's carried state, then every record once
        # per sub-slab it touches, in record (so row) order.  A stable sort
        # by sub-slab lays them out sub-slab by sub-slab, each run in row
        # order and led by its carried state (``source`` -1).
        counts = end - first
        source = np.repeat(np.arange(len(counts)), counts)
        sub = first[source] + np.arange(len(source)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        sub = np.concatenate((self.slab_ids, sub))
        order = np.argsort(sub.astype(self.sort_dtype), kind="stable")
        sub = sub[order]
        source = np.concatenate((np.full(m, -1), source))[order]
        carried = source < 0
        elem_row = np.where(carried, 0, row[source])
        # Sub-slab s's run of elements starts at seg[s].
        seg = np.concatenate(([0], np.cumsum(np.bincount(sub, minlength=m))))
        # An element sets the base sum and interval when it is a tuple (or
        # the carried state), else it adds its edge's signed weight.
        sets = carried | (stream[source] < m)
        # A piece ends at the last element of each (sub-slab, row); its
        # state is that of its sub-slab's last setting element so far.
        last = np.ones(len(sub), dtype=bool)
        last[:-1] = (sub[1:] != sub[:-1]) | (elem_row[1:] != elem_row[:-1])
        ends = np.flatnonzero(last)
        setter = np.maximum.accumulate(
            np.where(sets, np.arange(len(sub)), 0))[ends]
        p_sub, p_row = sub[ends], elem_row[ends]
        p_end = np.full(len(ends), rows)
        same = p_sub[1:] == p_sub[:-1]
        p_end[:-1][same] = p_row[1:][same]
        own = carried[setter]
        rec = source[setter]
        p_base = np.where(own, self.base[p_sub], values[rec])
        p_x1 = np.where(own, self.x1[p_sub], x1s[rec])
        p_x2 = np.where(own, self.x2[p_sub], x2s[rec])
        if sets.all():   # no spanning edge: upSum stays as carried
            p_up = self.upsum[p_sub]
        else:
            delta = np.where(sets, -0.0, values[source])
            delta[seg[:-1]] = self.upsum
            p_up = _running_sums(delta, seg)[ends]
        p_eff = p_base + p_up

        winner = _paint_winners(p_eff, p_row, p_end, rows)
        value = p_eff[winner]
        w_sub = p_sub[winner]
        lo, hi = p_x1[winner], p_x2[winner]
        # A neighbour's interval lies in its own sub-slab, so it can touch
        # the winner's only where the winner's reaches their shared border.
        chain = np.flatnonzero(((lo == self.los[w_sub]) & (w_sub > 0))
                               | ((hi == self.his[w_sub]) & (w_sub < m - 1)))
        if len(chain):
            pieces = (p_sub * rows + p_row, rows, p_eff, p_x1, p_x2)
            lo[chain], hi[chain] = _get_max_interval(
                pieces, m, w_sub[chain], value[chain], chain)

        # Each sub-slab carries its last piece.
        tail = np.flatnonzero(np.append(~same, True))
        self.base, self.x1, self.x2 = p_base[tail], p_x1[tail], p_x2[tail]
        self.upsum = p_up[tail]
        self.writer.append_rows(np.column_stack((hlines, lo, hi, value)))
        self._observe(hlines, lo, hi, value)

    def _observe(self, hlines, lo, hi, value) -> None:
        """Fold a step's tuples into the best strip, as the tracker folds
        them one by one: the first tuple, then each strictly heavier one (a
        NaN sum is never heavier, and nothing is heavier than NaN)."""
        if self.best is not None and self.best[4] is None:
            self.best = self.best[:4] + (float(hlines[0]),)
        if self.best is None:
            self._take(hlines, lo, hi, value, 0)
        heavier = value > self.best[0]
        if heavier.any():
            self._take(hlines, lo, hi, value,
                       int(np.argmax(value == value[heavier].max())))

    def _take(self, hlines, lo, hi, value, i) -> None:
        closing = float(hlines[i + 1]) if i + 1 < len(hlines) else None
        self.best = (float(value[i]), float(lo[i]), float(hi[i]),
                     float(hlines[i]), closing)

    def finish(self) -> BestStrip:
        if self.best is None:
            return BestStrip.empty()
        weight, x1, x2, y1, y2 = self.best
        return BestStrip(weight=weight, x1=x1, x2=x2, y1=y1,
                         y2=math.inf if y2 is None else y2)


def _running_sums(values, seg):
    """Inclusive running sums of ``values`` within each run
    ``values[seg[k]:seg[k + 1]]``.

    Doubling passes (add the partial sum ``d`` places back while it lies in
    the same run), so a sum never mixes runs: an infinite weight reaches
    only its own sub-slab.  ``-0.0`` is the identity.
    """
    sums = values.copy()
    run_start = np.repeat(seg[:-1], np.diff(seg))
    reach = np.arange(len(sums)) - run_start   # elements before, in the run
    longest = int(reach.max()) + 1 if len(reach) else 0
    d = 1
    while d < longest:
        add = np.where(reach[d:] >= d, sums[:-d], -0.0)
        sums[d:] += add
        d *= 2
    return sums


def _paint_winners(eff, start, end, rows):
    """The winning piece of each row: leftmost maximum, as ``np.argmax``.

    Pieces come in (sub-slab, first row) order and cover rows
    ``[start, end)``; of the pieces live at a row (one per sub-slab) the
    one ranked first by (effective sum descending, sub-slab ascending, NaN
    first) wins.  Each piece's rank is painted over its rows with a
    range-min: a sparse table whose level ``j`` entry ``i`` covers rows
    ``[i, i + 2**j)``, so a piece writes the two level-``floor(log2 len)``
    entries that cover its rows, and each level is pushed down to the next.
    """
    order = np.argsort(-eff, kind="stable")   # NaN last; 0.0 ties -0.0
    nans = int(np.count_nonzero(np.isnan(eff)))
    if nans:
        order = np.roll(order, nans)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    length = end - start
    level = np.frexp(length)[1] - 1             # floor(log2 length)
    levels = int(level.max()) + 1
    table = np.full(levels * rows, len(order))
    np.minimum.at(table, level * rows + start, rank)
    np.minimum.at(table, level * rows + end - (1 << level), rank)
    table = table.reshape(levels, rows)
    for j in range(levels - 1, 0, -1):
        half = 1 << (j - 1)
        below = table[j - 1]
        np.minimum(below, table[j], out=below)
        np.minimum(below[half:], table[j, :rows - half], out=below[half:])
    return order[table[0]]


def _get_max_interval(pieces, m, winner, value, row):
    """``GetMaxInterval``: the x-range of the run of sub-slabs at ``row``.

    The run is the winner plus the neighbours, on either side, whose
    interval touches the next one inward and whose effective sum ties.
    It is looked for within ``_CHAIN_REACH`` sub-slabs of the winner,
    and over every sub-slab for the rows whose run reaches that far.
    """
    lo = np.empty(len(row))
    hi = np.empty(len(row))
    todo = np.arange(len(row))
    for reach in (_CHAIN_REACH, m):
        width = min(m, 2 * reach + 1)
        start = np.minimum(np.maximum(winner[todo] - reach, 0), m - width)
        first, last, lo[todo], hi[todo] = _runs(
            pieces, winner[todo], value[todo], row[todo], start, width)
        edge = (((first == start) & (start > 0))
                | ((last == start + width - 1) & (start + width < m)))
        todo = todo[edge]
        if not len(todo):
            break
    return lo, hi


def _runs(pieces, winner, value, row, start, width):
    """First and last sub-slab of the tied, touching run around the winner,
    and the run's x-range.

    Looks at the ``width`` sub-slabs from ``start`` on, at each row in
    ``row``; a run that reaches the window's edge stops there.  Each
    sub-slab's live piece at a row is the last one starting at or before
    it: one ``np.searchsorted`` on (sub-slab, row) keys.
    """
    keys, rows, eff, x1s, x2s = pieces
    cells = (start[:, None] + np.arange(width)) * rows + row[:, None]
    ids = np.searchsorted(keys, cells, side="right") - 1
    x1, x2 = x1s[ids], x2s[ids]
    joins = _ties(eff[ids], value[:, None])
    touches = x2[:, :-1] == x1[:, 1:]   # column j's interval ends at j + 1's
    pos = (winner - start)[:, None]
    j = np.arange(width - 1)
    # Left: column j < pos joins while it ties and touches j + 1; the run
    # starts after the last j < pos that does not.
    stop = np.where((touches & joins[:, :-1]) | (j >= pos), -1, j)
    first = stop.max(axis=1) + 1
    # Right: column j + 1 > pos joins while it ties and touches j.
    stop = np.where((touches & joins[:, 1:]) | (j < pos), width, j + 1)
    last = stop.min(axis=1) - 1
    took = np.arange(len(row))
    return (start + first, start + last, x1[took, first], x2[took, last])


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
