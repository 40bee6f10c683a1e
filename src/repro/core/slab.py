"""Slabs and the division phase of ExactMaxRS (Section 5.2.1).

ExactMaxRS recursively divides the data space into ``m`` vertical *slabs*,
each receiving roughly the same number of rectangle edges.  A rectangle whose
x-extent crosses slab boundaries is split: the pieces containing its original
vertical edges are passed down to the corresponding sub-problems, while the
middle piece -- which *spans* one or more slabs entirely -- is set aside in a
separate spanning file and only re-enters the computation during the merge
(as the ``upSum`` contribution of Algorithm 1).  Removing spanning pieces is
what guarantees the recursion terminates (Lemma 1).

This module implements the three steps of the division phase over the
disk-resident event representation:

1. :func:`collect_edge_xs` -- from the blocks of one linear scan of the
   event file (:meth:`~repro.em.record_file.RecordFile.read_blocks`), the
   vertical-edge x-coordinates that lie strictly inside the slab;
2. :func:`choose_boundaries` -- picking ``m - 1`` boundary x-coordinates as
   quantiles of those edges, so each sub-slab receives roughly ``2K/m`` edges;
3. :func:`partition_event_file` -- a second linear scan splitting every event
   into its per-slab pieces and its spanning piece, writing ``m`` sub-slab
   event files plus one spanning-event file, all of which stay sorted by y
   because the input is scanned in y order.

Implementation note: the division keeps the blocks its first scan read in
process memory (40 B per event; the edge x-coordinates alone, as two
Python floats, would take ~64 B) to take exact quantiles and to split
the events.  The I/O charged for the steps -- two linear scans -- is
identical to a sort-order-maintaining implementation, and I/O is the only
quantity the experiments measure.

An event whose x-range clips away inside the slab (an object at
``x = +-inf``, or at ``|x|`` so large that ``x +- w/2`` rounds to ``x``)
covers nothing, but its y is still an h-line of the in-memory sweep.  It
goes to the spanning file, where it spans no sub-slab: MergeSweep emits its
h-line and changes no sum.

The steps run on arrays: :func:`collect_edge_xs` masks all the blocks'
edges at once, :func:`choose_boundaries` picks from a sorted array, and
:func:`partition_event_file` replays its scan.  The event file does not
change between the two scans, so the partition already holds every record
its scan would read.  For a chunk of ``_CHUNK_BLOCKS`` input blocks it
splits all the records at once (``np.searchsorted`` with the sides of
``bisect_right`` and ``bisect_left``), counts which output blocks each
input block completes, then walks the chunk's blocks in order: for each it
makes the one buffer-pool ``get`` its scan made
(:meth:`~repro.em.record_file.RecordFile.reread_block`), then writes the
blocks it completes.  Those go out in file order: a record gives each
output file at most one piece, and a file holds fewer than ``B`` pieces
before an input block's arrive, so an input block completes at most one
block of each file.  Pieces short of a block wait in a one-block buffer
per output file (the EM model's output buffer, not a view of a chunk), and
the scanned blocks are dropped chunk by chunk.

Why every count is that of a scan that decodes each block after reading
it: the pool sees that scan's calls in the same order -- one ``get`` per
input block, then the writes its pieces cause (each written straight
through: room made as ``put`` makes it, one device write), then the next
``get``.  No write moves past a read, as MergeSweep's deferred applies
do, so reads, writes, pool hits and even block ids are that scan's,
including hits on blocks the edge scan left in the pool.  The
record-at-a-time reference (``tests/record_passes.py``) writes the same
files, bit for bit, with the same reads and writes; only within one input
block it writes the completed blocks in record order, so it may give out
block ids in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.em.codecs import EVENT_CODEC
from repro.em.context import EMContext
from repro.em.record_file import RecordFile, RecordWriter
from repro.errors import AlgorithmError
from repro.geometry import Interval

__all__ = [
    "Slab",
    "collect_edge_xs",
    "choose_boundaries",
    "make_subslabs",
    "partition_event_file",
]


@dataclass(frozen=True, slots=True)
class Slab:
    """A vertical slab of the data space.

    Attributes
    ----------
    index:
        Position of the slab among its siblings (0-based, left to right).
    lo, hi:
        The x-extent ``[lo, hi]``; the root slab is ``(-inf, +inf)``.
    """

    index: int
    lo: float
    hi: float

    @property
    def x_range(self) -> Interval:
        """The slab's x-extent as an :class:`~repro.geometry.Interval`."""
        return Interval(self.lo, self.hi)

    @staticmethod
    def root() -> "Slab":
        """The slab covering the entire data space."""
        return Slab(index=0, lo=-math.inf, hi=math.inf)


def collect_edge_xs(blocks, slab: Slab):
    """Return the vertical-edge x-coordinates strictly inside ``slab``.

    ``blocks`` are the blocks one scan of the slab's event file read, in
    file order (:meth:`~repro.em.record_file.RecordFile.read_blocks`).
    Both edges of every event's x-range are collected (with multiplicity),
    in record order, as one array, so quantiles over them balance the
    *edge* counts across sub-slabs exactly as in the proof of Lemma 1.
    """
    if not blocks:
        return np.empty(0)
    # x1, x2 of each record in turn.
    xs = np.concatenate([block[:, 2:4] for block in blocks]).ravel()
    return xs[(slab.lo < xs) & (xs < slab.hi)]


def choose_boundaries(edge_xs, fanout: int) -> List[float]:
    """Pick up to ``fanout - 1`` slab boundaries as quantiles of ``edge_xs``
    (a sequence or an array of floats).

    Duplicate quantiles (caused by repeated coordinates) are collapsed, so the
    returned list may be shorter than ``fanout - 1``; it may even be empty
    when every edge shares one x-coordinate, in which case the caller falls
    back to the in-memory base case.
    """
    if fanout < 2:
        raise AlgorithmError(f"slab fan-out must be at least 2, got {fanout}")
    count = len(edge_xs)
    if not count:
        return []
    positions = [p for p in ((k * count) // fanout for k in range(1, fanout))
                 if 0 < p < count]
    edge_xs = np.asarray(edge_xs, dtype=np.float64)
    ordered = np.sort(edge_xs)
    smallest, picks = float(ordered[0]), ordered[positions]
    # Of equal edges only -0.0 and 0.0 differ, and the sort need not keep
    # their order: sorted() does, so a zero pick is the zero at its rank
    # among the zeros in input order.
    zero = np.flatnonzero(picks == 0)
    if len(zero):
        zeros = edge_xs[edge_xs == 0]
        first = np.searchsorted(ordered, 0.0)
        picks[zero] = zeros[np.asarray(positions)[zero] - first]
    boundaries: List[float] = []
    for candidate in picks.tolist():
        if candidate <= smallest:
            # A boundary at (or below) the smallest edge cannot separate
            # anything: skip it so fully degenerate inputs (all edges equal)
            # fall back to the in-memory base case instead of looping.
            continue
        if not boundaries or candidate > boundaries[-1]:
            boundaries.append(candidate)
    return boundaries


def make_subslabs(slab: Slab, boundaries: Sequence[float]) -> List[Slab]:
    """Build the sub-slabs of ``slab`` delimited by ``boundaries``."""
    edges = [slab.lo, *boundaries, slab.hi]
    slabs = []
    for i in range(len(edges) - 1):
        if edges[i] >= edges[i + 1]:
            raise AlgorithmError(
                f"slab boundaries must be strictly increasing inside ({slab.lo}, {slab.hi})"
            )
        slabs.append(Slab(index=i, lo=edges[i], hi=edges[i + 1]))
    return slabs


def partition_event_file(
    ctx: EMContext,
    event_file: RecordFile,
    blocks: list,
    slab: Slab,
    boundaries: Sequence[float],
    *,
    name_prefix: str = "slab",
) -> Tuple[List[RecordFile], RecordFile, List[Slab]]:
    """Split a y-sorted event file into per-sub-slab files plus a spanning file.

    ``blocks`` are the blocks a scan of ``event_file`` read
    (:meth:`~repro.em.record_file.RecordFile.read_blocks`), as the edge
    scan of the division does; their count and their records' must match
    the file's.  The partition splits their records and replays the scan's
    reads (see the module docstring), emptying ``blocks`` as it goes so
    their memory is freed as the outputs are written.

    Returns ``(sub_files, spanning_file, sub_slabs)``.  Every output file is
    sorted by y because the input is consumed in y order and records are only
    appended.  An event whose x-range clips away inside ``slab`` goes to the
    spanning file unchanged but for the clipping, so its h-line survives.
    The input file is left untouched (the caller deletes it).

    Costs one linear read of the input plus one linear write of the outputs
    (whose total size is at most twice the input: each event splits into at
    most one left piece, one right piece and one spanning piece, and the left
    and right pieces together account for the event's two original edges).
    """
    if not boundaries:
        raise AlgorithmError("cannot partition without boundaries")
    if (len(blocks) != event_file.num_blocks
            or sum(map(len, blocks)) != len(event_file)):
        raise AlgorithmError(
            f"the {len(blocks)} blocks given are not those of file "
            f"{event_file.name!r} ({event_file.num_blocks} blocks, "
            f"{len(event_file)} records)")
    sub_slabs = make_subslabs(slab, boundaries)
    fanout = len(sub_slabs)
    sub_files = [
        ctx.create_file(EVENT_CODEC, name=f"{name_prefix}-{i}-events")
        for i in range(fanout)
    ]
    spanning_file = ctx.create_file(EVENT_CODEC, name=f"{name_prefix}-spanning")
    writers = [f.writer() for f in (*sub_files, spanning_file)]
    try:
        _partition_blocks(event_file, blocks, slab, boundaries, writers)
    finally:
        for writer in writers:
            writer.close()
    return sub_files, spanning_file, sub_slabs


#: Input blocks whose pieces the partition computes at once before it
#: replays their reads and writes.  Any value gives the same files and I/O.
_CHUNK_BLOCKS = 16


def _partition_blocks(event_file: RecordFile, blocks: list, slab: Slab,
                      boundaries: Sequence[float],
                      writers: Sequence[RecordWriter]) -> None:
    """Split the records of the blocks a scan of ``event_file`` read,
    which it removes from ``blocks`` as it goes.

    ``writers`` are the sub-slabs' writers and, last, the spanning file's.
    For every chunk of input blocks, the pieces of all its records are
    computed at once; then, for each of its blocks in turn, the block is
    re-read and the output blocks its pieces complete are written.  Pieces
    short of a full block wait in a one-block buffer per output file.
    """
    per_block = event_file.records_per_block
    files = len(writers)
    bs = np.asarray(boundaries, dtype=np.float64)
    # Sub-slab k spans [los[k], his[k]].
    los = np.concatenate(([slab.lo], bs))
    his = np.concatenate((bs, [slab.hi]))
    carry = np.empty((files, per_block, event_file.codec.float64_fields))
    held = np.zeros(files, dtype=np.intp)   # rows waiting in ``carry``
    first = 0
    while blocks:
        count = min(_CHUNK_BLOCKS, len(blocks))
        rows = np.concatenate(blocks[:count])
        del blocks[:count]
        targets, pieces, source = _pieces(rows, slab, bs, los, his,
                                          files - 1, per_block)
        full, full_files, written = _fill_blocks(targets, pieces, source,
                                                 carry, held, count)
        done = 0
        for block_index, writes in enumerate(written, start=first):
            event_file.reread_block(block_index)
            for target in full_files[done:done + writes]:
                writers[target].append_rows(full[done])
                done += 1
        first += count
    for writer, buffer, count in zip(writers, carry, held.tolist()):
        if count:
            writer.append_rows(buffer[:count])


def _pieces(rows, slab: Slab, bs, los, his, spanning: int, per_block: int):
    """The pieces of ``rows``: ``(targets, pieces, source)``.

    Every record has three slots, in this order: its piece in sub-slab
    ``i`` (the one holding its left end), its piece in sub-slab ``j``
    (right end) and its spanning piece.  The filled slots, in record order,
    are returned grouped by target file (stably), with each piece's source
    block, counted from the first row.
    """
    slab_lo, slab_hi = slab.lo, slab.hi
    x1, x2 = rows[:, 2], rows[:, 3]
    # max() and min() as Python takes them: the slab border only when
    # strictly beyond, so a signed zero keeps its sign.
    a = np.where(slab_lo > x1, slab_lo, x1)
    b = np.where(slab_hi < x2, slab_hi, x2)
    i = np.searchsorted(bs, a, side="right")
    hi_i = his[i]
    # j = searchsorted(bs, b, side="left") = i + the boundaries in (a, b),
    # and most x-ranges hold none or one: search only for the others.  (A
    # clipped-away range keeps j = i, which no piece of it reads.)
    j = i + (hi_i < b)
    far = np.flatnonzero(his[j] < b)
    j[far] = np.searchsorted(bs, b[far], side="left")
    lo_i, lo_j, hi_j = los[i], los[j], his[j]
    # Here a >= lo_i and b <= hi_j, so an end is open (strictly inside
    # its sub-slab) or lies on the border.
    clipped = a >= b     # the x-range clips away
    same = i == j
    left_open = a > lo_i
    right_open = b < hi_j
    span_lo = np.where(left_open, hi_i, lo_i)
    span_hi = np.where(right_open, lo_j, hi_j)

    count = len(rows)
    filled = np.empty((count, 3), dtype=bool)
    filled[:, 0] = left_open | (same & right_open)
    filled[:, 1] = ~same & right_open
    filled[:, :2] &= ~clipped[:, None]
    filled[:, 2] = clipped | (span_lo < span_hi)
    # The smallest type that holds them, so the stable sort below is a
    # radix sort.
    targets = np.empty((count, 3), dtype=np.min_scalar_type(spanning))
    targets[:, 0], targets[:, 1], targets[:, 2] = i, j, spanning
    piece_lo = np.empty((count, 3))
    piece_hi = np.empty((count, 3))
    piece_lo[:, 0], piece_hi[:, 0] = a, np.where(same, b, hi_i)
    piece_lo[:, 1], piece_hi[:, 1] = lo_j, b
    piece_lo[:, 2] = np.where(clipped, a, span_lo)
    piece_hi[:, 2] = np.where(clipped, b, span_hi)

    slots = np.flatnonzero(filled)
    targets = targets.ravel()[slots]
    order = np.argsort(targets, kind="stable")
    slots, targets = slots[order], targets[order]
    record = slots // 3
    pieces = rows[record]
    pieces[:, 2] = piece_lo.ravel()[slots]
    pieces[:, 3] = piece_hi.ravel()[slots]
    return targets, pieces, record // per_block


def _fill_blocks(targets, pieces, source, carry, held, input_blocks: int):
    """Cut each file's pieces into blocks after the rows it ``held``.

    ``targets``, ``pieces`` and ``source`` come from :func:`_pieces`.
    Returns the full blocks as one ``(blocks, B, fields)`` array in write
    order, each block's file, and how many blocks each of the
    ``input_blocks`` completes; ``carry`` and ``held`` are updated to the
    rows left over.

    A block is written right after the input block holding its last piece
    is read; the blocks one input block completes go out in file order
    (at most one of each file: see the module docstring).
    """
    files, per_block, fields = carry.shape
    counts = np.bincount(targets, minlength=files)
    starts = np.cumsum(counts) - counts
    total = held + counts
    full = total // per_block
    # The full blocks, file by file: each one's file, number and the input
    # block holding its last piece.
    blocks = int(full.sum())
    first_block = np.cumsum(full) - full
    block_file = np.repeat(np.arange(files), full)
    block_number = np.arange(blocks) - first_block[block_file]
    last_piece = (starts[block_file] + (block_number + 1) * per_block - 1
                  - held[block_file])
    block_source = source[last_piece]
    order = np.lexsort((block_file, block_source))
    rank = np.empty(blocks, dtype=np.intp)
    rank[order] = np.arange(blocks)

    full_blocks = np.empty((blocks, per_block, fields))
    opened = np.flatnonzero((full > 0) & (held > 0))
    full_blocks[rank[first_block[opened]]] = carry[opened]
    # Place of each piece in its file's rows since its last full block;
    # past the file's full blocks here, it is carried.
    place = (held - starts)[targets] + np.arange(len(targets))
    spill = place - (full * per_block)[targets]
    done = np.flatnonzero(spill < 0)
    row = (rank[first_block[targets[done]] + place[done] // per_block]
           * per_block + place[done] % per_block)
    full_blocks.reshape(-1, fields)[row] = pieces[done]
    kept = np.flatnonzero(spill >= 0)
    row = targets[kept].astype(np.intp) * per_block + spill[kept]
    carry.reshape(-1, fields)[row] = pieces[kept]
    held[:] = total - full * per_block
    written = np.bincount(block_source, minlength=input_blocks)
    return full_blocks, block_file[order].tolist(), written.tolist()
