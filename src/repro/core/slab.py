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

1. :func:`collect_edge_xs` -- one linear scan gathering the vertical-edge
   x-coordinates that lie strictly inside the slab;
2. :func:`choose_boundaries` -- picking ``m - 1`` boundary x-coordinates as
   quantiles of those edges, so each sub-slab receives roughly ``2K/m`` edges;
3. :func:`partition_event_file` -- one linear scan splitting every event into
   its per-slab pieces and its spanning piece, writing ``m`` sub-slab event
   files plus one spanning-event file, all of which stay sorted by y because
   the input is scanned in y order.

Implementation note: boundary selection materialises
the edge x-coordinates of the current sub-problem in process memory to take
exact quantiles.  The I/O charged for the step -- a single linear scan -- is
identical to a sort-order-maintaining implementation, and I/O is the only
quantity the experiments measure.

An event whose x-range clips away inside the slab (an object at
``x = +-inf``, or at ``|x|`` so large that ``x +- w/2`` rounds to ``x``)
covers nothing, but its y is still an h-line of the in-memory sweep.  It
goes to the spanning file, where it spans no sub-slab: MergeSweep emits its
h-line and changes no sum.

Whenever numpy imports, the three steps run on block arrays:
:func:`collect_edge_xs` masks each block's edges, :func:`choose_boundaries`
picks from a stable-sorted array, and :func:`partition_event_file` splits
a whole block with ``np.searchsorted`` (the sides of ``bisect_right`` and
``bisect_left``) and appends each output file's pieces in input order
before it reads the next block.  The record loops stay as the numpy-less
path; both give the same files, bit for bit, with the same block reads and
writes in the same order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.em.codecs import EVENT_CODEC
from repro.em.context import EMContext
from repro.em.record_file import RecordFile, RecordWriter, RowScatter
from repro.errors import AlgorithmError
from repro.geometry import Interval

try:  # guarded: the record loops divide without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None

__all__ = [
    "Slab",
    "collect_edge_xs",
    "choose_boundaries",
    "make_subslabs",
    "partition_event_file",
    "spanned_slab_range",
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


def collect_edge_xs(event_file: RecordFile, slab: Slab) -> List[float]:
    """Return the vertical-edge x-coordinates strictly inside ``slab``.

    Both edges of every event's x-range are collected (with multiplicity), so
    quantiles over the returned list balance the *edge* counts across
    sub-slabs exactly as in the proof of Lemma 1.  Costs one linear read of
    the event file.
    """
    lo, hi = slab.lo, slab.hi
    if event_file.supports_arrays:
        pieces = []
        for block in event_file.iter_block_arrays():
            xs = block[:, 2:4].ravel()   # x1, x2 of each record in turn
            pieces.append(xs[(lo < xs) & (xs < hi)])
        return np.concatenate(pieces).tolist() if pieces else []
    edges: List[float] = []
    for _, _, x1, x2, _ in event_file.reader():
        if lo < x1 < hi:
            edges.append(x1)
        if lo < x2 < hi:
            edges.append(x2)
    return edges


def choose_boundaries(edge_xs: Sequence[float], fanout: int) -> List[float]:
    """Pick up to ``fanout - 1`` slab boundaries as quantiles of ``edge_xs``.

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
    if np is not None:
        # Stable, as sorted() is, so of equal edges (-0.0 and 0.0) the
        # same one is picked.
        ordered = np.sort(np.asarray(edge_xs, dtype=np.float64), kind="stable")
        smallest, picks = float(ordered[0]), ordered[positions].tolist()
    else:
        ordered = sorted(edge_xs)
        smallest, picks = ordered[0], [ordered[p] for p in positions]
    boundaries: List[float] = []
    for candidate in picks:
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
    slab: Slab,
    boundaries: Sequence[float],
    *,
    name_prefix: str = "slab",
) -> Tuple[List[RecordFile], RecordFile, List[Slab]]:
    """Split a y-sorted event file into per-sub-slab files plus a spanning file.

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
    sub_slabs = make_subslabs(slab, boundaries)
    fanout = len(sub_slabs)
    sub_files = [
        ctx.create_file(EVENT_CODEC, name=f"{name_prefix}-{i}-events")
        for i in range(fanout)
    ]
    spanning_file = ctx.create_file(EVENT_CODEC, name=f"{name_prefix}-spanning")
    if event_file.supports_arrays:
        with RowScatter([*sub_files, spanning_file]) as scatter:
            _partition_blocks(event_file, slab, boundaries, scatter)
        return sub_files, spanning_file, sub_slabs
    writers: List[RecordWriter] = [f.writer() for f in sub_files]
    spanning_writer = spanning_file.writer()
    try:
        _partition_records(event_file, slab, boundaries, writers,
                           spanning_writer)
    finally:
        for writer in writers:
            writer.close()
        spanning_writer.close()
    return sub_files, spanning_file, sub_slabs


def _partition_records(event_file: RecordFile, slab: Slab,
                       boundaries: Sequence[float],
                       writers: Sequence[RecordWriter],
                       spanning_writer: RecordWriter) -> None:
    """:func:`partition_event_file` one record at a time (no numpy)."""
    bs = list(boundaries)
    slab_lo, slab_hi = slab.lo, slab.hi
    for record in event_file.reader():
        y, kind, x1, x2, weight = record
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


def _partition_blocks(event_file: RecordFile, slab: Slab,
                      boundaries: Sequence[float],
                      scatter: RowScatter) -> None:
    """:func:`_partition_records` a block at a time.

    ``scatter`` writes the sub-slabs' files and, last, the spanning file.
    Every record has three slots, in this order: its piece in sub-slab
    ``i`` (the one holding its left end), its piece in sub-slab ``j``
    (right end) and its spanning piece.  The filled slots, in record order,
    are scattered to their files, so each file gets its pieces in input
    order, and all of them before the next block is read.
    """
    bs = np.asarray(boundaries, dtype=np.float64)
    slab_lo, slab_hi = slab.lo, slab.hi
    # Sub-slab k spans [los[k], his[k]].
    los = np.concatenate(([slab_lo], bs))
    his = np.concatenate((bs, [slab_hi]))
    spanning = len(scatter.writers) - 1
    for block in event_file.iter_block_arrays():
        x1, x2 = block[:, 2], block[:, 3]
        # max() and min() as Python takes them: the slab border only when
        # strictly beyond, so a signed zero keeps its sign.
        a = np.where(slab_lo > x1, slab_lo, x1)
        b = np.where(slab_hi < x2, slab_hi, x2)
        i = np.searchsorted(bs, a, side="right")
        j = np.searchsorted(bs, b, side="left")
        lo_i, hi_i, lo_j, hi_j = los[i], his[i], los[j], his[j]
        # Here a >= lo_i and b <= hi_j, so an end is open (strictly inside
        # its sub-slab) or lies on the border.
        clipped = a >= b     # the x-range clips away
        same = i == j
        left_open = a > lo_i
        right_open = b < hi_j
        span_lo = np.where(left_open, hi_i, lo_i)
        span_hi = np.where(right_open, lo_j, hi_j)

        rows = len(block)
        filled = np.empty((rows, 3), dtype=bool)
        filled[:, 0] = left_open | (same & right_open)
        filled[:, 1] = ~same & right_open
        filled[:, :2] &= ~clipped[:, None]
        filled[:, 2] = clipped | (span_lo < span_hi)
        targets = np.empty((rows, 3), dtype=np.intp)
        targets[:, 0], targets[:, 1], targets[:, 2] = i, j, spanning
        pieces = np.empty((rows, 3, 5))
        pieces[:] = block[:, None, :]
        pieces[:, 0, 2], pieces[:, 0, 3] = a, np.where(same, b, hi_i)
        pieces[:, 1, 2], pieces[:, 1, 3] = lo_j, b
        pieces[:, 2, 2] = np.where(clipped, a, span_lo)
        pieces[:, 2, 3] = np.where(clipped, b, span_hi)
        filled = filled.ravel()
        scatter.append(targets.ravel()[filled], pieces.reshape(-1, 5)[filled])


def spanned_slab_range(sub_slabs: Sequence[Slab], x1: float,
                       x2: float) -> Tuple[int, int]:
    """Return the inclusive range ``(first, last)`` of sub-slab indices fully
    spanned by the x-range ``[x1, x2]``, or ``(1, 0)`` (an empty range) when no
    sub-slab is fully covered.

    Used by ``MergeSweep`` to translate a spanning rectangle into the slabs
    whose ``upSum`` it affects.
    """
    los = [s.lo for s in sub_slabs]
    his = [s.hi for s in sub_slabs]
    first = bisect_left(los, x1)
    last = bisect_right(his, x2) - 1
    if first > last:
        return 1, 0
    return first, last
