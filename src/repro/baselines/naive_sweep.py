"""Naive externalized plane sweep (the "Naive" baseline of Section 7).

The classical in-memory algorithm sweeps a horizontal line over the dual
rectangles, keeping the x-intervals of the currently intersected rectangles in
a binary tree.  The *naive* externalization studied by Du et al. -- and used
by the paper as the first comparison point -- simply keeps that interval set
as a flat file on disk:

* at a bottom edge, the whole interval file is read to determine how much
  weight already overlaps the new interval (updating the running maximum), and
  the file is rewritten with the new interval appended;
* at a top edge, the file is read and rewritten without the closed interval.

Each of the ``2N`` events therefore costs ``Θ(A/B)`` block transfers, where
``A`` is the current number of active intervals, for a total of ``O(N²/B)``
I/Os -- the quadratic curve that dominates Figures 12--16.

Two execution modes are provided:

* **real mode** (default): the interval file genuinely lives on the simulated
  disk and every scan and rewrite moves blocks through the buffer pool;
* **simulation mode** (``simulate_io=True``): the same block transfers are
  charged against the same counters using the exact per-event formula above,
  while the sweep bookkeeping runs on an in-memory mirror.  The reported
  optimum is identical; only wall-clock time differs.  This is what makes the
  paper-scale parameter sweeps (hundreds of thousands of objects, for which
  the real mode would perform billions of block transfers) feasible.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.baselines.common import BaselineResult
from repro.core.transform import objects_file_to_event_file, write_objects_file
from repro.em.codecs import EVENT_BOTTOM, EVENT_CODEC
from repro.em.context import EMContext
from repro.em.external_sort import external_sort
from repro.em.record_file import RecordFile
from repro.em.serializer import StructRecordCodec
from repro.errors import ConfigurationError
from repro.geometry import WeightedPoint, is_positive_finite

__all__ = ["NaivePlaneSweep"]

#: Codec of one active interval ``(x1, x2, weight)``.
_INTERVAL_CODEC = StructRecordCodec("<ddd")

Interval3 = Tuple[float, float, float]


class NaivePlaneSweep:
    """Naive external plane sweep for MaxRS.

    Parameters
    ----------
    ctx:
        External-memory context to run in (and charge I/O against).
    width, height:
        The query rectangle size ``d1 x d2``.
    simulate_io:
        Use the I/O-faithful simulation mode instead of physically scanning
        and rewriting the interval file (see module docstring).
    """

    def __init__(self, ctx: EMContext, width: float, height: float, *,
                 simulate_io: bool = False) -> None:
        if not is_positive_finite(width, height):
            raise ConfigurationError(
                "query rectangle must have a positive finite extent, "
                f"got {width} x {height}"
            )
        self.ctx = ctx
        self.width = width
        self.height = height
        self.simulate_io = simulate_io

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def solve(self, objects) -> BaselineResult:
        """Solve MaxRS for an in-memory list of objects."""
        objects_file = write_objects_file(self.ctx, objects, name="naive-objects")
        try:
            return self.solve_objects_file(objects_file)
        finally:
            objects_file.delete()

    def solve_objects_file(self, objects_file: RecordFile) -> BaselineResult:
        """Solve MaxRS for a dataset stored as an object record file."""
        start = self.ctx.stats.snapshot()
        event_file = objects_file_to_event_file(
            self.ctx, objects_file, self.width, self.height, name="naive-events")
        sorted_events = external_sort(
            self.ctx, event_file, EVENT_CODEC, delete_input=True)
        if self.simulate_io:
            result = self._sweep_simulated(sorted_events)
        else:
            result = self._sweep_real(sorted_events)
        sorted_events.delete()
        io = self.ctx.io_since(start)
        return BaselineResult(
            total_weight=result[0],
            io=io,
            best_x1=result[1],
            best_x2=result[2],
            best_y=result[3],
            events_processed=result[4],
            simulated=self.simulate_io,
        )

    # ------------------------------------------------------------------ #
    # Real mode: the interval file lives on the simulated disk
    # ------------------------------------------------------------------ #
    def _sweep_real(self, event_file: RecordFile):
        active_file = self.ctx.create_file(_INTERVAL_CODEC, name="naive-active")
        best_weight = 0.0
        best = (-math.inf, math.inf, -math.inf)
        events = 0
        for record in event_file.reader():
            y, kind, x1, x2, weight = record
            events += 1
            active: List[Interval3] = [tuple(r) for r in active_file.reader()]
            if kind == EVENT_BOTTOM:
                overlap = _max_overlap_within(active, x1, x2) + weight
                if overlap > best_weight:
                    best_weight = overlap
                    best = (x1, x2, y)
                active.append((x1, x2, weight))
            else:
                _remove_one(active, (x1, x2, weight))
            rewritten = self.ctx.create_file(_INTERVAL_CODEC, name="naive-active")
            rewritten.write_all(active)
            active_file.delete()
            active_file = rewritten
        active_file.delete()
        return best_weight, best[0], best[1], best[2], events

    # ------------------------------------------------------------------ #
    # Simulation mode: identical I/O charges, in-memory bookkeeping
    # ------------------------------------------------------------------ #
    def _sweep_simulated(self, event_file: RecordFile):
        from repro.core.plane_sweep import sweep_events

        records_per_block = self.ctx.records_per_block(_INTERVAL_CODEC.record_size)
        stats = self.ctx.stats
        active_count = 0
        events = 0
        all_records = []
        for record in event_file.reader():
            kind = record[1]
            events += 1
            # The real implementation reads the whole interval file and
            # rewrites it with the interval added or removed; charge exactly
            # those block transfers.
            stats.record_read(_blocks(active_count, records_per_block))
            if kind == EVENT_BOTTOM:
                active_count += 1
            else:
                active_count -= 1
            stats.record_write(_blocks(active_count, records_per_block))
            all_records.append(record)
        # The reported optimum is independent of the execution mode; compute
        # it once with the in-memory sweep (free of simulated I/O, as the
        # charges above already account for the naive algorithm's work).
        _, best = sweep_events(all_records)
        return best.weight, best.x1, best.x2, best.y1, events


# ---------------------------------------------------------------------- #
# Sweep-step helpers (shared by both modes)
# ---------------------------------------------------------------------- #
def _blocks(records: int, per_block: int) -> int:
    """Blocks needed to hold ``records`` records."""
    if records <= 0:
        return 0
    return (records + per_block - 1) // per_block


def _max_overlap_within(active: List[Interval3], x1: float, x2: float) -> float:
    """Maximum total weight of active intervals overlapping a point of ``(x1, x2)``.

    The maximum over the open interval is computed with a one-dimensional
    endpoint sweep clipped to ``(x1, x2)``.  The new interval's own weight is
    *not* included (the caller adds it), matching the insertion step of the
    classical algorithm: the best placement containing the new rectangle is
    evaluated the moment the rectangle is inserted.
    """
    if not active:
        return 0.0
    boundaries: List[Tuple[float, float]] = []
    for a1, a2, w in active:
        lo = max(a1, x1)
        hi = min(a2, x2)
        if lo < hi:
            boundaries.append((lo, w))
            boundaries.append((hi, -w))
    if not boundaries:
        return 0.0
    boundaries.sort()
    best = 0.0
    running = 0.0
    index = 0
    count = len(boundaries)
    while index < count:
        x = boundaries[index][0]
        while index < count and boundaries[index][0] == x:
            running += boundaries[index][1]
            index += 1
        if running > best:
            best = running
    return best


def _remove_one(active: List[Interval3], interval: Interval3) -> None:
    """Remove one occurrence of ``interval`` from the active list."""
    for position in range(len(active) - 1, -1, -1):
        if active[position] == interval:
            del active[position]
            return


def solve_naive(objects: List[WeightedPoint], width: float, height: float,
                ctx: Optional[EMContext] = None, *,
                simulate_io: bool = False) -> BaselineResult:
    """Convenience wrapper running :class:`NaivePlaneSweep` on a fresh context."""
    context = ctx if ctx is not None else EMContext()
    return NaivePlaneSweep(context, width, height,
                           simulate_io=simulate_io).solve(objects)
