"""Numpy-vectorised sweep backend (chunked difference-array plane sweep).

The pure-Python sweep spends its time in per-event segment-tree recursion:
``O(log n)`` Python frames per edge, ~45 us per event at serving scale.  This
backend replaces the dynamic tree with an *offline* formulation that numpy
can chew through in bulk.  It is one kernel -- one preparation and one step
loop -- run in two modes.

**Preparation** (``_prepare_slabs``) takes a batch of slabs; a best-only
sweep is a batch of one.  Each slab's events may be a list of event tuples
or an ``(n, 5)`` float array, which ExactMaxRS's leaves read from their
event files.  One stable sort by (slab, y) orders every event (ExactMaxRS's
leaf files already are in that order), each event is clipped to its own
slab, and each slab's boundaries are compressed on their own and laid end
to end on one cell axis.  A batch of one skips the per-slab bookkeeping.
The engine's sweeps pass point columns instead
(:class:`repro.core.transform.ColumnEvents`): ``_prepare_columns`` makes
the same arrays by merging one sort of the x's and one of the y's, as an
event's y is its point's ``y -+ h/2`` and an edge end its ``x -+ w/2``.

**The step loop** (``_sweep_slab_lines``) advances every slab by the same
number of its own h-lines per step.  The location-weight profile at a
step's start (``V0``, one value per cell) is carried as a flat array.
Within a step the only profile changes are the step's own ``E`` edges, and
the slab starts are fixed boundaries, so the x-axis collapses to at most
``2E + slabs`` *segments*, none crossing a slab, on which every change is
constant: per-segment maxima of ``V0`` come from ``np.maximum.reduceat``,
and the per-segment offsets over the step's rows are two cumulative sums
over a small ``(rows x segments)`` difference matrix.  Each (row, slab)
maximum is then one ``np.maximum.reduceat`` at the slab starts over a
matrix a few hundred elements wide, instead of a tree query over 10^5
cells.  The loop has two modes:

* **slab-file** (:meth:`NumpySweepBackend.sweep_slabs` -- ExactMaxRS's
  sibling leaves, the in-memory MaxkRS): per (row, slab) also the leftmost
  argmax and its maximal run, from segmented index tricks
  (``np.minimum.reduceat`` over masked cell indices).  Runs that leave
  their attaining segment find their break segment with one dense test of
  the step's segment minima; they, and the runs within the floating-point
  run tolerance, finish by ragged first-hit searches over the cells they
  still have to scan: a fixed number of numpy calls per step, no per-h-line
  loop.  A run stops at its slab's last cell even where the next slab's
  first cell ties.  Each slab-file comes back as an ``(h, 4)`` float64
  array, which :meth:`~repro.em.record_file.RecordFile.write_all` writes
  as is.
* **best-only** (:meth:`NumpySweepBackend.sweep` -- the engine's probe and
  refine, ``solve_in_memory``, ExactMaxRS's in-memory root): only the
  (row, slab) maxima, with no argmax, plateau or run work, over a **slab
  plan**, the in-memory form of ExactMaxRS's x-slabs (Choi et al.,
  Algorithm 2).  The cells are cut into x-slabs about one dual rectangle
  wide (the mean edge span in cells, at least ``_MIN_SLAB_CELLS``), each
  edge is clipped into the x-slabs it touches (about two pieces per edge on
  uniform data), and each x-slab numbers its own h-lines.  Where an x-slab
  would span more than a quarter of the cells (wide windows, most clustered
  data) the plan is the slab itself: its rows are the global h-lines and
  its pieces the prepared edges.  Either plan is swept in two levels
  (``_sweep_best_lines``), the way ExactMaxRS solves a compressed
  sub-problem where the whole does not fit: a *long* step advances every
  slab by hundreds to thousands of its own h-lines, its edges cut the cells
  into a few segments, and the step loop above runs its *short* steps over
  these segments alone, from each one's maximum of ``V0``.  So only two
  passes per long step touch every cell, not two per short step.  The
  answer's weight is the largest slab maximum (or the untouched ``0`` of an
  x-slab that has not started yet), its h-line the earliest at which any
  x-slab reaches it; that h-line's profile is rebuilt once for the leftmost
  argmax and maximal run, so no merge across x-slab borders is needed.

A step's fixed cost (a few hundred numpy calls) is shared by its slabs,
its passes over the cells (or segments) grow with them and its matrices
with ``rows**2`` per slab.  Two rules balance them, capped by
``_CHUNK_HLINES``; the output never depends on the rows per step:

* best-only (``_best_steps``): long steps of ``2 * width ** (2/3)`` own
  h-lines for slabs ``width`` cells wide, short steps of ``0.8 * sqrt(long
  + _STEP_FIXED_CELLS / slabs)``; slabs with no more h-lines than a long
  step run the short steps over the cells directly;
* slab-file (``_records_step``): ``sqrt(cells per slab + _STEP_FIXED_CELLS
  / slabs)`` rows (16 for 107 ExactMaxRS leaves of ~197 cells, ~110 for one
  4,001-cell slab); one slab of at most ``2 * _CHUNK_HLINES`` cells takes
  ``_CHUNK_HLINES``, since its steps' segments already cover it.

The slab-files and best strips follow the reference backend's conventions
exactly (same cell boundaries, leftmost argmax, same ``1e-12`` relative run
tolerance), so results are bit-identical to :class:`~repro.core.backends.
pure.PurePythonBackend` whenever the location-weight sums are exactly
representable -- see the determinism contract in :mod:`repro.core.backends`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.core.beststrip import BestStrip
from repro.core.transform import ColumnEvents
from repro.em.codecs import EVENT_BOTTOM
from repro.errors import AlgorithmError, ConfigurationError
from repro.geometry import Interval

try:  # guarded: the package must import (and report) cleanly without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None

__all__ = ["NumpySweepBackend"]

#: The most own h-lines a slab advances per step of the loop (a short step
#: of a best-only sweep), and the most short steps in a long one.  Large
#: enough to amortise per-step numpy dispatch and the O(cells) segment
#: rebuild, small enough that the per-step difference matrix stays
#: cache-resident.
_CHUNK_HLINES = 128

#: Relative tolerance of the maximal-run extension -- must match
#: :meth:`repro.core.segment_tree.MaxAddSegmentTree.max_run_from` exactly.
_RUN_TOLERANCE = 1e-12

#: Narrowest x-slab of the best-only slab plan, in elementary cells: below
#: this the per-step fixed costs outweigh the shorter steps.
_MIN_SLAB_CELLS = 64

#: Step matrices wider than this many segments accumulate over rows by one
#: vector add per row: ``np.cumsum`` along an axis costs ~4.5 ns per
#: element here, a row add ~0.3 ns per element plus ~1.2 us per call.
#: Either way the sums are the same, added in the same order.
_ROW_ADD_SEGMENTS = 256

#: Cells one batch of the maximal-run scans gathers at most (plus one
#: range), which bounds their index arrays to a few MB.
_SCAN_CELLS = 1 << 18

#: The fixed cost of a step (its few hundred numpy calls), counted in
#: cells of array work; it sets the rows per step of batches of few slabs
#: (see ``_records_step`` and ``_best_steps``).  Measured best for
#: slab-files: 16 rows for 107 slabs of ~197 cells, 96-128 for one slab of
#: 4,001 cells.
_STEP_FIXED_CELLS = 8192


class NumpySweepBackend:
    """Vectorised sweep backend; requires numpy."""

    name = "numpy"

    def __init__(self) -> None:
        if np is None:
            raise ConfigurationError(
                "NumpySweepBackend requires numpy, which is not importable"
            )

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def sweep(self, event_records: Sequence[Tuple[float, ...]],
              slab_range: Optional[Interval] = None) -> BestStrip:
        """The best strip of one slab's sweep (no slab-file)."""
        if slab_range is None:
            slab_range = Interval.full()
        if len(event_records) == 0:
            return BestStrip.empty(slab_range.lo, slab_range.hi)

        with obs.span("backend.sweep.prepare"):
            if (isinstance(event_records, ColumnEvents)
                    and slab_range == Interval.full()):
                prepared = self._prepare_columns(event_records)
            else:
                prepared = self._prepare_slabs([(event_records, slab_range)])
        if prepared is None:
            return BestStrip.empty(slab_range.lo, slab_range.hi)
        with obs.span("backend.sweep.kernel"):
            return self._sweep_best_only(*prepared[1:])

    def sweep_slabs(self, slabs: Sequence[Tuple[Sequence[Tuple[float, ...]],
                                                Optional[Interval]]]):
        """Sweep many slabs in one slab-file pass.

        ``slabs`` holds ``(event_rows, slab_range)`` pairs.  Returns, per
        slab and in order, its slab-file as an ``(h, 4)`` float64 array of
        ``(y, x1, x2, sum)`` rows and its best strip, which is what
        :meth:`sweep` returns for that slab.
        """
        slabs = [(rows, Interval.full() if slab_range is None else slab_range)
                 for rows, slab_range in slabs]
        results = [(np.empty((0, 4)), BestStrip.empty(r.lo, r.hi))
                   for _, r in slabs]
        with obs.span("backend.sweep.prepare"):
            prepared = self._prepare_slabs(slabs)
        with obs.span("backend.sweep.kernel"):
            if prepared is None:
                return results
            swept, uy, xs, lines, starts, *edges = prepared
            step = self._records_step(len(lines), int(starts[-1]))
            value, cell, run = self._sweep_slab_lines(starts, lines, *edges,
                                                      step)
            # Slab k's boundaries sit k places right of its cells: every
            # slab before it has one boundary more than it has cells.
            shift = np.repeat(np.arange(len(lines)), lines)
            rows = np.column_stack((uy, xs[cell + shift], xs[run + 1 + shift],
                                    value))
            end = np.cumsum(lines)
            for slab, first, last in zip(swept.tolist(),
                                         (end - lines).tolist(), end.tolist()):
                own = rows[first:last]
                i = int(np.argmax(own[:, 3]))
                y2 = float(own[i + 1, 0]) if i + 1 < len(own) else math.inf
                y1, x1, x2, weight = own[i].tolist()
                results[slab] = (own, BestStrip(weight=weight, x1=x1, x2=x2,
                                                y1=y1, y2=y2))
        return results

    @staticmethod
    def _prepare_slabs(slabs):
        """Sort, clip and compress the events of a batch of slabs.

        Returns ``(swept, uy, xs, lines, starts, left, right, delta, row)``,
        or ``None`` when no slab has both events and a cell:

        * ``swept`` -- the indices of the slabs that have both; the other
          arrays describe these slabs only, in this order;
        * ``uy`` -- the slabs' distinct h-lines, slab after slab, and
          ``lines`` -- how many each slab has;
        * ``xs`` -- the slabs' cell boundaries, slab after slab, and
          ``starts`` -- each slab's first cell on the one cell axis on which
          the slabs' cells lie end to end, then the number of cells;
        * per applying edge, slab after slab in h-line order: its first
          cell, exclusive end cell, signed weight, and ``row``, its h-line
          among its own slab's.

        A slab gets the same cells, h-lines and edges whatever the batch.
        Of equal boundaries (``0.0`` and ``-0.0``) a slab keeps the first in
        the order borders, clipped ``x1``, clipped ``x2``.  Only these
        arrays outlive the call, so a sweep does not keep the sorted copy
        of its input alive.
        """
        arrays, swept, slab_lo, slab_hi = [], [], [], []
        for index, (rows, slab_range) in enumerate(slabs):
            if len(rows) == 0:
                continue
            ev = np.asarray(rows, dtype=np.float64)
            if ev.ndim != 2 or ev.shape[1] != 5:
                raise AlgorithmError(
                    f"event records must be (y, kind, x1, x2, weight) tuples, "
                    f"got array of shape {ev.shape}"
                )
            lo, hi = slab_range.lo, slab_range.hi
            if lo == hi:  # zero width: every event clips away, no cell
                continue
            arrays.append(ev)
            swept.append(index)
            slab_lo.append(lo)
            slab_hi.append(hi)
        if not arrays:
            return None
        num_slabs = len(arrays)
        # A batch of one needs no slab index per event, boundary or edge.
        many = num_slabs > 1
        if many:
            ev = np.concatenate(arrays)
            slab = np.repeat(np.arange(num_slabs), [len(a) for a in arrays])
            new_slab = slab[1:] != slab[:-1]
        else:
            ev, slab = arrays[0], 0
        del arrays  # so the sort below frees a copy made from list input
        # One stable sort by (slab, y), unless the events are in that order.
        ey = ev[:, 0]
        in_order = ey[1:] >= ey[:-1]
        if many:
            in_order |= new_slab
        if not in_order.all():
            order = np.argsort(ey, kind="stable")
            if many:
                order = order[_stable_order(slab[order], num_slabs)]
            ev = ev[order]
            ey = ev[:, 0]

        # Clip every event to its own slab; events that survive clipping
        # contribute cell boundaries, and those with non-zero weight are
        # applied to the profile (mirroring the reference sweep, which
        # skips zero-weight edges *after* boundary extraction).
        slab_lo, slab_hi = np.array(slab_lo), np.array(slab_hi)
        lo = np.maximum(ev[:, 2], slab_lo[slab])
        hi = np.minimum(ev[:, 3], slab_hi[slab])
        clipped = lo < hi  # False for NaN edges
        applies = clipped & (ev[:, 4] != 0.0)

        owner = None
        if many:
            clip_slab = slab[clipped]
            owner = np.concatenate((np.arange(num_slabs), np.arange(num_slabs),
                                    clip_slab, clip_slab))
        xs, cells, inverse = _compress(
            np.concatenate((slab_lo, slab_hi, lo[clipped], hi[clipped])),
            owner, num_slabs)
        starts = np.concatenate(([0], np.cumsum(cells)))

        applying = applies[clipped]
        num_clipped = len(applying)
        left = inverse[2 * num_slabs:2 * num_slabs + num_clipped][applying]
        right = inverse[2 * num_slabs + num_clipped:][applying]  # exclusive
        weights = ev[:, 4][applies]
        delta = np.where(ev[:, 1][applies] == EVENT_BOTTOM, weights, -weights)

        # Distinct h-lines of each slab, and each applying edge's own row.
        new_line, uy, row = _distinct(ey, new_slab if many else None)
        row = row[applies]
        if many:
            # Slab k's boundary g is cell g - k: each earlier slab has one
            # boundary more than cells.
            edge_slab = clip_slab[applying]
            left -= edge_slab
            right -= edge_slab
            lines = np.bincount(slab[new_line], minlength=num_slabs)
            row -= (np.cumsum(lines) - lines)[edge_slab]
        else:
            lines = np.array([len(uy)])
        return (np.array(swept), uy, xs, lines, starts, left, right, delta,
                row)

    @staticmethod
    def _prepare_columns(events):
        """:meth:`_prepare_slabs`'s arrays, bit for bit, for the whole-line
        sweep of :class:`~repro.core.transform.ColumnEvents`.  The cells
        merge the sorted ``x -+ w/2``; the event order merges the sorted
        bottoms ``y - h/2`` (event ``2i``) and tops ``y + h/2`` (``2i + 1``)
        as the rows' stable sort orders them: equal y's by event, NaNs last.
        """
        xs, ys, ws = events.xs, events.ys, events.ws
        half_w, half_h = events.width / 2.0, events.height / 2.0
        count = len(xs)
        order = np.argsort(xs)
        lower, upper = xs[order] - half_w, xs[order] + half_w
        kept = lower < upper  # False at NaN, and where both ends round alike
        order, lower, upper = order[kept], lower[kept], upper[kept]
        at_lower, at_upper = (at + 1 for at in _merge(lower, upper))
        ends = np.full(2 * len(order) + 2, math.inf)  # between the borders
        ends[0], ends[at_lower], ends[at_upper] = -math.inf, lower, upper
        _, xs, rank = _distinct(ends)
        left, right = np.zeros((2, count), dtype=np.intp)  # 0: clipped away
        left[order], right[order] = rank[at_lower], rank[at_upper]

        real = count - np.count_nonzero(np.isnan(ys))
        order = np.argsort(ys)
        order[real:].sort()  # the NaN y's, each point's two events in turn
        below, above = (_stable(ys + shift, order)[:real]
                        for shift in (-half_h, half_h))
        bottoms, tops = ys[below] - half_h, ys[above] + half_h
        at_bottom, at_top = _merge(bottoms, tops, below, above)
        event, ey = np.empty(2 * count, dtype=np.intp), np.empty(2 * count)
        event[at_bottom], event[at_top] = 2 * below, 2 * above + 1
        event[2 * real:] = (2 * order[real:, None] + (0, 1)).ravel()
        ey[at_bottom], ey[at_top] = bottoms, tops
        ey[2 * real:] = (ys[order[real:], None] + (-half_h, half_h)).ravel()
        _, uy, row = _distinct(ey)
        applies = ((right > 0) & (ws != 0.0))[event >> 1]
        event = event[applies]
        point = event >> 1
        return (np.array([0]), uy, xs, np.array([len(uy)]),
                np.array([0, len(xs) - 1]), left[point], right[point],
                np.column_stack((ws, -ws)).ravel()[event], row[applies])

    # ------------------------------------------------------------------ #
    # Best-only mode (the engine's probe and refine stages)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _slab_width(num_cells, left, right) -> int:
        """Cells per x-slab of the best-only slab plan.

        About one dual rectangle wide: the mean applying-edge span in
        cells, at least ``_MIN_SLAB_CELLS``.  Returns ``num_cells`` (the
        slab itself) when an x-slab would exceed a quarter of the cells.
        """
        if len(left) == 0:
            return num_cells
        span = (int(right.sum()) - int(left.sum())) // len(left)
        width = max(_MIN_SLAB_CELLS, span)
        return width if 4 * width <= num_cells else num_cells

    def _sweep_best_only(self, uy, xs, lines, starts, left, right, delta,
                         row):
        """The best strip of one prepared slab, over its slab plan."""
        num_cells, num_hlines = int(starts[-1]), len(uy)
        width = self._slab_width(num_cells, left, right)
        if width == num_cells:
            # The slab itself: its rows are the global h-lines and its
            # pieces the prepared edges.
            line_h = np.arange(num_hlines)
            slab_best = self._sweep_best_lines(starts, lines, left, right,
                                               delta, row)
        else:
            slab_starts = np.append(np.arange(0, num_cells, width), num_cells)
            pieces, lines, line_h = _cut_into_slabs(
                width, len(slab_starts) - 1, left, right, delta, row)
            slab_best = self._sweep_best_lines(slab_starts, lines, *pieces)

        weight = float(slab_best.max())
        t_best = int(line_h[slab_best == weight].min())
        # An x-slab with no piece on the first h-line is still all zeros
        # there.
        line_offset = np.cumsum(lines) - lines
        first_lines = line_h[line_offset[lines > 0]]
        if weight <= 0.0 and ((lines == 0).any() or (first_lines > 0).any()):
            weight, t_best = 0.0, 0
        y1 = float(uy[t_best])
        y2 = float(uy[t_best + 1]) if t_best + 1 < num_hlines else math.inf

        # Reconstruct the winning h-line's profile once to recover the
        # leftmost maximal run (the x-extent of the best strip).
        count = int(np.searchsorted(row, t_best, side="right"))
        G = _edge_sums(np.concatenate((left[:count], right[:count])),
                       delta[:count], num_cells + 1)
        V = np.cumsum(G[:num_cells])
        j = int(np.argmax(V))
        threshold = weight - _RUN_TOLERANCE * max(1.0, abs(weight))
        tail_below = V[j + 1:] < threshold
        if tail_below.size and tail_below.any():
            run_end = j + int(np.argmax(tail_below))
        else:
            run_end = num_cells - 1
        return BestStrip(weight=weight, x1=float(xs[j]),
                         x2=float(xs[run_end + 1]), y1=y1, y2=y2)

    # ------------------------------------------------------------------ #
    # The step loop
    # ------------------------------------------------------------------ #
    @staticmethod
    def _records_step(num_slabs: int, num_cells: int) -> int:
        """Own h-lines every slab advances per step of a slab-file sweep.

        A step costs a fixed few hundred numpy calls, shared by all slabs,
        plus passes over the cells (``cells`` per slab) and matrices of
        about ``rows**2`` per slab.  ``sqrt(cells per slab +
        _STEP_FIXED_CELLS / slabs)`` rows balance them; capped by
        ``_CHUNK_HLINES``.  One slab of at most ``2 * _CHUNK_HLINES`` cells
        has about one edge per h-line, so a step's segments already cover
        it: a step costs about rows x cells whatever the rows, and the
        fewest steps win.
        """
        if num_slabs == 1 and num_cells <= 2 * _CHUNK_HLINES:
            return _CHUNK_HLINES
        rows = round(math.sqrt((num_cells + _STEP_FIXED_CELLS) / num_slabs))
        return max(1, min(_CHUNK_HLINES, rows))

    @staticmethod
    def _best_steps(num_slabs: int, num_cells: int) -> Tuple[int, int]:
        """``(long, short)``: own h-lines every slab advances per long and
        per short step of a best-only sweep; ``long`` is 0 where long steps
        do not pay, and the short steps run over the cells directly.

        Per slab, a long step passes twice over its ``width`` cells; each of
        its short steps passes twice over the long step's ~``2 * long``
        segments, builds a matrix of ~``2 * short**2`` entries and shares a
        fixed few hundred numpy calls (``_STEP_FIXED_CELLS``) with the
        other slabs.  Per h-line that is about ``width / long + (2 * long +
        _STEP_FIXED_CELLS / slabs) / short + 2 * short``, least at ``short
        ~ sqrt(long + _STEP_FIXED_CELLS / slabs)`` and ``long ~ width **
        (2/3)``.  The constants are fitted to the best steps measured on
        200k uniform points (2 vCPUs; the optimum is flat, fixed steps
        within ~1.5x of these time within ~10%): ``long = 2 * width **
        (2/3)`` and ``short = 0.8 * sqrt(long + _STEP_FIXED_CELLS /
        slabs)``.  They give (315, 15) for 201 x-slabs of 1,996 cells
        (0.5% windows), (980, 28) for 37 of 10,857 (2.75%), (1428, 34) for
        21 of 19,519 (5%) and (10890, 110) for the slab itself, 400,001
        cells (30%), where the loop takes 0.63 / 1.18 / 1.18 / 1.74 s
        against 0.82 / 1.74 / 1.79 / 4.39 s in one level of steps of
        ``0.4 * sqrt(width)`` rows on x-slabs and 128 on the slab itself
        (medians of interleaved runs).

        A long step pays only where a short step's passes over the cells
        outweigh its matrix several times over, ``width >= 6 * short**2``:
        a small profile stays in the cache, where its passes cost less
        than a long step's sort and bookkeeping.  Measured against the
        short steps alone, long steps took 0.91-0.93x at 8-40k cells
        (``width / short**2`` 1.4-4.9), 0.93-0.98x at 100k cells (5.9),
        1.01-1.04x at 7.4-7.8, and 1.07-1.9x from 8.9 up (100-400k
        cells).  ``short`` is capped by ``_CHUNK_HLINES``, and ``long`` is
        a whole number of short steps, at most ``_CHUNK_HLINES`` of them.
        """
        width = num_cells / num_slabs
        long = 2 * width ** (2 / 3)
        short = round(0.8 * math.sqrt(long + _STEP_FIXED_CELLS / num_slabs))
        short = max(1, min(_CHUNK_HLINES, short))
        if width < 6 * short ** 2:
            return 0, short
        return short * max(1, min(_CHUNK_HLINES, round(long / short))), short

    @staticmethod
    def _chunk_offsets(V0, num_rows, cl, cr, cd, rows, edges):
        """Segment structure and per-row offset matrix of one step.

        ``cl``/``cr``/``cd`` are the step's edges (first cell, exclusive
        end cell, signed weight), ``rows`` the row (h-line) of each within
        the step, and ``edges`` the fixed cell boundaries every step keeps
        (the slab starts, then the number of cells).

        Returns ``(bnd, M0, W, net)`` where ``bnd`` are the segment cell
        boundaries, ``M0[s]`` the max of ``V0`` on segment ``s``,
        ``W[t, s] = M0[s] + Delta_t[s]`` the per-segment maxima after the
        step's first ``t+1`` rows, and ``net[s]`` the step's total
        per-segment delta (for carrying ``V0`` forward).
        """
        num_edges = len(cl)
        bnd, inverse = np.unique(np.concatenate((cl, cr, edges)),
                                 return_inverse=True)
        M0 = np.maximum.reduceat(V0, bnd[:-1])
        ends = np.tile(rows * len(bnd), 2) + inverse[:2 * num_edges]
        diff = _edge_sums(ends, cd, num_rows * len(bnd)).reshape(num_rows,
                                                                 len(bnd))
        np.cumsum(diff, axis=1, out=diff)      # un-diff over segments
        if len(bnd) > _ROW_ADD_SEGMENTS:       # accumulate over rows
            for t in range(1, num_rows):
                np.add(diff[t], diff[t - 1], out=diff[t])
        else:
            np.cumsum(diff, axis=0, out=diff)
        W = diff[:, :-1]
        net = W[-1].copy()
        W += M0
        return bnd, M0, W, net

    def _sweep_best_lines(self, starts, lines, left, right, delta, row):
        """The maximum of every h-line (slab after slab) of a best-only
        sweep, in long steps of short steps.

        Arguments as :meth:`_sweep_slab_lines` takes them.  A long step
        advances every slab by ``long`` of its own h-lines (see
        :meth:`_best_steps`).  Its edges, with the slab starts, cut the
        cells into segments on each of which the long step changes the
        profile by one amount per row, so the short-step loop runs over
        these segments alone, starting from each one's maximum of ``V0``.
        Only two passes per long step touch every cell: that maximum, and
        carrying ``V0`` forward by the long step's net change.  Slabs of at
        most ``long`` h-lines, and slabs too narrow for long steps to pay,
        run the short loop over the cells directly.
        """
        num_cells = int(starts[-1])
        long, short = self._best_steps(len(lines), num_cells)
        if int(lines.max()) <= long or not long:
            return self._sweep_slab_lines(starts, lines, left, right, delta,
                                          row, short, runs=False)[0]
        line_offset = np.cumsum(lines) - lines
        out_value = np.empty(int(lines.sum()))
        V0 = np.zeros(num_cells)
        for first_row, _, e0, e1 in _steps(lines, left, right, delta, row,
                                           long):
            num_edges = e1 - e0
            bnd, inverse = np.unique(
                np.concatenate((left[e0:e1], right[e0:e1], starts)),
                return_inverse=True)
            # The short loop may reorder these views of the step's edges in
            # place, all alike, which the net change below does not mind.
            ends, step_delta = inverse[:2 * num_edges], delta[e0:e1]
            step_lines = np.clip(lines - first_row, 0, long)
            value = self._sweep_slab_lines(
                inverse[2 * num_edges:], step_lines, ends[:num_edges],
                ends[num_edges:], step_delta, row[e0:e1] - first_row, short,
                runs=False, profile=np.maximum.reduceat(V0, bnd[:-1]))[0]
            step_offset = np.cumsum(step_lines) - step_lines
            out_value[np.repeat(line_offset + first_row - step_offset,
                                step_lines) + np.arange(len(value))] = value
            net = np.cumsum(_edge_sums(ends, step_delta, len(bnd))[:-1])
            V0 += np.repeat(net, np.diff(bnd))
        return out_value

    def _sweep_slab_lines(self, starts, lines, left, right, delta, row, step,
                          runs=True, profile=None):
        """The step loop over many slabs whose cells lie end to end.

        ``starts`` and ``lines`` give each slab's first cell (then the cell
        count) and number of h-lines; ``left``/``right``/``delta``/``row``
        the applying edges, slab after slab in h-line order (with many
        slabs, the loop reorders these four arrays in place).  Every step
        advances each slab by ``step`` of its own h-lines, with the slab
        starts as fixed segment boundaries, so no segment crosses a slab.
        The profile starts at ``profile`` (the loop adds to it), or at
        zeros.  Returns, per h-line (slab after slab), the maximum and, with
        ``runs``, its leftmost cell and the last cell of its maximal run,
        which never leaves the slab (``None`` without).
        """
        num_cells = int(starts[-1])
        line_offset = np.cumsum(lines) - lines
        out_value = np.empty(int(lines.sum()))
        out_cell = out_run = None
        if runs:
            out_cell = np.empty(len(out_value), dtype=np.intp)
            out_run = np.empty(len(out_value), dtype=np.intp)
        V0 = np.zeros(num_cells) if profile is None else profile
        for first_row, num_rows, e0, e1 in _steps(lines, left, right, delta,
                                                  row, step):
            bnd, M0, W, net = self._chunk_offsets(
                V0, num_rows, left[e0:e1], right[e0:e1], delta[e0:e1],
                row[e0:e1] - first_row, starts)
            # Each slab's first segment, then the segment count.
            segs = np.searchsorted(bnd, starts)

            # Per (row, slab) pair the slabs really have: the maximum and,
            # for the runs, its leftmost attaining segment.
            if len(lines) == 1:
                rows = np.arange(num_rows)
                slabs = np.zeros(num_rows, dtype=np.intp)
                if runs:
                    s_star = W.argmax(axis=1)
                    m = W[rows, s_star]
                else:
                    m = W.max(axis=1)
            else:
                slab_max = np.maximum.reduceat(W, segs[:-1], axis=1)
                rows, slabs = np.nonzero(
                    first_row + np.arange(num_rows)[:, None] < lines)
                m = slab_max[rows, slabs]
                if runs:
                    num_segs = len(bnd) - 1
                    top = W == np.repeat(slab_max, np.diff(segs), axis=1)
                    s_star = np.minimum.reduceat(
                        np.where(top, np.arange(num_segs), num_segs),
                        segs[:-1], axis=1)[rows, slabs]
            at = line_offset[slabs] + first_row + rows
            out_value[at] = m
            if runs:
                out_cell[at], out_run[at] = self._step_runs(
                    V0, M0, W, bnd, segs, rows, slabs, m, s_star)
            V0 += np.repeat(net, np.diff(bnd))
        return out_value, out_cell, out_run

    def _step_runs(self, V0, M0, W, bnd, segs, rows, slabs, m, s_star):
        """The leftmost argmax cell and the last cell of its maximal run of
        every (row, slab) pair of one step, whose maximum is ``m`` on
        segment ``s_star``."""
        num_cells = len(V0)
        thr = m - _RUN_TOLERANCE * np.maximum(1.0, np.abs(m))

        # Leftmost argmax cell (A0) and end of its run of exactly-equal
        # cells (B0), per segment actually attaining a row maximum.
        need = np.unique(s_star)
        seg_a = bnd[need]
        seg_len = bnd[need + 1] - seg_a
        offsets = np.concatenate(([0], np.cumsum(seg_len)))
        cat = (np.arange(offsets[-1])
               + np.repeat(seg_a - offsets[:-1], seg_len))
        vals = V0[cat]
        seg_pos = np.repeat(np.arange(len(need)), seg_len)
        is_max = vals == M0[need][seg_pos]
        scores = np.where(is_max, cat, num_cells)
        A0 = np.minimum.reduceat(scores, offsets[:-1])
        scores = np.where(is_max | (cat <= A0[seg_pos]), num_cells, cat)
        B0 = np.minimum.reduceat(scores, offsets[:-1])

        pos = np.searchsorted(need, s_star)
        j_star = A0[pos]
        seg_end = bnd[s_star + 1]
        plateau_end = np.minimum(B0[pos], seg_end)
        # Delta of the attaining segment, recovered from W = M0 + Delta.
        thr0 = thr - (m - M0[s_star])

        run = np.empty(len(rows), dtype=np.intp)
        in_seg = plateau_end < seg_end
        probe = np.where(in_seg, plateau_end, 0)
        breaks = in_seg & (V0[probe] < thr0)
        run[breaks] = plateau_end[breaks] - 1

        hard = np.flatnonzero(~breaks)
        if hard.size:
            self._resolve_hard_runs(
                run, hard, V0, M0, W, bnd, segs, rows, slabs, s_star,
                seg_end, plateau_end, in_seg, thr, thr0)
        return j_star, run

    @staticmethod
    def _resolve_hard_runs(run, hard, V0, M0, W, bnd, segs, rows, slabs,
                           s_star, seg_end, plateau_end, in_seg, thr, thr0):
        """Finish the maximal runs that the vectorised fast path could not.

        Entry ``p`` of the per-pair arrays belongs to row ``rows[p]`` of the
        step in slab ``slabs[p]``, whose segments are ``segs[slab]`` up to
        ``segs[slab + 1]``.  Two cases land here: runs whose plateau reaches
        the end of the attaining segment (they may go on into later
        segments of the slab), and the rare floating-point case where the
        next cell differs from the maximum by less than the run tolerance.
        Both cell scans are ragged first-hit searches
        (:func:`_first_below`), so all hard runs of a step finish in a
        fixed number of numpy calls.
        """
        # Tolerance case: scan the rest of the attaining segment with the
        # exact rule of the reference tree; a run that finds no break there
        # goes on like the others.
        tolerance = hard[in_seg[hard]]
        if tolerance.size:
            end = seg_end[tolerance]
            first = _first_below(V0, plateau_end[tolerance], end,
                                 thr0[tolerance])
            found = first < end
            run[tolerance[found]] = first[found] - 1
            hard = np.setdiff1d(hard, tolerance[found], assume_unique=True)
        if not hard.size:
            return
        # The break lies in the first segment right of the attaining one
        # whose minimum drops below the threshold; without one the run
        # reaches the slab's last cell.
        seg = _break_segments(W, M0, np.minimum.reduceat(V0, bnd[:-1]), segs,
                              rows[hard], slabs[hard], s_star[hard],
                              thr[hard])
        none = seg == len(bnd) - 1
        run[hard[none]] = bnd[segs[slabs[hard[none]] + 1]] - 1
        hard, seg = hard[~none], seg[~none]
        limit = thr[hard] - (W[rows[hard], seg] - M0[seg])
        run[hard] = _first_below(V0, bnd[seg], bnd[seg + 1], limit) - 1


def _distinct(values, new_run=None):
    """``(first, distinct, run)`` of sorted ``values``: which of them start
    a run of equal values (or where ``new_run`` flags, for ``values[1:]``),
    each run's first value, and each value's run."""
    first = np.empty(len(values), dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    if new_run is not None:
        first[1:] |= new_run
    return first, values[first], np.cumsum(first) - 1


def _stable(values, order):
    """``order``, which sorts ``values`` with NaNs last, or a stable sort
    where it leaves equal values out of index order (an unstable sort may,
    and so may distinct y's that round to one end)."""
    run = values[order]
    if ((run[1:] == run[:-1]) & (order[1:] < order[:-1])).any():
        return np.argsort(values, kind="stable")
    return order


def _merge(first, second, first_of=None, second_of=None):
    """``(at_first, at_second)``: the places of sorted ``first`` and
    ``second`` in their merge.  With ids (ascending where values are equal),
    ``first[i]`` goes before an equal ``second[j]`` if ``first_of[i] <=
    second_of[j]``; without, ties go in any order."""
    before = np.searchsorted(first, second)
    tied = first.take(before, mode="clip") == second
    if first_of is not None and tied.any():  # by (run of equal values, id)
        run = _distinct(first)[2] * (1 + max(first_of.max(), second_of.max()))
        before[tied] = np.searchsorted(run + first_of, run[before[tied]]
                                       + second_of[tied], side="right")
    at_second = before + np.arange(len(second))
    is_first = np.ones(len(first) + len(second), dtype=bool)
    is_first[at_second] = False
    return np.flatnonzero(is_first), at_second


def _compress(values, owner, num_slabs):
    """Compress each slab's cell boundaries on their own.

    ``values`` holds every slab's borders and clipped edge ends, ``owner``
    the slab of each (``None`` for one slab).  Sorts them by (slab, x) and
    keeps one of each run of equal x within a slab.  Returns ``(xs, cells,
    inverse)``: the distinct boundaries, slab after slab; the number of
    cells of each slab; and each value's index in ``xs``.
    """
    order = np.argsort(values)
    if owner is not None:
        order = order[_stable_order(owner[order], num_slabs)]
        owner = owner[order]
    first, xs, run = _distinct(values[order], None if owner is None
                               else owner[1:] != owner[:-1])
    cells = ([len(xs) - 1] if owner is None
             else np.bincount(owner[first], minlength=num_slabs) - 1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = run
    # Equal boundaries differ in bits only as 0.0 and -0.0: a slab keeps
    # the zero that comes first in ``values``.
    zeros = np.flatnonzero(values == 0.0)
    zero_x, first_zero = np.unique(inverse[zeros], return_index=True)
    xs[zero_x] = values[zeros[first_zero]]
    return xs, cells, inverse


def _break_segments(W, M0, Mn0, segs, rows, slabs, s_star, thr):
    """Per run: the first segment of its slab right of ``s_star`` whose
    minimum on row ``rows`` (``Mn0`` plus the row's offset ``W - M0``)
    drops below ``thr``, or ``W.shape[1]`` where none does.

    One slab tests the runs' rows densely, from the leftmost attaining
    segment on.  Many slabs test the rows that hold runs densely, each
    segment against its own slab's run on that row, and take each slab's
    first hit with one ``np.minimum.reduceat``.
    """
    num_segs = W.shape[1]
    if len(segs) == 2:
        first = int(s_star.min()) + 1
        below = W[rows, first:] - M0[first:]
        below += Mn0[first:]
        below = below < thr[:, None]
        below &= np.arange(first, num_segs) > s_star[:, None]
        if not below.size:
            return np.full(len(rows), num_segs)
        seg = below.argmax(axis=1)
        return np.where(below[np.arange(len(rows)), seg], seg + first,
                        num_segs)
    held, at = np.unique(rows, return_inverse=True)
    shape = (len(held), len(segs) - 1)
    run_thr = np.full(shape, -math.inf)
    run_thr[at, slabs] = thr
    run_seg = np.zeros(shape, dtype=s_star.dtype)
    run_seg[at, slabs] = s_star
    counts = np.diff(segs)
    below = W[held] - M0
    below += Mn0
    below = below < np.repeat(run_thr, counts, axis=1)
    seg_ids = np.arange(num_segs)
    below &= seg_ids > np.repeat(run_seg, counts, axis=1)
    first = np.minimum.reduceat(np.where(below, seg_ids, num_segs),
                                segs[:-1], axis=1)
    return first[at, slabs]


def _first_below(values, starts, ends, limits):
    """The first ``c`` in ``[starts[k], ends[k])`` with ``values[c] <
    limits[k]``, or ``ends[k]`` where there is none, for every ``k``.

    One pass over the concatenated ranges, which must not be empty; the
    ranges are halved until each pass gathers at most ``_SCAN_CELLS`` cells
    (or one range), so its index arrays stay bounded.
    """
    if not len(starts):
        return ends
    lengths = ends - starts
    if int(lengths.sum()) > _SCAN_CELLS and len(starts) > 1:
        half = len(starts) // 2
        return np.concatenate((
            _first_below(values, starts[:half], ends[:half], limits[:half]),
            _first_below(values, starts[half:], ends[half:], limits[half:])))
    offsets = np.cumsum(lengths) - lengths
    cells = np.arange(offsets[-1] + lengths[-1]) + np.repeat(starts - offsets,
                                                              lengths)
    below = values[cells] < np.repeat(limits, lengths)
    return np.minimum.reduceat(
        np.where(below, cells, np.repeat(ends, lengths)), offsets)


def _cut_into_slabs(width, num_slabs, left, right, delta, event_h):
    """Clip the applying edges into x-slabs of ``width`` cells.

    Returns ``(pieces, lines, line_h)``:

    * ``pieces`` -- ``(left, right, delta, row)`` of every clipped piece,
      x-slab after x-slab in h-line order, ``row`` being the piece's h-line
      among its x-slab's own h-lines;
    * ``lines[s]`` -- the number of h-lines x-slab ``s`` has;
    * ``line_h`` -- the global h-line of every x-slab h-line, in the same
      order.

    Piece-level integers are 32-bit (cells, h-lines and pieces all number
    far below 2**31 in any profile that fits in memory), which halves the
    expansion's footprint.
    """
    first = left // width
    count = (right - 1) // width - first + 1
    slab = np.repeat((first - np.cumsum(count) + count).astype(np.int32),
                     count)
    slab += np.arange(len(slab), dtype=np.int32)
    # Slab-major, and stable: each x-slab's pieces stay in h-line order.
    order = _stable_order(slab, num_slabs)
    event = np.repeat(np.arange(len(left), dtype=np.int32), count)[order]
    slab = slab[order]
    piece_h = event_h.astype(np.int32)[event]
    new_line = np.empty(len(event), dtype=bool)
    new_line[0] = True
    new_line[1:] = (slab[1:] != slab[:-1]) | (piece_h[1:] != piece_h[:-1])
    line_h = piece_h[new_line]
    lines = np.bincount(slab[new_line], minlength=num_slabs)
    row = np.cumsum(new_line, dtype=np.int32)
    row -= (np.cumsum(lines) - lines + 1).astype(np.int32)[slab]
    slab *= width
    pieces = (np.maximum(left.astype(np.int32)[event], slab),
              np.minimum(right.astype(np.int32)[event], slab + width),
              delta[event], row)
    return pieces, lines, line_h


def _steps(lines, left, right, delta, row, step):
    """``(first row, rows, first edge, end edge)`` of every step that
    advances each slab by ``step`` of its own h-lines.

    With many slabs the four edge arrays are reordered step-major, in place
    (a copy would double the pieces of a big slab plan), and stably, so
    slab after slab within a step; one slab's edges are in that order
    already.
    """
    longest = int(lines.max())
    num_steps = -(-longest // step)
    if len(lines) > 1:
        step_of = row // step
        order = _stable_order(step_of, num_steps)
        for edge in (left, right, delta, row):
            edge[:] = edge[order]
        bounds = np.searchsorted(step_of[order], np.arange(num_steps + 1))
    else:
        bounds = np.searchsorted(row, step * np.arange(num_steps + 1))
    bounds = bounds.tolist()
    for index, first_row in enumerate(range(0, longest, step)):
        yield (first_row, min(step, longest - first_row), bounds[index],
               bounds[index + 1])


def _edge_sums(ends, delta, length):
    """Per position below ``length``, the ``delta`` of the edges whose left
    end (in ``ends[:len(delta)]``) lies there minus that of the edges whose
    right end (in ``ends[len(delta):]``) does, summed in that order, as
    ``np.add.at`` sums."""
    # Without keys ``np.bincount`` returns integers.
    return np.bincount(ends, np.concatenate((delta, -delta)),
                       length).astype(np.float64, copy=False)


def _stable_order(keys, bound):
    """Stable argsort of non-negative integer ``keys`` below ``bound``.

    Keys that fit 16 bits take numpy's radix sort, several times faster
    than the comparison sort it uses for wider integers.
    """
    if bound <= np.iinfo(np.int16).max:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")
