"""Numpy-vectorised sweep backend (chunked difference-array plane sweep).

The pure-Python sweep spends its time in per-event segment-tree recursion:
``O(log n)`` Python frames per edge, ~45 us per event at serving scale.  This
backend replaces the dynamic tree with an *offline* formulation that numpy
can chew through in bulk:

1. **Vectorised preparation** -- event sorting (stable argsort on y),
   clipping, and elementary-boundary extraction with coordinate compression
   (one ``np.unique(..., return_inverse=True)``) all happen in whole-array
   operations.  The input may be a list of event tuples or an ``(n, 5)``
   float array -- the resident engine builds the latter straight from its
   point columns (:func:`repro.core.transform.columns_to_event_array`).
2. **Chunked profile maintenance** -- h-lines are processed in chunks.  The
   location-weight profile at a chunk's start (``V0``, one value per
   elementary cell) is carried as a flat array.  Within a chunk the only
   profile changes are the chunk's own ``E`` edges, so the x-axis collapses
   to at most ``2E + 1`` *chunk segments* on which every change is constant:
   per-segment maxima of ``V0`` come from ``np.maximum.reduceat``, and the
   evolution of the per-segment offsets over the chunk's h-lines is two
   cumulative sums over a small ``(h-lines x segments)`` difference matrix.
   Each h-line's global maximum is then a row maximum of a matrix that is a
   few hundred elements wide, instead of a tree query over 10^5 cells.
3. **Leftmost argmax and maximal runs** -- resolved per chunk with segmented
   index tricks (``np.minimum.reduceat`` over masked cell indices).  The
   runs that cross chunk-segment boundaries (every h-line of a typical
   ExactMaxRS leaf) find their break segment with one dense test of the
   chunk's segment minima; they, and the runs that sit within the
   floating-point run tolerance, are finished by ragged first-hit searches
   over the cell ranges they still have to scan: a fixed number of numpy
   calls per chunk, no per-h-line loop.

Full slab-file mode (``include_records=True``, and :meth:`NumpySweepBackend.
sweep_slabs`) sweeps **many slabs in one loop** -- ExactMaxRS's sibling
leaves, or a single slab as a batch of one (MaxkRS):

* one stable sort by (slab, y) orders every event (ExactMaxRS's leaf files
  already are), each event is clipped to its own slab, and each slab's
  boundaries are compressed on their own -- the cells :meth:`~NumpySweep
  Backend.sweep` would give it alone -- and laid end to end on one cell
  axis;
* every step of the loop advances each slab by the same number of its own
  h-lines, with the slab starts as fixed chunk-segment boundaries, so no
  segment crosses a slab: per (row, slab) pair the maximum comes from one
  ``np.maximum.reduceat`` at the slab starts, and a run stops at its slab's
  last cell even where the next slab's first cell ties;
* the rows per step follow from the batch's shape: a step's fixed cost (a
  few hundred numpy calls) is shared by the slabs, its cell passes grow
  with the cells and its matrices with ``rows**2`` per slab, so about
  ``sqrt(cells per slab + 8192 / slabs)`` rows balance them (16 for 107
  ExactMaxRS leaves of ~197 cells, ~110 for one 4,001-cell slab), capped
  by ``chunk_hlines``;
* each slab's slab-file comes back as an ``(h, 4)`` float64 array, which
  :meth:`~repro.em.record_file.RecordFile.write_all` writes as is.

When the caller only needs the best strip (``include_records=False`` -- the
resident engine's probe and refine stages), steps emitting per-h-line tuples
are skipped entirely, and the chunk loop runs over a **slab plan** -- the
in-memory form of ExactMaxRS's x-slabs (Choi et al., Algorithm 2):

* the elementary cells are cut into x-slabs about one dual rectangle wide
  (the mean event span in cells, at least ``_MIN_SLAB_CELLS``), and every
  applying event is clipped into the slabs it touches -- about two pieces
  per event on uniform data;
* each slab numbers its *own* h-lines (the distinct y's of its pieces), and
  every step of the chunk loop advances all slabs together by a few of their
  own h-lines (``~0.4 * sqrt(slab width)``), with the slab starts as fixed
  chunk-segment boundaries.  A step costs what a chunk costs (one pass over
  the flat ``V0``), but there are only ``(h-lines per slab) / (rows per
  step)`` steps instead of ``H / chunk_hlines``;
* the answer's weight is the largest slab maximum (or the untouched ``0`` of
  a slab that has not started yet), and its h-line is the earliest one at
  which any slab reaches it.  The winning h-line's global profile is then
  rebuilt once to recover the leftmost argmax and maximal run, so no merge
  across slab borders is needed.

When one slab would span more than a quarter of the cells (wide windows,
most clustered data) the plan is a single slab whose rows are the global
h-lines and whose pieces are the events themselves: the loop is exactly the
plain chunk loop and builds no expansion arrays.

The emitted tuples follow the reference backend's conventions exactly (same
cell boundaries, leftmost argmax, same ``1e-12`` relative run tolerance), so
results are bit-identical to :class:`~repro.core.backends.pure.
PurePythonBackend` whenever the location-weight sums are exactly
representable -- see the determinism contract in
:mod:`repro.core.backends`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.core.beststrip import BestStrip
from repro.em.codecs import EVENT_BOTTOM
from repro.errors import AlgorithmError, ConfigurationError
from repro.geometry import Interval

try:  # guarded: the package must import (and report) cleanly without numpy
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None

__all__ = ["NumpySweepBackend"]

#: Default number of h-lines per chunk.  Large enough to amortise per-chunk
#: numpy dispatch and the O(cells) segment rebuild, small enough that the
#: per-chunk difference matrix stays cache-resident.
DEFAULT_CHUNK_HLINES = 128

#: Relative tolerance of the maximal-run extension -- must match
#: :meth:`repro.core.segment_tree.MaxAddSegmentTree.max_run_from` exactly.
_RUN_TOLERANCE = 1e-12

#: Narrowest x-slab of the best-only slab plan, in elementary cells: below
#: this the per-step fixed costs outweigh the shorter steps.
_MIN_SLAB_CELLS = 64

#: Cells one batch of the maximal-run scans gathers at most (plus one
#: range), which bounds their index arrays to a few MB.
_SCAN_CELLS = 1 << 18

#: The fixed cost of a records-mode step (its few hundred numpy calls),
#: counted in cells of array work; it sets the rows per step of batches of
#: few slabs (see ``_records_step``).  Measured best: 16 rows for 107 slabs
#: of ~197 cells, 96-128 for one slab of 4,001 cells.
_STEP_FIXED_CELLS = 8192


class NumpySweepBackend:
    """Vectorised sweep backend; requires numpy.

    Parameters
    ----------
    chunk_hlines:
        H-lines processed per vectorised chunk, and the most h-lines of its
        own a slab advances per step of a slab plan or of the records loop
        (performance knob only; the output is independent of it).
    """

    name = "numpy"

    def __init__(self, chunk_hlines: int = DEFAULT_CHUNK_HLINES) -> None:
        if np is None:
            raise ConfigurationError(
                "NumpySweepBackend requires numpy, which is not importable"
            )
        if chunk_hlines < 1:
            raise ConfigurationError(
                f"chunk_hlines must be at least 1, got {chunk_hlines}"
            )
        self.chunk_hlines = chunk_hlines

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def sweep(self, event_records: Sequence[Tuple[float, ...]],
              slab_range: Optional[Interval] = None, *,
              include_records: bool = True):
        if include_records:
            rows, best = self.sweep_slabs([(event_records, slab_range)])[0]
            return list(zip(*rows.T.tolist())), best
        if slab_range is None:
            slab_range = Interval.full()
        slab_lo, slab_hi = slab_range.lo, slab_range.hi
        if len(event_records) == 0:
            return [], BestStrip.empty(slab_lo, slab_hi)

        with obs.span("backend.sweep.prepare"):
            prepared = self._prepare(event_records, slab_lo, slab_hi)
        if prepared is None:
            return [], BestStrip.empty(slab_lo, slab_hi)
        with obs.span("backend.sweep.kernel"):
            return self._sweep_best_only(*prepared)

    def sweep_slabs(self, slabs: Sequence[Tuple[Sequence[Tuple[float, ...]],
                                                Optional[Interval]]]):
        """Sweep many slabs in one records-mode pass.

        ``slabs`` holds ``(event_rows, slab_range)`` pairs.  Returns, per
        slab and in order, its slab-file as an ``(h, 4)`` float64 array of
        ``(y, x1, x2, sum)`` rows and its best strip: what :meth:`sweep`
        returns for that slab alone.
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
            value, cell, run = self._sweep_slab_lines(starts, lines, *edges)
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
    def _prepare(event_records, slab_lo, slab_hi):
        """Sort, clip and compress the events.

        Returns ``(uy, xs, num_cells, left, right, delta, event_h)`` -- the
        distinct h-lines, the cell boundaries, and per applying edge its
        first cell, exclusive end cell, signed weight and h-line -- or
        ``None`` when the slab has no cell.  Only these outlive the call, so
        the sweep does not keep the sorted copy of the input alive.
        """
        ev = np.asarray(event_records, dtype=np.float64)
        if ev.ndim != 2 or ev.shape[1] != 5:
            raise AlgorithmError(
                f"event records must be (y, kind, x1, x2, weight) tuples, "
                f"got array of shape {ev.shape}"
            )
        order = np.argsort(ev[:, 0], kind="stable")
        ev = ev[order]
        ey = ev[:, 0]

        # Clip to the slab; events that survive clipping contribute cell
        # boundaries, and those with non-zero weight are applied to the
        # profile (mirroring the reference sweep, which skips zero-weight
        # edges *after* boundary extraction).
        lo = np.maximum(ev[:, 2], slab_lo)
        hi = np.minimum(ev[:, 3], slab_hi)
        clipped = lo < hi  # False for NaN edges
        applies = clipped & (ev[:, 4] != 0.0)

        # Cell boundaries and, from the same sort, each clipped edge's
        # boundary index (a NaN slab border is dropped, as the reference
        # sweep does).
        borders = np.array([slab_lo, slab_hi])
        num_clipped = int(np.count_nonzero(clipped))
        xs, inverse = np.unique(
            np.concatenate((lo[clipped], hi[clipped],
                            borders[~np.isnan(borders)])),
            return_inverse=True)
        num_cells = len(xs) - 1
        if num_cells < 1:
            return None

        # Distinct h-lines, ascending, and each applying event's h-line.
        new_hline = np.empty(len(ey), dtype=bool)
        new_hline[0] = True
        np.not_equal(ey[1:], ey[:-1], out=new_hline[1:])
        uy = ey[new_hline]
        h_index = np.cumsum(new_hline) - 1

        applying = applies[clipped]
        left = inverse[:num_clipped][applying]
        right = inverse[num_clipped:2 * num_clipped][applying]  # exclusive
        weights = ev[:, 4][applies]
        delta = np.where(ev[:, 1][applies] == EVENT_BOTTOM, weights, -weights)
        event_h = h_index[applies]

        return uy, xs, num_cells, left, right, delta, event_h

    @staticmethod
    def _prepare_slabs(slabs):
        """Sort, clip and compress the events of many slabs at once.

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

        Every slab gets the cells, h-lines and edges :meth:`_prepare` gives
        it alone.  Of equal boundaries (``0.0`` and ``-0.0``) a slab keeps
        the first in the order borders, clipped ``x1``, clipped ``x2``, so
        the choice does not depend on the other slabs of the batch.
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
        ev = np.concatenate(arrays) if num_slabs > 1 else arrays[0]
        slab = np.repeat(np.arange(num_slabs), [len(a) for a in arrays])
        # One stable sort by (slab, y); ExactMaxRS's leaf files are already
        # in that order.
        ey = ev[:, 0]
        if not ((ey[1:] >= ey[:-1]) | (slab[1:] != slab[:-1])).all():
            order = np.argsort(ey, kind="stable")
            if num_slabs > 1:
                order = order[_stable_order(slab[order], num_slabs)]
            ev = ev[order]
            ey = ev[:, 0]

        # Clip every event to its own slab (as _prepare does).
        slab_lo, slab_hi = np.array(slab_lo), np.array(slab_hi)
        lo = np.maximum(ev[:, 2], slab_lo[slab])
        hi = np.minimum(ev[:, 3], slab_hi[slab])
        clipped = lo < hi  # False for NaN edges
        applies = clipped & (ev[:, 4] != 0.0)

        # Per-slab boundary compression: sort by (slab, x), keep one of
        # each run of equal x within a slab (the first in input order).
        clip_slab = slab[clipped]
        num_clipped = len(clip_slab)
        values = np.concatenate((slab_lo, slab_hi, lo[clipped], hi[clipped]))
        owner = np.concatenate((np.arange(num_slabs), np.arange(num_slabs),
                                clip_slab, clip_slab))
        order = np.argsort(values)
        if num_slabs > 1:
            order = order[_stable_order(owner[order], num_slabs)]
        sorted_x, sorted_owner = values[order], owner[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        np.logical_or(sorted_x[1:] != sorted_x[:-1],
                      sorted_owner[1:] != sorted_owner[:-1], out=first[1:])
        xs = values[np.minimum.reduceat(order, np.flatnonzero(first))]
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        # Slab k's boundary g is cell g - k: each earlier slab has one
        # boundary more than cells.
        cells = np.bincount(sorted_owner[first], minlength=num_slabs) - 1
        starts = np.concatenate(([0], np.cumsum(cells)))

        applying = applies[clipped]
        edge_slab = clip_slab[applying]
        clipped_at = 2 * num_slabs
        left = inverse[clipped_at:clipped_at + num_clipped][applying] - edge_slab
        right = inverse[clipped_at + num_clipped:][applying] - edge_slab
        weights = ev[:, 4][applies]
        delta = np.where(ev[:, 1][applies] == EVENT_BOTTOM, weights, -weights)

        # Distinct h-lines of each slab, and each applying edge's own row.
        new_line = np.empty(len(ey), dtype=bool)
        new_line[0] = True
        np.logical_or(ey[1:] != ey[:-1], slab[1:] != slab[:-1],
                      out=new_line[1:])
        uy = ey[new_line]
        lines = np.bincount(slab[new_line], minlength=num_slabs)
        line = np.cumsum(new_line) - 1
        row = line[applies] - (np.cumsum(lines) - lines)[edge_slab]
        return (np.array(swept), uy, xs, lines, starts, left, right, delta,
                row)

    # ------------------------------------------------------------------ #
    # Shared chunk machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _chunk_offsets(V0, num_rows, cl, cr, cd, rows, edges):
        """Segment structure and per-row offset matrix of one chunk.

        ``cl``/``cr``/``cd`` are the chunk's edges (first cell, exclusive
        end cell, signed weight), ``rows`` the row (h-line) of each within
        the chunk, and ``edges`` the fixed cell boundaries every chunk keeps
        (``[0, num_cells]``, plus the slab starts of a slab plan or of a
        records batch).

        Returns ``(bnd, M0, W, net)`` where ``bnd`` are the chunk-segment
        cell boundaries, ``M0[s]`` the max of ``V0`` on segment ``s``,
        ``W[t, s] = M0[s] + Delta_t[s]`` the per-segment maxima after the
        chunk's first ``t+1`` rows, and ``net[s]`` the chunk's total
        per-segment delta (for carrying ``V0`` forward).
        """
        num_edges = len(cl)
        bnd, inverse = np.unique(np.concatenate((cl, cr, edges)),
                                 return_inverse=True)
        M0 = np.maximum.reduceat(V0, bnd[:-1])
        diff = np.zeros((num_rows, len(bnd)))
        np.add.at(diff, (rows, inverse[:num_edges]), cd)
        np.add.at(diff, (rows, inverse[num_edges:2 * num_edges]), -cd)
        np.cumsum(diff, axis=1, out=diff)      # un-diff over segments
        np.cumsum(diff, axis=0, out=diff)      # accumulate over rows
        W = diff[:, :-1]
        net = W[-1].copy()
        W += M0
        return bnd, M0, W, net

    # ------------------------------------------------------------------ #
    # Best-only mode (the engine's probe and refine stages)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _slab_width(num_cells, left, right) -> int:
        """Cells per x-slab of the best-only slab plan.

        About one dual rectangle wide: the mean applying-event span in
        cells, at least ``_MIN_SLAB_CELLS``.  Returns ``num_cells`` (one
        slab) when a slab would exceed a quarter of the cells.
        """
        if len(left) == 0:
            return num_cells
        span = (int(right.sum()) - int(left.sum())) // len(left)
        width = max(_MIN_SLAB_CELLS, span)
        return width if 4 * width <= num_cells else num_cells

    def _sweep_best_only(self, uy, xs, num_cells, left, right, delta,
                         event_h):
        num_hlines = len(uy)
        width = self._slab_width(num_cells, left, right)
        if width == num_cells:
            # One slab: its rows are the global h-lines and its pieces the
            # events themselves (already in row order).
            step = self.chunk_hlines
            edges = np.array([0, num_cells], dtype=left.dtype)
            pieces = (left, right, delta, event_h)
            lines = np.array([num_hlines])
            line_h = np.arange(num_hlines)
            bounds = np.searchsorted(
                event_h, np.arange(0, num_hlines + step, step))
        else:
            # A step's pass over the cells costs ~width per slab and its
            # matrix ~rows**2 per slab, so rows ~ sqrt(width) balances them
            # (0.4 measured best on 200k uniform points).
            step = min(self.chunk_hlines,
                       max(1, int(0.4 * math.sqrt(width))))
            edges = np.append(np.arange(0, num_cells, width), num_cells)
            pieces, lines, line_h, bounds = _cut_into_slabs(
                width, len(edges) - 1, step, left, right, delta, event_h)
        line_offset = np.cumsum(lines) - lines

        # Each slab's maximum after each of its own h-lines, indexed by
        # ``line_offset[slab] + own row``.
        slab_best = np.empty(int(lines.sum()))
        V0 = np.zeros(num_cells)
        longest = int(lines.max())
        for index, first_row in enumerate(range(0, longest, step)):
            e0, e1 = int(bounds[index]), int(bounds[index + 1])
            num_rows = min(step, longest - first_row)
            pl, pr, pd, prow = (piece[e0:e1] for piece in pieces)
            bnd, _, W, net = self._chunk_offsets(
                V0, num_rows, pl, pr, pd, prow - first_row, edges)
            row_max = np.maximum.reduceat(
                W, np.searchsorted(bnd, edges[:-1]), axis=1)
            own_row = first_row + np.arange(num_rows)[:, None]
            live = own_row < lines
            slab_best[(line_offset + own_row)[live]] = row_max[live]
            V0 += np.repeat(net, np.diff(bnd))

        weight = float(slab_best.max())
        t_best = int(line_h[slab_best == weight].min())
        # A slab with no piece on the first h-line is still all zeros there.
        first_lines = line_h[line_offset[lines > 0]]
        if weight <= 0.0 and ((lines == 0).any() or (first_lines > 0).any()):
            weight, t_best = 0.0, 0
        y1 = float(uy[t_best])
        y2 = float(uy[t_best + 1]) if t_best + 1 < num_hlines else math.inf

        # Reconstruct the winning h-line's profile once to recover the
        # leftmost maximal run (the x-extent of the best strip).
        count = int(np.searchsorted(event_h, t_best, side="right"))
        G = np.zeros(num_cells + 1)
        np.add.at(G, left[:count], delta[:count])
        np.add.at(G, right[:count], -delta[:count])
        V = np.cumsum(G[:num_cells])
        j = int(np.argmax(V))
        threshold = weight - _RUN_TOLERANCE * max(1.0, abs(weight))
        tail_below = V[j + 1:] < threshold
        if tail_below.size and tail_below.any():
            run_end = j + int(np.argmax(tail_below))
        else:
            run_end = num_cells - 1
        best = BestStrip(weight=weight, x1=float(xs[j]),
                         x2=float(xs[run_end + 1]), y1=y1, y2=y2)
        return [], best

    # ------------------------------------------------------------------ #
    # Full slab-file mode (ExactMaxRS leaves, MaxkRS)
    # ------------------------------------------------------------------ #
    def _records_step(self, num_slabs: int, num_cells: int) -> int:
        """Own h-lines every slab advances per step of the records loop.

        A step costs a fixed few hundred numpy calls, shared by all slabs,
        plus passes over the cells (``cells`` per slab) and matrices of
        about ``rows**2`` per slab.  ``sqrt(cells per slab +
        _STEP_FIXED_CELLS / slabs)`` rows balance them; capped by
        ``chunk_hlines``.
        """
        rows = round(math.sqrt((num_cells + _STEP_FIXED_CELLS) / num_slabs))
        return max(1, min(self.chunk_hlines, rows))

    def _sweep_slab_lines(self, starts, lines, left, right, delta, row):
        """The records loop over many slabs whose cells lie end to end.

        ``starts`` and ``lines`` give each slab's first cell (then the cell
        count) and number of h-lines; ``left``/``right``/``delta``/``row``
        the applying edges, slab after slab in h-line order.  Every step
        advances each slab by the same number of its own h-lines, with the
        slab starts as fixed chunk-segment boundaries, so no segment
        crosses a slab.  Returns, per h-line (slab after slab), the
        maximum, its leftmost cell and the last cell of its maximal run,
        which never leaves the slab.
        """
        num_cells = int(starts[-1])
        step = self._records_step(len(lines), num_cells)
        longest = int(lines.max())
        num_steps = -(-longest // step)
        step_of = row // step
        order = _stable_order(step_of, num_steps)
        bounds = np.searchsorted(step_of[order], np.arange(num_steps + 1))
        pieces = (left[order], right[order], delta[order], row[order])

        line_offset = np.cumsum(lines) - lines
        out_value = np.empty(int(lines.sum()))
        out_cell = np.empty(len(out_value), dtype=np.intp)
        out_run = np.empty(len(out_value), dtype=np.intp)
        V0 = np.zeros(num_cells)
        for index, first_row in enumerate(range(0, longest, step)):
            e0, e1 = int(bounds[index]), int(bounds[index + 1])
            num_rows = min(step, longest - first_row)
            pl, pr, pd, prow = (piece[e0:e1] for piece in pieces)
            bnd, M0, W, net = self._chunk_offsets(
                V0, num_rows, pl, pr, pd, prow - first_row, starts)
            num_segs = len(bnd) - 1
            # Each slab's first segment, then the segment count.
            segs = np.searchsorted(bnd, starts)

            # Per (row, slab): the maximum, its leftmost attaining segment
            # and the run threshold, for the pairs the slabs really have.
            if len(lines) == 1:
                rows = np.arange(num_rows)
                slabs = np.zeros(num_rows, dtype=np.intp)
                s_star = W.argmax(axis=1)
                m = W[rows, s_star]
            else:
                slab_max = np.maximum.reduceat(W, segs[:-1], axis=1)
                top = W == np.repeat(slab_max, np.diff(segs), axis=1)
                slab_seg = np.minimum.reduceat(
                    np.where(top, np.arange(num_segs), num_segs), segs[:-1],
                    axis=1)
                rows, slabs = np.nonzero(
                    first_row + np.arange(num_rows)[:, None] < lines)
                m = slab_max[rows, slabs]
                s_star = slab_seg[rows, slabs]
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

            at = line_offset[slabs] + first_row + rows
            out_value[at] = m
            out_cell[at] = j_star
            out_run[at] = run
            V0 += np.repeat(net, np.diff(bnd))
        return out_value, out_cell, out_run

    @staticmethod
    def _resolve_hard_runs(run, hard, V0, M0, W, bnd, segs, rows, slabs,
                           s_star, seg_end, plateau_end, in_seg, thr, thr0):
        """Finish the maximal runs that the vectorised fast path could not.

        Entry ``p`` of the per-pair arrays belongs to row ``rows[p]`` of the
        chunk in slab ``slabs[p]``, whose segments are ``segs[slab]`` up to
        ``segs[slab + 1]``.  Two cases land here: runs whose plateau reaches
        the end of the attaining chunk segment (they may go on into later
        segments of the slab), and the rare floating-point case where the
        next cell differs from the maximum by less than the run tolerance.
        Both cell scans are ragged first-hit searches
        (:func:`_first_below`), so all hard runs of a chunk finish in a
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


def _cut_into_slabs(width, num_slabs, step, left, right, delta, event_h):
    """Clip the applying events into x-slabs of ``width`` cells.

    Returns ``(pieces, lines, line_h, bounds)``:

    * ``pieces`` -- ``(left, right, delta, row)`` of every clipped piece,
      ``row`` being the piece's h-line among its slab's own h-lines; ordered
      by step (``row // step``) and, within a step, by slab;
    * ``lines[s]`` -- the number of h-lines slab ``s`` has;
    * ``line_h`` -- the global h-line of every slab h-line, slab-major (the
      order ``line_offset[slab] + row`` indexes);
    * ``bounds`` -- the piece range of each step.

    Piece-level integers are 32-bit (cells, h-lines and pieces all number
    far below 2**31 in any profile that fits in memory), which halves the
    expansion's footprint.
    """
    first = left // width
    count = (right - 1) // width - first + 1
    slab = np.repeat((first - np.cumsum(count) + count).astype(np.int32),
                     count)
    slab += np.arange(len(slab), dtype=np.int32)
    # Slab-major, and stable: each slab's pieces stay in h-line order.
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
    # Step-major for the chunk loop; stable, so slab-major within a step.
    num_steps = -(-int(lines.max()) // step)
    step_of = row // step
    order = _stable_order(step_of, num_steps)
    bounds = np.searchsorted(step_of[order], np.arange(num_steps + 1))
    event, slab = event[order], slab[order] * width
    pieces = (np.maximum(left.astype(np.int32)[event], slab),
              np.minimum(right.astype(np.int32)[event], slab + width),
              delta[event], row[order])
    return pieces, lines, line_h, bounds


def _stable_order(keys, bound):
    """Stable argsort of non-negative integer ``keys`` below ``bound``.

    Keys that fit 16 bits take numpy's radix sort, several times faster
    than the comparison sort it uses for wider integers.
    """
    if bound <= np.iinfo(np.int16).max:
        keys = keys.astype(np.int16)
    return np.argsort(keys, kind="stable")
