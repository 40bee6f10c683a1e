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
   ExactMaxRS leaf) or sit within the floating-point run tolerance are
   finished by ragged first-hit searches over the concatenated cell ranges
   they still have to scan: a fixed number of numpy calls per chunk, no
   per-h-line loop.

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
from typing import List, Optional, Sequence, Tuple

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


class NumpySweepBackend:
    """Vectorised sweep backend; requires numpy.

    Parameters
    ----------
    chunk_hlines:
        H-lines processed per vectorised chunk, and the most h-lines of its
        own a slab advances per step of a slab plan (performance knob only;
        the output is independent of it).
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
    # Entry point
    # ------------------------------------------------------------------ #
    def sweep(self, event_records: Sequence[Tuple[float, ...]],
              slab_range: Optional[Interval] = None, *,
              include_records: bool = True):
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
            if include_records:
                return self._sweep_records(*prepared)
            return self._sweep_best_only(*prepared)

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

    # ------------------------------------------------------------------ #
    # Shared chunk machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _chunk_offsets(V0, num_rows, cl, cr, cd, rows, edges):
        """Segment structure and per-row offset matrix of one chunk.

        ``cl``/``cr``/``cd`` are the chunk's edges (first cell, exclusive
        end cell, signed weight), ``rows`` the row (h-line) of each within
        the chunk, and ``edges`` the fixed cell boundaries every chunk keeps
        (``[0, num_cells]``, plus the slab starts of a slab plan).

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
    def _sweep_records(self, uy, xs, num_cells, left, right, delta, event_h):
        num_hlines = len(uy)
        out_value = np.empty(num_hlines)
        out_cell = np.empty(num_hlines, dtype=np.int64)
        out_run = np.empty(num_hlines, dtype=np.int64)
        V0 = np.zeros(num_cells)
        step = self.chunk_hlines
        edges = np.array([0, num_cells], dtype=left.dtype)
        bounds = np.searchsorted(event_h,
                                 np.arange(0, num_hlines + step, step))

        for index, t0 in enumerate(range(0, num_hlines, step)):
            t1 = min(t0 + step, num_hlines)
            e0, e1 = int(bounds[index]), int(bounds[index + 1])
            bnd, M0, W, net = self._chunk_offsets(
                V0, t1 - t0, left[e0:e1], right[e0:e1], delta[e0:e1],
                event_h[e0:e1] - t0, edges)
            Mn0 = np.minimum.reduceat(V0, bnd[:-1])
            rows = np.arange(t1 - t0)
            s_star = W.argmax(axis=1)
            m = W[rows, s_star]
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

            run = np.empty(t1 - t0, dtype=np.int64)
            in_seg = plateau_end < seg_end
            probe = np.where(in_seg, plateau_end, 0)
            breaks = in_seg & (V0[probe] < thr0)
            run[breaks] = plateau_end[breaks] - 1

            hard = np.flatnonzero(~breaks)
            if hard.size:
                self._resolve_hard_runs(
                    run, hard, V0, Mn0, M0, W, bnd, s_star, seg_end,
                    plateau_end, in_seg, thr, thr0, num_cells)

            out_value[t0:t1] = m
            out_cell[t0:t1] = j_star
            out_run[t0:t1] = run
            V0 += np.repeat(net, np.diff(bnd))

        x1 = xs[out_cell]
        x2 = xs[out_run + 1]
        records: List[Tuple[float, ...]] = list(zip(
            uy.tolist(), x1.tolist(), x2.tolist(), out_value.tolist()))
        i = int(np.argmax(out_value))
        y2 = float(uy[i + 1]) if i + 1 < num_hlines else math.inf
        best = BestStrip(weight=float(out_value[i]), x1=float(x1[i]),
                         x2=float(x2[i]), y1=float(uy[i]), y2=y2)
        return records, best

    @staticmethod
    def _resolve_hard_runs(run, hard, V0, Mn0, M0, W, bnd, s_star, seg_end,
                           plateau_end, in_seg, thr, thr0, num_cells):
        """Finish the maximal runs that the vectorised fast path could not.

        Two cases land here: runs whose plateau reaches the end of the
        attaining chunk segment (they may continue into later segments), and
        the rare floating-point case where the next cell differs from the
        maximum by less than the run tolerance.  Both scans are ragged
        first-hit searches (:func:`_first_below`), so all hard runs of a
        chunk finish in a fixed number of numpy calls.
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
        # The first segment right of the attaining one whose minimum drops
        # below the threshold holds the break; without one the run reaches
        # the last cell.  Segments left of every attaining one cannot.
        first = int(s_star[hard].min()) + 1
        rows_w = W if len(hard) == len(W) else W[hard]
        seg_min = rows_w[:, first:] - M0[None, first:]
        seg_min += Mn0[None, first:]
        candidates = seg_min < thr[hard, None]
        candidates &= np.arange(first, len(bnd) - 1) > s_star[hard, None]
        if not candidates.size:
            run[hard] = num_cells - 1
            return
        seg = candidates.argmax(axis=1)
        has_break = candidates[np.arange(len(hard)), seg]
        run[hard[~has_break]] = num_cells - 1
        hard, seg = hard[has_break], seg[has_break] + first
        limit = thr[hard] - (W[hard, seg] - M0[seg])
        run[hard] = _first_below(V0, bnd[seg], bnd[seg + 1], limit) - 1


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
