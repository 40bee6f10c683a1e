"""Uniform-grid pre-aggregation index for resident MaxRS serving.

The classic answer to a read-heavy analytical workload is to pre-aggregate
("On the Scalability of Multidimensional Databases"): pay once at ingestion,
then answer every query from the aggregate.  For MaxRS the useful aggregate
is a uniform grid over the dataset's bounding box storing, per cell, the
total weight and point count, plus the cell id of every point.  From it the
index derives, for **any** query rectangle size, a per-cell **upper bound**:

    ``ub[c]`` = total weight of the cells within ``halo`` cells of ``c``,

where the halo is wide enough that every point coverable by a query rectangle
centred anywhere in cell ``c`` lies inside the window.  ``ub[c]`` therefore
bounds the weight achievable by any placement whose centre falls in ``c``.
All window sums are computed for all cells at once from a 2-D prefix-sum
table, i.e. in ``O(#cells)`` regardless of the query size.

Two serving primitives build on the bound:

* **Approximate answers**: solve the exact sweep only on the points of the
  best-bound window -- a fast lower bound with a concrete placement.
* **Safe pruning for exact answers**: keep every cell whose upper bound
  reaches the best lower bound found so far, dilate the kept cells by the
  halo, and run the exact sweep on the points inside.  Any optimal centre
  lies in some cell ``c`` with ``ub[c] >= W* >= lower bound``, so ``c``
  survives and all points an optimal placement covers are in the subset.
  Hence the subset sweep attains exactly the full optimum -- the engine
  (:mod:`repro.service.engine`) additionally restores the one region bound
  pruning can coarsen (the closing h-line).

The same window bound is valid for circles of diameter ``d`` (a circle fits
inside its bounding square), so the engine reuses it for MaxCRS pruning.

**The grid pyramid.**  On uniform data the flat bound barely prunes: at a
fixed cell granularity every window sum is close to the mean, so exact
queries degenerate toward a full sweep.  The fix is hierarchical roll-up: on
top of the base grid the index keeps a **pyramid** of levels, each 2x
coarser than the one below, whose per-cell aggregates are rolled up
bottom-to-top at registration (one vectorised reshape-sum per level, a
geometric series totalling ``O(#cells)``).  Every level supports the *same*
window-bound machinery at its own granularity -- a placement centred in a
level cell is centred in one of its base cells, so a level bound is a true
upper bound for every contained base cell and killing a level cell safely
kills all its descendants.  Queries with a certified ``error_bound`` descend
the pyramid coarse-to-fine (see the engine), stopping as soon as the gap
between the best achievable answer and the surviving upper bound is small
enough; exact queries keep using the base level verbatim, which is what
makes the pyramid bit-identical to the flat grid whenever ``error_bound``
is unset.

The engine serves every dataset from one :class:`GridIndex`, built and
queried on the calling thread.  Binning, window sums and point gathers take
a few percent of an exact query; the plane sweep takes the rest, so
spreading the index over threads moved no measured number (see *Why the
grid index runs on one thread* in ``docs/service.md``).
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry import is_positive_finite

__all__ = ["GridGeometry", "GridIndex", "GridLevel", "build_pyramid",
           "plan_geometry", "rollup_aggregates"]

#: Relative slack applied when comparing upper bounds against a lower bound,
#: guarding against prefix-sum rounding pruning a borderline-optimal cell.
#: Extra surviving cells cost time, never correctness.
_PRUNE_SLACK = 1e-6

#: Stop rolling up once both axes of a level fit in this many cells: an even
#: coarser summary could not separate anything a 4x4 table cannot.
_MIN_LEVEL_SIDE = 4


def _axis_halo(half_extent: float, cell_size: float, limit: int) -> int:
    """Halo width along one axis, capped at the grid's own extent."""
    ratio = half_extent / cell_size
    if not math.isfinite(ratio) or ratio >= limit:
        return limit
    return min(limit, int(ratio) + 2)


def _prefix_window_sums(prefix: np.ndarray, n_rows: int, n_cols: int,
                        halo_rows: int, halo_cols: int) -> np.ndarray:
    """Halo window sums for every cell from a zero-padded prefix table.

    Four lookups per cell, clamped at the grid edges -- the one formula every
    granularity (the base grid and every pyramid level) uses.
    """
    rows = np.arange(n_rows)
    cols = np.arange(n_cols)
    lo_r = np.maximum(rows - halo_rows, 0)
    hi_r = np.minimum(rows + halo_rows, n_rows - 1) + 1
    lo_c = np.maximum(cols - halo_cols, 0)
    hi_c = np.minimum(cols + halo_cols, n_cols - 1) + 1
    return (prefix[np.ix_(hi_r, hi_c)] - prefix[np.ix_(lo_r, hi_c)]
            - prefix[np.ix_(hi_r, lo_c)] + prefix[np.ix_(lo_r, lo_c)])


def rollup_aggregates(values: np.ndarray) -> np.ndarray:
    """One 2x-coarser roll-up of a per-cell aggregate table.

    Odd extents are zero-padded to even before the fold, so a coarse cell
    always covers exactly a 2x2 block of finer cells (padding cells are empty
    and cannot change any sum).  A single vectorised reshape-sum: the tables
    are at most ``max_cells_per_side^2`` so -- unlike the event streams the
    sweep backends chunk (:mod:`repro.core.backends`) -- one pass is already
    cache-resident and the whole pyramid build is a geometric series of
    these, ``O(#cells)`` total.
    """
    rows, cols = values.shape
    r2, c2 = (rows + 1) // 2, (cols + 1) // 2
    if (rows, cols) != (r2 * 2, c2 * 2):
        padded = np.zeros((r2 * 2, c2 * 2), dtype=values.dtype)
        padded[:rows, :cols] = values
        values = padded
    return values.reshape(r2, 2, c2, 2).sum(axis=(1, 3))


class GridLevel:
    """One coarse pyramid level: ``scale`` base cells fold into one per axis.

    Carries the rolled-up aggregates plus the level's own zero-padded
    prefix-sum table, so the ``O(#cells)`` window-bound machinery runs
    unchanged at every granularity.  Treat the arrays as read-only after
    construction.
    """

    __slots__ = ("scale", "n_rows", "n_cols", "cell_weights", "cell_counts",
                 "_prefix")

    def __init__(self, scale: int, cell_weights: np.ndarray,
                 cell_counts: np.ndarray) -> None:
        self.scale = int(scale)
        self.cell_weights = cell_weights
        self.cell_counts = cell_counts
        self.n_rows, self.n_cols = cell_weights.shape
        self._prefix = np.zeros((self.n_rows + 1, self.n_cols + 1),
                                dtype=np.float64)
        np.cumsum(np.cumsum(cell_weights, axis=0), axis=1,
                  out=self._prefix[1:, 1:])

    def window_sums(self, halo_rows: int, halo_cols: int) -> np.ndarray:
        """Halo window sums over this level's cells (clamped at the edges)."""
        return _prefix_window_sums(self._prefix, self.n_rows, self.n_cols,
                                   halo_rows, halo_cols)


def pyramid_shapes(n_rows: int, n_cols: int,
                   pyramid_levels: Optional[int] = None,
                   ) -> List[Tuple[int, int, int]]:
    """The ``(scale, rows, cols)`` of every coarse level above a base grid.

    Pure geometry: the roll-up walks it level by level.  ``pyramid_levels``
    counts the base: ``1`` (or an axis already at most ``_MIN_LEVEL_SIDE``
    cells) means a flat, level-free grid.
    """
    if pyramid_levels is not None and pyramid_levels < 1:
        raise ConfigurationError(
            f"pyramid_levels must be at least 1 (the base grid), "
            f"got {pyramid_levels}")
    shapes: List[Tuple[int, int, int]] = []
    rows, cols, scale = n_rows, n_cols, 1
    while max(rows, cols) > _MIN_LEVEL_SIDE:
        if pyramid_levels is not None and len(shapes) + 1 >= pyramid_levels:
            break
        rows, cols = (rows + 1) // 2, (cols + 1) // 2
        scale *= 2
        shapes.append((scale, rows, cols))
    return shapes


def build_pyramid(cell_weights: np.ndarray, cell_counts: np.ndarray, *,
                  pyramid_levels: Optional[int] = None,
                  ) -> Tuple[GridLevel, ...]:
    """Roll base aggregates up into the coarse levels (finest first).

    ``levels[0]`` is 2x coarser than the base, each next entry 2x coarser
    again, stopping at ``_MIN_LEVEL_SIDE`` or after ``pyramid_levels`` total
    levels (base included).
    """
    levels: List[GridLevel] = []
    weights, counts = cell_weights, cell_counts
    for scale, _, _ in pyramid_shapes(*cell_weights.shape,
                                      pyramid_levels=pyramid_levels):
        weights = rollup_aggregates(weights)
        counts = rollup_aggregates(counts)
        levels.append(GridLevel(scale, weights, counts))
    return tuple(levels)


class GridGeometry(NamedTuple):
    """The fixed frame of a grid index: resolution, origin and cell sizes."""

    n_rows: int
    n_cols: int
    x0: float
    y0: float
    cell_w: float
    cell_h: float


def plan_geometry(xs: np.ndarray, ys: np.ndarray, *,
                  target_points_per_cell: int = 1,
                  max_cells_per_side: int = 512) -> GridGeometry:
    """Choose the grid frame for a non-empty point set.

    This is *the* sizing rule of the serving stack: about
    ``target_points_per_cell`` points per cell over the bounding box,
    capped at ``max_cells_per_side`` per axis.  A degenerate axis (all
    points aligned, or an extent so small the per-cell width underflows)
    collapses to a single cell of nominal unit width so index arithmetic
    stays well defined.
    """
    count = len(xs)
    if count == 0:
        raise ConfigurationError("GridIndex requires a non-empty dataset")
    if target_points_per_cell < 1 or max_cells_per_side < 1:
        raise ConfigurationError(
            "target_points_per_cell and max_cells_per_side must be positive"
        )
    side = int(round(math.sqrt(count / target_points_per_cell)))
    side = max(1, min(max_cells_per_side, side))

    x0 = float(xs.min())
    y0 = float(ys.min())
    x_extent = float(xs.max()) - x0
    y_extent = float(ys.max()) - y0
    n_cols = side if x_extent > 0.0 else 1
    n_rows = side if y_extent > 0.0 else 1
    cell_w = x_extent / n_cols if x_extent > 0.0 else 1.0
    cell_h = y_extent / n_rows if y_extent > 0.0 else 1.0
    if cell_w <= 0.0:
        n_cols, cell_w = 1, 1.0
    if cell_h <= 0.0:
        n_rows, cell_h = 1, 1.0
    return GridGeometry(n_rows, n_cols, x0, y0, cell_w, cell_h)


class GridIndex:
    """Uniform-grid pre-aggregation over one immutable point set.

    Parameters
    ----------
    xs, ys, ws:
        Coordinate and weight columns of a **non-empty** dataset (empty
        datasets short-circuit before indexing; see the engine).
    target_points_per_cell:
        Controls the resolution: the grid aims for roughly this many points
        per cell, capped at ``max_cells_per_side`` per axis.  The default of
        1 (a ``sqrt(n) x sqrt(n)`` grid) is deliberately fine: window sums
        cost ``O(#cells)`` regardless of the query size, and the upper bound
        only bites when cells are small relative to the query rectangle.
    max_cells_per_side:
        Upper limit on the number of rows/columns, bounding index memory and
        per-query aggregate work to ``O(max_cells_per_side^2)`` regardless of
        dataset size.
    pyramid_levels:
        Total pyramid depth including the base grid.  ``None`` (default)
        rolls up until the coarsest level fits in a few cells; ``1`` keeps
        the grid flat (no coarse levels -- the pre-pyramid behaviour).
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray, *,
                 target_points_per_cell: int = 1,
                 max_cells_per_side: int = 512,
                 pyramid_levels: Optional[int] = None) -> None:
        self.count = len(xs)
        (self.n_rows, self.n_cols, self.x0, self.y0,
         self.cell_w, self.cell_h) = plan_geometry(
            xs, ys, target_points_per_cell=target_points_per_cell,
            max_cells_per_side=max_cells_per_side)
        self._assign_points(xs, ys)
        num_cells = self.n_rows * self.n_cols
        #: Per-cell aggregates: total weight and point count.
        self.cell_weights = np.bincount(
            self.point_cell, weights=ws, minlength=num_cells
        ).reshape(self.n_rows, self.n_cols)
        self.cell_counts = np.bincount(
            self.point_cell, minlength=num_cells
        ).reshape(self.n_rows, self.n_cols)
        self._build_prefix()
        #: Coarse pyramid levels, finest first (``levels[0]`` is 2x coarser
        #: than the base); empty for a flat grid.
        self.levels = build_pyramid(self.cell_weights, self.cell_counts,
                                    pyramid_levels=pyramid_levels)

    def _assign_points(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Bin every point into the (already fixed) grid geometry."""
        cols = np.clip((xs - self.x0) / self.cell_w, 0, self.n_cols - 1).astype(np.int64)
        rows = np.clip((ys - self.y0) / self.cell_h, 0, self.n_rows - 1).astype(np.int64)
        #: Flat cell id of every point, row-major.
        self.point_cell = rows * self.n_cols + cols

    def _build_prefix(self) -> None:
        """Zero-padded 2-D prefix sums of the cell weights: window sums for
        any halo become four lookups per cell."""
        self._prefix = np.zeros((self.n_rows + 1, self.n_cols + 1), dtype=np.float64)
        np.cumsum(np.cumsum(self.cell_weights, axis=0), axis=1,
                  out=self._prefix[1:, 1:])

    # ------------------------------------------------------------------ #
    # The pyramid
    # ------------------------------------------------------------------ #
    def pyramid_depth(self) -> int:
        """Total pyramid depth, base grid included (1 = flat)."""
        return 1 + len(self.levels)

    def level_halo(self, level: GridLevel, width: float,
                   height: float) -> Tuple[int, int]:
        """The query halo in *level* cells: the base margin rule, at scale."""
        if not is_positive_finite(width, height):
            raise ConfigurationError(
                "query extent must be positive and finite, "
                f"got {width} x {height}"
            )
        return (_axis_halo(height / 2.0, level.scale * self.cell_h,
                           level.n_rows),
                _axis_halo(width / 2.0, level.scale * self.cell_w,
                           level.n_cols))

    def level_bounds(self, level: GridLevel, width: float,
                     height: float) -> np.ndarray:
        """Per-level-cell upper bound on any placement centred there.

        A placement centred in a level cell is centred in one of the base
        cells it covers, and the level window (same halo rule, level-sized
        cells) contains every point such a placement can reach -- so the
        level bound dominates the base bound of every contained cell, and
        discarding a level cell whose bound cannot reach the incumbent
        safely discards all its descendants.
        """
        halo_rows, halo_cols = self.level_halo(level, width, height)
        return level.window_sums(halo_rows, halo_cols)

    @staticmethod
    def refine_level_mask(mask: np.ndarray, n_rows: int,
                          n_cols: int) -> np.ndarray:
        """Expand a live-cell mask one level finer (2x), clipped to shape."""
        return np.repeat(np.repeat(mask, 2, axis=0),
                         2, axis=1)[:n_rows, :n_cols]

    def level_stats(self) -> List[Dict[str, int]]:
        """Shape/occupancy per coarse level (finest first), for stats()."""
        return [
            {"scale": level.scale, "rows": level.n_rows,
             "cols": level.n_cols, "cells": level.n_rows * level.n_cols,
             "occupied_cells": int((level.cell_counts > 0).sum())}
            for level in self.levels
        ]

    # ------------------------------------------------------------------ #
    # Bounds and pruning
    # ------------------------------------------------------------------ #
    def halo(self, width: float, height: float) -> Tuple[int, int]:
        """Return the halo ``(rows, cols)`` for a ``width x height`` query.

        The halo is how many cells a query rectangle centred in a cell can
        reach beyond that cell in each direction.  Two extra cells of margin
        absorb the worst-case rounding of the float cell-index computation,
        so the window bound stays a true upper bound.  Halos are capped at
        the grid dimensions: a window spanning the whole grid is the loosest
        (but still valid) bound, and the cap keeps queries much larger than
        the data extent -- or denormal cell sizes -- well behaved.
        """
        if not is_positive_finite(width, height):
            raise ConfigurationError(
                "query extent must be positive and finite, "
                f"got {width} x {height}"
            )
        return (_axis_halo(height / 2.0, self.cell_h, self.n_rows),
                _axis_halo(width / 2.0, self.cell_w, self.n_cols))

    def cell_of(self, x: float, y: float) -> Tuple[int, int]:
        """Return the ``(row, col)`` cell a location falls in (clamped)."""
        col = int(np.clip((x - self.x0) / self.cell_w, 0, self.n_cols - 1))
        row = int(np.clip((y - self.y0) / self.cell_h, 0, self.n_rows - 1))
        return row, col

    def upper_bounds(self, width: float, height: float) -> np.ndarray:
        """Per-cell upper bound on the weight of any placement centred there.

        ``result[r, c]`` bounds ``W(p)`` for every location ``p`` in cell
        ``(r, c)`` (cells on the boundary extend to infinity: points only
        exist inside the grid, so the clamped window still covers them).
        """
        halo_rows, halo_cols = self.halo(width, height)
        return self._window_sums(halo_rows, halo_cols)

    def best_cell(self, width: float, height: float,
                  bounds: np.ndarray | None = None) -> Tuple[int, int, float]:
        """Return ``(row, col, upper_bound)`` of the most promising cell.

        Pass a precomputed ``bounds`` array (from :meth:`upper_bounds` for
        the same query size) to avoid recomputing the window sums.
        """
        if bounds is None:
            bounds = self.upper_bounds(width, height)
        flat = int(np.argmax(bounds))
        row, col = divmod(flat, self.n_cols)
        return row, col, float(bounds[row, col])

    def candidate_mask(self, width: float, height: float, lower_bound: float,
                       bounds: np.ndarray | None = None) -> np.ndarray:
        """Boolean mask of cells that may contain an optimal centre.

        A cell is kept when its upper bound reaches ``lower_bound`` (minus a
        tiny float-safety slack).  Every cell containing an optimal centre
        satisfies ``ub >= W* >= lower_bound`` for any achievable lower bound,
        so pruning by this mask never discards an optimal placement.  As with
        :meth:`best_cell`, ``bounds`` may be supplied to reuse the window
        sums of the same query size.
        """
        if bounds is None:
            bounds = self.upper_bounds(width, height)
        slack = _PRUNE_SLACK * max(1.0, abs(lower_bound))
        return bounds >= lower_bound - slack

    def dilate(self, mask: np.ndarray, width: float, height: float) -> np.ndarray:
        """Expand a cell mask by the query halo (box dilation).

        A placement centred in a masked cell can cover points up to one halo
        away, so the point subset fed to the exact sweep must include every
        cell within the halo of a masked cell.
        """
        halo_rows, halo_cols = self.halo(width, height)
        return self._window_sums(halo_rows, halo_cols,
                                 values=mask.astype(np.float64)) > 0.0

    # ------------------------------------------------------------------ #
    # Point retrieval
    # ------------------------------------------------------------------ #
    def points_in_mask(self, mask: np.ndarray) -> np.ndarray:
        """Indices (ascending) of the points lying in the masked cells."""
        return np.flatnonzero(mask.ravel()[self.point_cell])

    def points_in_window(self, row: int, col: int, width: float,
                         height: float) -> np.ndarray:
        """Indices of the points within the query halo of one cell."""
        mask = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        mask[row, col] = True
        return self.points_in_mask(self.dilate(mask, width, height))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Shape and occupancy statistics (for ``MaxRSEngine.stats()``)."""
        occupied = int((self.cell_counts > 0).sum())
        return {
            "rows": self.n_rows,
            "cols": self.n_cols,
            "cell_width": self.cell_w,
            "cell_height": self.cell_h,
            "points": self.count,
            "occupied_cells": occupied,
            "max_points_per_cell": int(self.cell_counts.max()),
            "pyramid_depth": self.pyramid_depth(),
            "levels": self.level_stats(),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _window_sums(self, halo_rows: int, halo_cols: int,
                     values: np.ndarray | None = None) -> np.ndarray:
        """Sum ``values`` (default: cell weights) over the halo window of
        every cell, clamped at the grid edges, via the prefix-sum table."""
        if values is None:
            prefix = self._prefix
        else:
            prefix = np.zeros((self.n_rows + 1, self.n_cols + 1), dtype=np.float64)
            np.cumsum(np.cumsum(values, axis=0), axis=1, out=prefix[1:, 1:])
        return _prefix_window_sums(prefix, self.n_rows, self.n_cols,
                                   halo_rows, halo_cols)


#: The former name of the query surface, kept because ``perfbench/tracing.py``
#: wraps the grid's query methods on it.  ROADMAP.md item 4 deletes it.
GridQueryOps = GridIndex
