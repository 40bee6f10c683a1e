"""Sharded grid index: per-region shards behind a pluggable parallel executor.

The monolithic :class:`~repro.service.grid_index.GridIndex` runs registration,
window-bound computation and pruned-point gathering on one array on one core.
This module partitions that work spatially -- the standard scaling move for
read-heavy multidimensional aggregates ("On the Scalability of
Multidimensional Databases") -- while keeping refined answers **bit-identical**
to the unsharded index:

* one **global geometry** is planned exactly as the unsharded index would
  (:func:`~repro.service.grid_index.plan_geometry`), and every point is binned
  against it exactly once; shards are rectangular *blocks of global cells*
  (regular tiles over the bounding box), so a shard's per-cell aggregates
  coincide bit-for-bit with the unsharded index's cells;
* each shard owns a :class:`~repro.service.grid_index.GridIndex` partition
  over its points (built via :meth:`GridIndex.from_cells` with the imposed
  frame), whose construction, window-sum blocks and pruned-point gathering
  fan out over a :class:`ShardExecutor` (``serial`` or ``threaded``);
* the cross-shard merge is provably safe: upper bounds are four prefix-table
  lookups per cell on a **global** prefix-sum table (assembled from the shard
  aggregates), so a window straddling a shard boundary is never undercounted;
  best-window selection is a global argmax; and candidate-mask halo dilation
  runs on the global cell table, so the surviving-cell union automatically
  reaches across shard boundaries -- the halo-correctness invariant of the
  unsharded index, made explicit at shard edges.

Executor tiers (see ``docs/parallelism.md``): ``serial`` runs every shard
task on the calling thread, ``threaded`` fans them out over a thread pool.
:func:`resolve_executor` picks ``threaded`` when there is more than one shard
and more than one schedulable core, else ``serial``.  Core counts come from
:func:`effective_cpu_count` -- ``sched_getaffinity``-aware, so a CPU-limited
container does not over-shard.

Bit-identity argument
---------------------
Every global array the sharded index serves from is element-wise identical to
the unsharded computation: per-cell weights are accumulated from the same
addends in the same order (all points of a cell live in one shard, and shard
membership preserves the dataset order), the prefix table is the same cumsum
of the same values, window sums are the same four lookups per cell, and the
pruned point subset is the same ascending index set (per-shard gathers are
disjoint and re-sorted).  Executors only change *where* block computations
run, never their operands, so MaxRS / MaxkRS / MaxCRS answers refined
through a sharded index equal the unsharded ones bit for bit.

The grid **pyramid** (the bounded-error fast path's coarse levels) extends
the argument: levels are rolled up from the *assembled global* aggregates
after the shard merge, so every level array -- and hence every certified gap
-- is bit-identical across shard counts and executors too.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, \
    Union, runtime_checkable

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, PersistError
from repro.persist.format import (
    GridShardSnapshot,
    GridSnapshot,
    ShardedGridSnapshot,
)
from repro.service.grid_index import (
    GridGeometry,
    GridIndex,
    GridQueryOps,
    adopt_pyramid,
    build_pyramid,
    plan_geometry,
    snapshot_levels,
)

__all__ = [
    "DEFAULT_MAX_AUTO_SHARDS",
    "GridShard",
    "SerialExecutor",
    "ShardExecutor",
    "ShardedGridIndex",
    "ThreadedExecutor",
    "default_shard_count",
    "effective_cpu_count",
    "plan_tiles",
    "resolve_executor",
]

#: Auto-sizing cap: more shards than this add fan-out overhead without adding
#: parallelism on typical serving hosts.  ``shards=`` overrides per engine.
DEFAULT_MAX_AUTO_SHARDS = 8

#: Timing callback invoked per shard task: ``hook(stage, shard_id, seconds)``.
TimingHook = Callable[[str, int, float], None]


def effective_cpu_count() -> int:
    """Cores this process may actually run on.

    ``len(os.sched_getaffinity(0))`` where available: in a CPU-limited
    container (cgroup cpuset) ``os.cpu_count()`` reports the host's cores
    and would over-shard; the affinity mask reports the schedulable set.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - platform quirk
            pass
    return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------- #
# Executors
# ---------------------------------------------------------------------- #
@runtime_checkable
class ShardExecutor(Protocol):
    """The contract a shard executor implements: an ordered parallel map.

    ``map`` must return results aligned with ``items`` and propagate the
    first exception a task raises.  Implementations may run tasks on the
    calling thread or on a pool; they must never reorder results.
    """

    #: Stable identifier used for selection, metrics and stats reporting.
    name: str

    def map(self, fn: Callable, items: Sequence) -> List:
        ...


class SerialExecutor:
    """Run every shard task on the calling thread (the reference executor)."""

    name = "serial"

    def map(self, fn: Callable, items: Sequence) -> List:
        return [fn(item) for item in items]


class ThreadedExecutor:
    """Fan shard tasks out over a :class:`ThreadPoolExecutor`.

    The pool may be **shared** (``pool=`` -- the engine passes its long-lived
    pool so shard fan-out and ``query_batch`` reuse one set of threads) or
    **owned** (created lazily, shut down by :meth:`close`).

    ``map`` is deadlock-free under nesting: the first task always runs on the
    calling thread, and each remaining task is *cancelled-or-inlined* -- if
    the pool never picked it up (all workers busy, e.g. saturated by
    ``query_batch`` queries whose shard fan-out landed here), the caller
    cancels the future and runs the task itself.  Progress is therefore
    guaranteed even with a single worker thread.  A pool that was shut down
    underneath the executor (``MaxRSEngine.close()`` while its indexes are
    still queryable) degrades the same way: tasks the pool refuses run
    inline on the calling thread.

    On failure ``map`` leaves nothing behind: when a task raises, every
    outstanding future is cancelled and the ones already running are awaited
    before the first exception propagates -- a failed shard cannot leak
    orphan tasks onto the shared engine pool.
    """

    name = "threaded"

    def __init__(self, max_workers: Optional[int] = None, *,
                 pool: Optional[ThreadPoolExecutor] = None) -> None:
        self._max_workers = max_workers
        self._pool = pool
        self._owns_pool = pool is None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Locked: one executor instance may be shared by concurrent queries
        # (an instance spec on the engine), and a racy double-create would
        # leak the losing pool's threads for the process lifetime.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-shard")
            return self._pool

    def map(self, fn: Callable, items: Sequence) -> List:
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        futures = []
        for item in items[1:]:
            try:
                # Each submission carries its own context snapshot: pool
                # threads otherwise start from an empty context, which would
                # orphan trace spans opened inside shard tasks (one copy per
                # task -- a single Context cannot be entered concurrently).
                context = contextvars.copy_context()
                futures.append(pool.submit(context.run, fn, item))
            except RuntimeError:
                # The pool was shut down (a closed engine still answering
                # stragglers): run this and every remaining task inline.
                break
        try:
            results = [fn(items[0])]
            for future, item in zip(futures, items[1:]):
                if future.cancel():
                    results.append(fn(item))
                else:
                    results.append(future.result())
            results.extend(fn(item) for item in items[1 + len(futures):])
            return results
        except BaseException:
            # First failure: cancel everything still queued and await the
            # tasks already running, so the failed map cannot leave orphan
            # shard tasks on a pool shared with other queries.
            for future in futures:
                future.cancel()
            _wait_futures(futures)
            raise

    def close(self) -> None:
        """Shut down the pool -- only if this executor owns it."""
        if not self._owns_pool:
            return
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def default_shard_count() -> int:
    """Auto-sized shard count: one per *schedulable* core, capped at
    :data:`DEFAULT_MAX_AUTO_SHARDS`."""
    return max(1, min(DEFAULT_MAX_AUTO_SHARDS, effective_cpu_count()))


#: Anything accepted as an executor selector: an instance, a name, or
#: ``None`` / ``"auto"`` for the core-count rule of :func:`resolve_executor`.
ExecutorSpec = Union[str, ShardExecutor, None]


def resolve_executor(executor: ExecutorSpec,
                     shard_count: int) -> ShardExecutor:
    """Resolve an executor specification to a concrete instance.

    ``None`` / ``"auto"`` picks ``threaded`` when there is fan-out to
    parallelise (``shard_count > 1``) and more than one schedulable core
    (:func:`effective_cpu_count`), else ``serial``.  ``"serial"`` and
    ``"threaded"`` resolve by name; any other name raises
    :class:`~repro.errors.ConfigurationError`.  Instances are returned
    as-is.  Construction is side-effect free: a threaded executor starts its
    threads on first use.
    """
    if executor is None or executor == "auto":
        parallel = shard_count > 1 and effective_cpu_count() > 1
        executor = "threaded" if parallel else "serial"
    if isinstance(executor, str):
        if executor == "serial":
            return SerialExecutor()
        if executor == "threaded":
            return ThreadedExecutor()
        raise ConfigurationError(
            f"unknown shard executor {executor!r}; expected 'serial' or "
            f"'threaded' (for automatic selection pass None)"
        )
    if not isinstance(executor, ShardExecutor):
        raise ConfigurationError(
            f"shard executor must be a name or implement ShardExecutor "
            f"(a 'name' attribute and a 'map' method), got {executor!r}"
        )
    return executor


# ---------------------------------------------------------------------- #
# Spatial partitioning
# ---------------------------------------------------------------------- #
def plan_tiles(shards: int, n_rows: int, n_cols: int
               ) -> Tuple[List[int], List[int]]:
    """Split a grid into at most ``shards`` regular tiles of whole cells.

    Returns ``(row_edges, col_edges)``: the half-open row and column block
    boundaries of a ``tiles_r x tiles_c`` tiling with
    ``tiles_r * tiles_c <= shards``.  The factor pair is chosen to match the
    grid's aspect ratio (so tiles are as square as possible) among the pairs
    that fit (``tiles_r <= n_rows``, ``tiles_c <= n_cols``); when the
    requested count has no fitting factorisation (e.g. 7 shards over a
    ``1 x 3`` grid) the largest feasible count below it is used -- a shard
    must own at least one whole cell or it cannot own any region.
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    aspect = n_rows / n_cols
    for count in range(min(shards, n_rows * n_cols), 0, -1):
        best: Optional[Tuple[float, int, int]] = None
        for tiles_r in range(1, count + 1):
            tiles_c, remainder = divmod(count, tiles_r)
            if remainder or tiles_r > n_rows or tiles_c > n_cols:
                continue
            mismatch = abs(math.log((tiles_r / tiles_c) / aspect))
            if best is None or mismatch < best[0]:
                best = (mismatch, tiles_r, tiles_c)
        if best is not None:
            _, tiles_r, tiles_c = best
            row_edges = [(i * n_rows) // tiles_r for i in range(tiles_r + 1)]
            col_edges = [(j * n_cols) // tiles_c for j in range(tiles_c + 1)]
            return row_edges, col_edges
    raise ConfigurationError(  # pragma: no cover - count=1 always fits
        f"cannot tile a {n_rows} x {n_cols} grid into {shards} shards")


class GridShard:
    """One spatial partition: a block of global cells and the points in it.

    ``part`` is a full :class:`GridIndex` over the shard's points with the
    block's frame imposed, so per-shard aggregates, CSR point lists and local
    prefix sums come from the exact machinery the unsharded index uses.
    ``point_ids`` are the owned points' indices into the *dataset* columns
    (ascending) and ``global_cell`` their flat cell ids in the *global* grid
    -- what mask gathers test against.
    """

    __slots__ = ("shard_id", "row0", "row1", "col0", "col1", "point_ids",
                 "global_cell", "part")

    def __init__(self, shard_id: int, row0: int, row1: int, col0: int,
                 col1: int, point_ids: np.ndarray, global_cell: np.ndarray,
                 part: GridIndex) -> None:
        self.shard_id = shard_id
        self.row0 = row0
        self.row1 = row1
        self.col0 = col0
        self.col1 = col1
        self.point_ids = point_ids
        self.global_cell = global_cell
        self.part = part

    @property
    def points(self) -> int:
        return int(len(self.point_ids))


# ---------------------------------------------------------------------- #
# The sharded index
# ---------------------------------------------------------------------- #
class ShardedGridIndex(GridQueryOps):
    """Per-region shards of one grid index behind a pluggable executor.

    Drop-in for :class:`~repro.service.grid_index.GridIndex` on the read
    side: the whole query surface (``upper_bounds`` / ``best_cell`` /
    ``candidate_mask`` / ``dilate`` / ``points_in_window`` / ``halo`` /
    ``cell_of``) is literally the **same code**, inherited from
    :class:`~repro.service.grid_index.GridQueryOps`; this class only swaps
    in how window sums are evaluated (per shard block, in parallel) and how
    masked points are gathered (per shard, merged).  Construction, window-sum
    blocks and mask gathers fan out per shard over the executor.

    Parameters
    ----------
    shards:
        Requested shard count (``None``: one per schedulable core, capped at
        :data:`DEFAULT_MAX_AUTO_SHARDS`).  The effective count may be lower:
        a shard owns at least one whole grid cell, so e.g. a degenerate
        single-cell grid always collapses to one shard.
    executor:
        Executor selection: a name (``"serial"`` / ``"threaded"``), a
        :class:`ShardExecutor` instance, or ``None`` / ``"auto"`` for the
        core-count rule of :func:`resolve_executor`.  An executor resolved
        here from a name owns its thread pool; :meth:`close` shuts it down.
    timing_hook:
        Optional ``hook(stage, shard_id, seconds)`` callback; the engine
        wires this to :meth:`EngineMetrics.observe_shard` so per-shard build
        and gather timings appear in ``stats()``.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray, *,
                 shards: Optional[int] = None,
                 executor: ExecutorSpec = None,
                 target_points_per_cell: int = 1,
                 max_cells_per_side: int = 512,
                 pyramid_levels: Optional[int] = None,
                 timing_hook: Optional[TimingHook] = None) -> None:
        if shards is not None and shards < 1:
            raise ConfigurationError(
                f"shard count must be positive, got {shards}")
        geometry = plan_geometry(
            xs, ys, target_points_per_cell=target_points_per_cell,
            max_cells_per_side=max_cells_per_side)
        requested = shards if shards is not None else default_shard_count()
        row_edges, col_edges = plan_tiles(
            requested, geometry.n_rows, geometry.n_cols)
        blocks = [(r0, r1, c0, c1)
                  for r0, r1 in zip(row_edges, row_edges[1:])
                  for c0, c1 in zip(col_edges, col_edges[1:])]
        self._hook = timing_hook
        self._pyramid_levels = pyramid_levels
        self._adopt_executor(executor, len(blocks))
        self._build(xs, ys, ws, geometry, blocks, persisted=None)

    # ------------------------------------------------------------------ #
    # Construction / persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_snapshot(cls, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray,
                      snap: Union[ShardedGridSnapshot, GridSnapshot], *,
                      executor: ExecutorSpec = None,
                      pyramid_levels: Optional[int] = None,
                      timing_hook: Optional[TimingHook] = None
                      ) -> "ShardedGridIndex":
        """Rebuild a sharded index from persisted per-shard aggregates.

        The persisted geometry *and shard layout* are adopted verbatim (a
        restarted engine prunes with exactly the partitions it served
        before); each shard's recomputed point counts must match the
        persisted ones exactly and its weights must agree within float
        tolerance, or :class:`~repro.errors.PersistError` is raised and the
        caller falls back to a full rebuild.  A plain
        :class:`~repro.persist.format.GridSnapshot` (format v1) is adopted as
        a 1-shard layout.
        """
        if isinstance(snap, GridSnapshot):
            snap = ShardedGridSnapshot.from_single(snap)
        if len(xs) == 0:
            raise ConfigurationError("GridIndex requires a non-empty dataset")
        if (snap.n_rows < 1 or snap.n_cols < 1
                or not (snap.cell_w > 0.0 and snap.cell_h > 0.0)
                or not (math.isfinite(snap.x0) and math.isfinite(snap.y0))):
            raise PersistError(
                f"persisted sharded grid geometry is degenerate: "
                f"{snap.n_rows} x {snap.n_cols} cells of "
                f"{snap.cell_w} x {snap.cell_h}"
            )
        for shard in snap.shards:
            shape = (shard.row1 - shard.row0, shard.col1 - shard.col0)
            if shard.cell_weights.shape != shape \
                    or shard.cell_counts.shape != shape:
                raise PersistError(
                    "persisted shard aggregates have the wrong shape")
        if not snap.tiles_exactly():
            raise PersistError(
                "persisted shard blocks do not tile the grid exactly; the "
                "sharded grid snapshot is stale or corrupt"
            )
        geometry = GridGeometry(snap.n_rows, snap.n_cols, snap.x0, snap.y0,
                                snap.cell_w, snap.cell_h)
        blocks = [(s.row0, s.row1, s.col0, s.col1) for s in snap.shards]
        self = cls.__new__(cls)
        self._hook = timing_hook
        self._pyramid_levels = pyramid_levels
        self._adopt_executor(executor, len(blocks))
        self._build(xs, ys, ws, geometry, blocks, persisted=snap.shards,
                    persisted_levels=snap.levels)
        return self

    def _adopt_executor(self, executor: ExecutorSpec, shard_count: int) -> None:
        self._executor = resolve_executor(executor, shard_count)
        # An executor resolved here from a name (or auto) exists only for
        # this index, so close() must release its pool; an instance the
        # caller passed in (e.g. the engine's) is theirs to close.
        self._owns_executor = executor is None or isinstance(executor, str)

    def _build(self, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray,
               geometry: GridGeometry, blocks: List[Tuple[int, int, int, int]],
               persisted: Optional[Sequence[GridShardSnapshot]],
               persisted_levels: Tuple = ()) -> None:
        (self.n_rows, self.n_cols, self.x0, self.y0,
         self.cell_w, self.cell_h) = geometry
        self.count = len(xs)
        # Bin every point against the *global* frame exactly once -- the same
        # float computation GridIndex._assign_points runs, so shard ownership
        # can never disagree with unsharded cell assignment.
        cols = np.clip((xs - self.x0) / self.cell_w,
                       0, self.n_cols - 1).astype(np.int64)
        rows = np.clip((ys - self.y0) / self.cell_h,
                       0, self.n_rows - 1).astype(np.int64)
        self.point_cell = rows * self.n_cols + cols

        order, offsets = self._shard_order(self.point_cell, blocks)

        def build_shard(index: int) -> GridShard:
            stage = "restore" if persisted is not None else "build"
            with obs.span(f"shard.map[{index}]", stage=stage) as span:
                start = time.perf_counter()
                r0, r1, c0, c1 = blocks[index]
                # Stable argsort keeps each shard's group in dataset order, so
                # the slice is already ascending -- per-cell accumulation order
                # (and hence every float sum) matches the unsharded index.
                ids = order[offsets[index]:offsets[index + 1]]
                local_cell = ((rows[ids] - r0) * (c1 - c0) + (cols[ids] - c0))
                local_geometry = GridGeometry(
                    r1 - r0, c1 - c0,
                    self.x0 + c0 * self.cell_w, self.y0 + r0 * self.cell_h,
                    self.cell_w, self.cell_h)
                part = GridIndex.from_cells(ws[ids], local_cell,
                                            geometry=local_geometry)
                if persisted is not None:
                    self._verify_and_adopt(part, persisted[index])
                shard = GridShard(
                    shard_id=index, row0=r0, row1=r1, col0=c0, col1=c1,
                    point_ids=ids, global_cell=self.point_cell[ids], part=part)
                span.set_attribute("points", int(len(ids)))
                if self._hook is not None:
                    self._hook(f"shard_{stage}", index,
                               time.perf_counter() - start)
                return shard

        self._shards: List[GridShard] = self._executor.map(
            build_shard, range(len(blocks)))
        self._assemble_globals()
        self._prefix = np.zeros((self.n_rows + 1, self.n_cols + 1),
                                dtype=np.float64)
        np.cumsum(np.cumsum(self.cell_weights, axis=0), axis=1,
                  out=self._prefix[1:, 1:])
        # The pyramid rolls up from the assembled global aggregates, so every
        # level is element-wise identical whatever the shard count or
        # executor; a restore verifies-then-adopts the persisted levels so a
        # restart's certified gaps are bit-identical to the ones it saved.
        if persisted is not None:
            self.levels = adopt_pyramid(
                self.cell_weights, self.cell_counts, persisted_levels,
                pyramid_levels=self._pyramid_levels)
        else:
            self.levels = build_pyramid(
                self.cell_weights, self.cell_counts,
                pyramid_levels=self._pyramid_levels)

    def _shard_order(self, point_cell: np.ndarray,
                     blocks: List[Tuple[int, int, int, int]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """Map points to owning shards; return the stable order + offsets."""
        owner = np.empty(self.n_rows * self.n_cols, dtype=np.int32)
        owner_grid = owner.reshape(self.n_rows, self.n_cols)
        for index, (r0, r1, c0, c1) in enumerate(blocks):
            owner_grid[r0:r1, c0:c1] = index
        shard_of_point = owner[point_cell]
        order = np.argsort(shard_of_point, kind="stable")
        counts = np.bincount(shard_of_point, minlength=len(blocks))
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return order, offsets

    def _assemble_globals(self) -> None:
        """The global aggregates the merge layer serves from -- assembled
        from per-shard aggregates, bit-identical to the unsharded index's."""
        self.cell_weights = np.zeros((self.n_rows, self.n_cols),
                                     dtype=np.float64)
        self.cell_counts = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        for shard in self._shards:
            self.cell_weights[shard.row0:shard.row1,
                              shard.col0:shard.col1] = shard.part.cell_weights
            self.cell_counts[shard.row0:shard.row1,
                             shard.col0:shard.col1] = shard.part.cell_counts

    def close(self) -> None:
        """Shut down a thread pool this index created for itself (idempotent).

        The index stays queryable afterwards: the fan-out runs on the
        calling thread, matching the ``MaxRSEngine.close()`` contract.
        """
        if self._owns_executor:
            self._owns_executor = False
            close = getattr(self._executor, "close", None)
            if close is not None:
                close()
            self._executor = SerialExecutor()

    @staticmethod
    def _verify_and_adopt(part: GridIndex, snap: GridShardSnapshot) -> None:
        """Cross-check one shard's recomputed aggregates against persisted
        ones (raising :class:`PersistError` on disagreement), then serve the
        persisted ones so a restart's bounds are bit-identical to the ones
        it saved."""
        if not np.array_equal(part.cell_counts,
                              snap.cell_counts.reshape(part.cell_counts.shape)):
            raise PersistError(
                "persisted per-shard point counts disagree with the point "
                "columns; the sharded grid snapshot is stale or corrupt"
            )
        tolerance = 1e-9 * max(
            1.0, float(np.abs(part.cell_weights).max(initial=0.0)))
        if not np.allclose(part.cell_weights,
                           snap.cell_weights.reshape(part.cell_weights.shape),
                           rtol=0.0, atol=tolerance):
            raise PersistError(
                "persisted per-shard weights disagree with the point "
                "columns; the sharded grid snapshot is stale or corrupt"
            )
        part.cell_weights = snap.cell_weights.astype(np.float64).reshape(
            part.n_rows, part.n_cols)
        part.cell_counts = snap.cell_counts.astype(np.int64).reshape(
            part.n_rows, part.n_cols)
        part._build_derived()

    def snapshot(self) -> ShardedGridSnapshot:
        """The persistable state: global geometry plus per-shard aggregates."""
        def shard_snapshot(shard: GridShard) -> GridShardSnapshot:
            return GridShardSnapshot(
                row0=shard.row0, row1=shard.row1,
                col0=shard.col0, col1=shard.col1,
                cell_weights=np.array(shard.part.cell_weights,
                                      dtype=np.float64),
                cell_counts=np.array(shard.part.cell_counts, dtype=np.int64))

        return ShardedGridSnapshot(
            n_rows=self.n_rows, n_cols=self.n_cols,
            x0=self.x0, y0=self.y0, cell_w=self.cell_w, cell_h=self.cell_h,
            shards=tuple(shard_snapshot(shard) for shard in self._shards),
            levels=snapshot_levels(self.levels),
        )

    # ------------------------------------------------------------------ #
    # Introspection properties
    # ------------------------------------------------------------------ #
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def executor_name(self) -> str:
        return self._executor.name

    @property
    def shards(self) -> Tuple[GridShard, ...]:
        return tuple(self._shards)

    def tile_layout(self) -> List[dict]:
        """JSON-ready tile partitioning, one record per shard.

        Powers ``engine.explain``'s shard-layout section: half-open row and
        column ranges of each shard's tile plus the points it owns, without
        touching shard internals (or starting executor threads).
        """
        return [{"shard": shard.shard_id,
                 "rows": [shard.row0, shard.row1],
                 "cols": [shard.col0, shard.col1],
                 "points": shard.points}
                for shard in self._shards]

    # ------------------------------------------------------------------ #
    # Point retrieval
    # ------------------------------------------------------------------ #
    def points_in_mask(self, mask: np.ndarray) -> np.ndarray:
        """Indices (ascending) of the points lying in the masked cells.

        Each shard gathers its own points against the global mask in
        parallel; the union is re-sorted, so the subset handed to the exact
        sweep is the same ascending index list the unsharded index returns.
        """
        flat = np.ascontiguousarray(mask).ravel()

        def gather(shard: GridShard) -> np.ndarray:
            with obs.span(f"shard.map[{shard.shard_id}]",
                          stage="gather") as span:
                start = time.perf_counter()
                found = shard.point_ids[flat[shard.global_cell]]
                span.set_attribute("points", int(len(found)))
                if self._hook is not None:
                    self._hook("shard_gather", shard.shard_id,
                               time.perf_counter() - start)
                return found

        parts = self._executor.map(gather, self._shards)
        return np.sort(np.concatenate(parts)) if parts else np.empty(
            0, dtype=np.int64)

    def points_in_cell(self, row: int, col: int) -> np.ndarray:
        """Indices of the points assigned to one cell (owner-shard CSR)."""
        for shard in self._shards:
            if shard.row0 <= row < shard.row1 and shard.col0 <= col < shard.col1:
                local = shard.part.points_in_cell(row - shard.row0,
                                                  col - shard.col0)
                return shard.point_ids[local]
        raise ConfigurationError(  # pragma: no cover - blocks tile the grid
            f"cell ({row}, {col}) lies outside the {self.n_rows} x "
            f"{self.n_cols} grid")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Global shape/occupancy statistics plus per-shard breakdowns."""
        occupied = int((self.cell_counts > 0).sum())

        def shard_stats(shard: GridShard) -> dict:
            weights, counts = shard.part.cell_weights, shard.part.cell_counts
            return {
                "rows": [shard.row0, shard.row1],
                "cols": [shard.col0, shard.col1],
                "cells": (shard.row1 - shard.row0)
                         * (shard.col1 - shard.col0),
                "points": shard.points,
                "occupied_cells": int((counts > 0).sum()),
                "weight": float(weights.sum()),
            }

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
            "shard_count": len(self._shards),
            "executor": self._executor.name,
            "shards": [shard_stats(shard) for shard in self._shards],
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _window_sums(self, halo_rows: int, halo_cols: int,
                     values: Optional[np.ndarray] = None) -> np.ndarray:
        """Sum ``values`` (default: cell weights) over the halo window of
        every cell, one shard block at a time, from a global prefix table.

        The per-element arithmetic (four prefix lookups) is exactly the
        unsharded index's; fanning the blocks out only changes where each
        block is evaluated.
        """
        if values is None:
            prefix = self._prefix
        else:
            prefix = np.zeros((self.n_rows + 1, self.n_cols + 1),
                              dtype=np.float64)
            np.cumsum(np.cumsum(values, axis=0), axis=1, out=prefix[1:, 1:])

        def block(shard: GridShard) -> np.ndarray:
            with obs.span(f"shard.map[{shard.shard_id}]", stage="block"):
                rows = np.arange(shard.row0, shard.row1)
                cols = np.arange(shard.col0, shard.col1)
                lo_r = np.maximum(rows - halo_rows, 0)
                hi_r = np.minimum(rows + halo_rows, self.n_rows - 1) + 1
                lo_c = np.maximum(cols - halo_cols, 0)
                hi_c = np.minimum(cols + halo_cols, self.n_cols - 1) + 1
                return (prefix[np.ix_(hi_r, hi_c)] - prefix[np.ix_(lo_r, hi_c)]
                        - prefix[np.ix_(hi_r, lo_c)]
                        + prefix[np.ix_(lo_r, lo_c)])

        out = np.empty((self.n_rows, self.n_cols), dtype=np.float64)
        for shard, result in zip(self._shards,
                                 self._executor.map(block, self._shards)):
            out[shard.row0:shard.row1, shard.col0:shard.col1] = result
        return out
