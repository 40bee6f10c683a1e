"""The aSB-tree baseline (external aggregate sweep structure).

Du et al. externalized the plane sweep behind optimal-location queries with an
*aggregate SB-tree*: the sweep's interval structure becomes a disk-resident,
block-aligned aggregate tree over the x-axis, so every rectangle edge costs a
logarithmic number of node accesses instead of a full rescan of the interval
file.  The paper uses exactly this structure as its second baseline ("aSB-
Tree" in Figures 12--16): asymptotically ``O(N log_B N)`` I/Os -- far better
than the naive sweep, still a factor ``B log_{M/B}`` away from ExactMaxRS.

This module reconstructs the structure as :class:`ASBTree`:

* the tree is built over the distinct x-coordinates of the dual rectangles'
  vertical edges (obtained with one linear pass and one external sort);
* each node occupies exactly one disk block and stores, for each of its up to
  ``F = B_block/24`` children, the child's lower x-boundary, a pending
  (lazy) weight addition, and the maximum location-weight inside the child's
  subtree;
* a rectangle edge updates the tree with a standard lazy range addition along
  at most two root-to-leaf paths, returning the new global maximum, which the
  sweep folds into its running answer.

Like the naive baseline, the tree runs either against the real simulated disk
(every node access goes through the buffer pool) or in an I/O-faithful
simulation mode whose node accesses are charged through an LRU residency model
of the same capacity (``simulate_io=True``), which is what makes paper-scale
sweeps affordable in wall-clock time.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.baselines.common import BaselineResult, SimulatedLRUCache
from repro.core.transform import objects_file_to_event_file, write_objects_file
from repro.em.codecs import EVENT_BOTTOM, EVENT_CODEC
from repro.em.context import EMContext
from repro.em.external_sort import external_sort
from repro.em.record_file import RecordFile
from repro.em.serializer import StructRecordCodec
from repro.errors import AlgorithmError, ConfigurationError
from repro.geometry import WeightedPoint, is_positive_finite

__all__ = ["ASBTree", "ASBTreeSweep"]

#: Codec for the temporary file of vertical-edge x-coordinates.
_EDGE_CODEC = StructRecordCodec("<d")

#: Bytes per child slot: (lower x-boundary, pending add, subtree max).
_SLOT_BYTES = 24


@dataclass(slots=True)
class _NodeMeta:
    """In-memory catalogue entry for one tree node (its data lives on disk)."""

    block_id: int
    first_x: float
    num_slots: int


class ASBTree:
    """Disk-resident aggregate tree over the x-axis with lazy range additions.

    Parameters
    ----------
    ctx:
        External-memory context providing the disk and buffer pool.
    boundaries:
        Sorted, distinct x-coordinates delimiting the elementary cells
        (usually the vertical-edge x-coordinates of the dual rectangles).
    simulate_io:
        When ``True`` node payloads are kept in process memory and their
        block transfers are charged through an LRU residency model of the
        buffer pool's capacity instead of moving real blocks.

    Notes
    -----
    The node *catalogue* (block ids and child counts) is kept in memory, as a
    real system would cache an index's skeleton; all aggregate payloads --
    the per-child pending additions and subtree maxima -- live in disk blocks
    and every access to them is charged as I/O.
    """

    def __init__(self, ctx: EMContext, boundaries: List[float], *,
                 simulate_io: bool = False) -> None:
        if len(boundaries) < 2:
            raise AlgorithmError(
                "an aSB-tree needs at least two distinct x-coordinates"
            )
        self.ctx = ctx
        self.simulate_io = simulate_io
        self.fanout = max(2, ctx.config.block_size // _SLOT_BYTES)
        self._codec = StructRecordCodec("<" + "ddd" * self.fanout)
        self._levels: List[List[_NodeMeta]] = []
        self._memory_nodes: List[List[List[float]]] = []
        self._cache = SimulatedLRUCache(ctx.pool.capacity_blocks, ctx.stats) \
            if simulate_io else None
        self._build(boundaries)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self, boundaries: List[float]) -> None:
        # Level 0: one slot per elementary cell [boundaries[i], boundaries[i+1]).
        level_entries: List[Tuple[float, float, float]] = [
            (x, 0.0, 0.0) for x in boundaries[:-1]
        ]
        self._upper = boundaries[-1]
        while True:
            level_meta, next_entries = self._build_level(level_entries)
            self._levels.append(level_meta)
            if len(level_meta) == 1:
                break
            level_entries = next_entries

    def _build_level(self, entries: List[Tuple[float, float, float]]):
        """Pack ``entries`` (child summaries) into nodes of one tree level."""
        metas: List[_NodeMeta] = []
        parent_entries: List[Tuple[float, float, float]] = []
        memory_level: List[List[float]] = []
        for start in range(0, len(entries), self.fanout):
            chunk = entries[start:start + self.fanout]
            slots: List[float] = []
            for x_lo, add, sub_max in chunk:
                slots.extend((x_lo, add, sub_max))
            # Pad unused slots so every node occupies exactly one block.
            slots.extend([math.inf, 0.0, -math.inf] * (self.fanout - len(chunk)))
            block_id = self._store_new_node(slots, len(metas), len(self._levels),
                                            memory_level)
            metas.append(_NodeMeta(block_id=block_id, first_x=chunk[0][0],
                                   num_slots=len(chunk)))
            parent_entries.append((chunk[0][0], 0.0, 0.0))
        if self.simulate_io:
            self._memory_nodes.append(memory_level)
        return metas, parent_entries

    def _store_new_node(self, slots: List[float], node_index: int, level: int,
                        memory_level: List[List[float]]) -> int:
        if self.simulate_io:
            memory_level.append(list(slots))
            # Writing the freshly built node to disk costs one block write.
            self.ctx.stats.record_write()
            return node_index
        block_id = self.ctx.device.allocate()
        self.ctx.pool.put(block_id, self._codec.encode_one(tuple(slots)))
        return block_id

    # ------------------------------------------------------------------ #
    # Node access
    # ------------------------------------------------------------------ #
    def _load_slots(self, level: int, index: int) -> List[float]:
        if self.simulate_io:
            self._cache.access((level, index), dirty=False)
            return self._memory_nodes[level][index]
        meta = self._levels[level][index]
        frame = self.ctx.pool.get(meta.block_id)
        return list(self._codec.decode_all(frame.data)[0])

    def _store_slots(self, level: int, index: int, slots: List[float]) -> None:
        if self.simulate_io:
            self._cache.access((level, index), dirty=True)
            self._memory_nodes[level][index] = slots
            return
        meta = self._levels[level][index]
        self.ctx.pool.put(meta.block_id, self._codec.encode_one(tuple(slots)))

    # ------------------------------------------------------------------ #
    # Updates and queries
    # ------------------------------------------------------------------ #
    @property
    def height(self) -> int:
        """Number of levels of the tree (1 for a single-node tree)."""
        return len(self._levels)

    def range_add(self, x1: float, x2: float, delta: float) -> float:
        """Add ``delta`` to the location-weight over ``[x1, x2)``.

        Returns the new global maximum location-weight.  ``x1`` and ``x2`` are
        expected to be cell boundaries (they are vertical-edge coordinates of
        the input rectangles, which is how the tree was built).
        """
        if x2 <= x1 or delta == 0.0:
            return self.global_max()
        root_level = len(self._levels) - 1
        return self._update(root_level, 0, self._upper, x1, x2, delta)

    def global_max(self) -> float:
        """Return the current maximum location-weight over the whole axis."""
        root_level = len(self._levels) - 1
        slots = self._load_slots(root_level, 0)
        count = self._levels[root_level][0].num_slots
        return max(slots[3 * j + 1] + slots[3 * j + 2] for j in range(count))

    def _update(self, level: int, index: int, upper: float, x1: float,
                x2: float, delta: float) -> float:
        meta = self._levels[level][index]
        slots = self._load_slots(level, index)
        count = meta.num_slots
        child_lo = [slots[3 * j] for j in range(count)]
        # Children whose range [child_lo[j], child_hi[j]) intersects [x1, x2).
        first = max(0, bisect_right(child_lo, x1) - 1)
        last = min(count - 1, bisect_left(child_lo, x2) - 1)
        modified = False
        for j in range(first, last + 1):
            lo = child_lo[j]
            hi = child_lo[j + 1] if j + 1 < count else upper
            if hi <= x1 or lo >= x2:
                continue
            if x1 <= lo and hi <= x2:
                slots[3 * j + 1] += delta
                modified = True
            elif level > 0:
                child_max = self._update(level - 1, index * self.fanout + j, hi,
                                         x1, x2, delta)
                slots[3 * j + 2] = child_max
                modified = True
            else:
                # A cell is never partially covered because x1/x2 are cell
                # boundaries; treat defensively as covered.
                slots[3 * j + 1] += delta
                modified = True
        if modified:
            self._store_slots(level, index, slots)
        return max(slots[3 * j + 1] + slots[3 * j + 2] for j in range(count))

    def finish(self) -> None:
        """Charge any deferred write-backs held by the simulation cache."""
        if self._cache is not None:
            self._cache.flush()

    def delete(self) -> None:
        """Release every node block (real mode only; the simulation mode keeps
        its nodes in process memory).

        Call this *after* the I/O of the run has been measured: flushing the
        buffer pool first ensures deferred node write-backs are still counted.
        """
        if self.simulate_io:
            self._memory_nodes = []
            return
        for level in self._levels:
            for meta in level:
                self.ctx.pool.invalidate(meta.block_id)
                self.ctx.device.free(meta.block_id)
        self._levels = []


class ASBTreeSweep:
    """MaxRS via a plane sweep over an :class:`ASBTree` (the paper's baseline).

    Parameters
    ----------
    ctx:
        External-memory context.
    width, height:
        The query rectangle size ``d1 x d2``.
    simulate_io:
        Forwarded to :class:`ASBTree` (see module docstring).
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

    def solve(self, objects) -> BaselineResult:
        """Solve MaxRS for an in-memory list of objects."""
        objects_file = write_objects_file(self.ctx, objects, name="asb-objects")
        try:
            return self.solve_objects_file(objects_file)
        finally:
            objects_file.delete()

    def solve_objects_file(self, objects_file: RecordFile) -> BaselineResult:
        """Solve MaxRS for a dataset stored as an object record file."""
        start = self.ctx.stats.snapshot()

        boundaries = self._edge_boundaries(objects_file)
        if len(boundaries) < 2:
            # Empty (or fully degenerate) dataset: nothing can be covered.
            return BaselineResult(total_weight=0.0,
                                  io=self.ctx.io_since(start),
                                  simulated=self.simulate_io)
        event_file = objects_file_to_event_file(
            self.ctx, objects_file, self.width, self.height, name="asb-events")
        sorted_events = external_sort(
            self.ctx, event_file, EVENT_CODEC, delete_input=True)

        tree = ASBTree(self.ctx, boundaries, simulate_io=self.simulate_io)
        best_weight = 0.0
        best_y = -math.inf
        events = 0
        for record in sorted_events.reader():
            y, kind, x1, x2, weight = record
            events += 1
            delta = weight if kind == EVENT_BOTTOM else -weight
            current_max = tree.range_add(x1, x2, delta)
            if kind == EVENT_BOTTOM and current_max > best_weight:
                best_weight = current_max
                best_y = y
        tree.finish()
        sorted_events.delete()
        io = self.ctx.io_since(start)
        tree.delete()
        return BaselineResult(
            total_weight=best_weight,
            io=io,
            best_y=best_y,
            events_processed=events,
            simulated=self.simulate_io,
        )

    # ------------------------------------------------------------------ #
    # Build helpers
    # ------------------------------------------------------------------ #
    def _edge_boundaries(self, objects_file: RecordFile) -> List[float]:
        """Collect the sorted distinct vertical-edge x-coordinates.

        One linear pass writes the ``2N`` edge coordinates to a temporary
        file, an external sort orders them, and one more pass de-duplicates
        them while building the boundary list -- the same I/O profile a real
        bulk-load of the structure would have.
        """
        half_w = self.width / 2.0
        edges = self.ctx.create_file(_EDGE_CODEC, name="asb-edges")
        with edges.writer() as writer:
            for x, _, _ in objects_file.reader():
                writer.append((x - half_w,))
                writer.append((x + half_w,))
        sorted_edges = external_sort(self.ctx, edges, _EDGE_CODEC,
                                     delete_input=True)
        boundaries: List[float] = []
        for (x,) in sorted_edges.reader():
            if not boundaries or x > boundaries[-1]:
                boundaries.append(x)
        sorted_edges.delete()
        return boundaries


def solve_asb_tree(objects: List[WeightedPoint], width: float, height: float,
                   ctx: Optional[EMContext] = None, *,
                   simulate_io: bool = False) -> BaselineResult:
    """Convenience wrapper running :class:`ASBTreeSweep` on a fresh context."""
    context = ctx if ctx is not None else EMContext()
    return ASBTreeSweep(context, width, height,
                        simulate_io=simulate_io).solve(objects)
