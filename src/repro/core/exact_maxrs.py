"""ExactMaxRS -- Algorithm 2 of the paper.

The first external-memory algorithm for the MaxRS problem.  Its structure is
the distribution-sweep paradigm:

1. **Transform** (Section 4): every object becomes a query-sized rectangle
   centred at the object; the MaxRS answer is the most overlapped region of
   these dual rectangles.  The rectangles are represented as a y-sorted file
   of sweep events (:data:`~repro.em.codecs.EVENT_CODEC` records), produced
   by one linear pass plus one external sort.
2. **Divide** (Section 5.2.1): while the events of a sub-problem exceed the
   memory capacity ``M``, the sub-problem's slab is split into ``m = Θ(M/B)``
   sub-slabs receiving roughly the same number of rectangle edges.  Rectangle
   pieces spanning whole sub-slabs are set aside in a spanning file
   (:mod:`repro.core.slab`).
3. **Conquer**: a sub-problem that fits in memory is solved by the in-memory
   plane sweep (:mod:`repro.core.plane_sweep`), producing its slab-file.
   Sibling leaves are swept together (see *Leaf batches* below).
4. **Merge** (Section 5.2.3): the ``m`` slab-files and the spanning file are
   combined by :func:`~repro.core.merge_sweep.merge_sweep` into the parent's
   slab-file, until a single slab-file for the whole data space remains.  The
   strip with the largest sum in that final slab-file is the max-region; any
   of its points is an optimal placement.

Total cost: ``O((N/B) log_{M/B}(N/B))`` I/Os (Theorem 2), dominated by the
initial sort and by one linear pass per recursion level.

Every pass moves whole blocks as float64 arrays (the transform, the
external sort, the division, the leaves' slab-file reads and writes and
MergeSweep; see :mod:`repro.em.record_file` for the read/write-order rule
they keep), and reads and writes the blocks a record-at-a-time pass would,
bit for bit.

Leaf batches
------------
Consecutive leaf children of a node -- children that fit in
``memory_records`` (the EM model's ``M``), sit past ``max_depth`` or come
from a degenerate split -- are swept as one batch of at most ``M`` events
(a leaf larger than ``M`` is a batch of its own).  A batch reads and deletes
its leaves' event files in order, sweeps them all with one
:meth:`~repro.core.backends.SweepBackend.sweep_slabs` call, then writes
their slab-files in order.  A child that recurses flushes the pending batch
first, and so does the end of the node.

Deferring the slab-file writes this way keeps every block count:

* a sequential writer's block never stays in the buffer pool (it is
  written through: room is made as ``put`` makes it, then the block goes
  to disk and keeps no frame), so a write evicts a frame only if the pool
  is full when it is made;
* deleting a leaf file that was just read frees at least the frame of its
  last block, and reading and deleting further leaf files never lowers the
  number of free frames; an empty leaf writes no slab-file block;
* so the deferred writes evict nothing, as the writes made right after each
  delete did, and the pool holds the same blocks before every read: reads,
  writes and cache hits are unchanged.  Only the slab-files' block ids
  differ (the free list is last-in, first-out), and no count depends on an
  id.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import obs
from repro.core import backends
from repro.core.beststrip import BestStrip
from repro.core.merge_sweep import merge_sweep
from repro.core.result import MaxRSResult
from repro.core.slab import (
    Slab,
    choose_boundaries,
    collect_edge_xs,
    partition_event_file,
)
from repro.core.transform import objects_file_to_event_file, write_objects_file
from repro.em.codecs import EVENT_CODEC, MAX_INTERVAL_CODEC
from repro.em.context import EMContext
from repro.em.external_sort import external_sort
from repro.em.record_file import RecordFile
from repro.errors import AlgorithmError, ConfigurationError
from repro.geometry import WeightedPoint, is_positive_finite

__all__ = ["ExactMaxRS", "records_to_strips", "select_disjoint_strips"]


class ExactMaxRS:
    """External-memory exact solver for the MaxRS problem.

    Parameters
    ----------
    ctx:
        The external-memory context (disk, buffer pool, I/O counters).
    width, height:
        The query rectangle size ``d1 x d2``.
    fanout:
        Number of sub-slabs ``m`` per division step.  Defaults to the
        EM-model value ``Θ(M/B)`` derived from the context's configuration;
        tests override it to force deep recursions on tiny inputs.
    memory_records:
        Number of event records considered to "fit in memory" (the base-case
        threshold ``M``).  Defaults to the buffer capacity for event records.
    max_depth:
        Hard recursion-depth safety limit; beyond it the in-memory sweep is
        used regardless of size.

    The in-memory sweeps run on the platform's backend
    (:func:`~repro.core.backends.platform_backend`), picked here.

    Each layer of a solve opens a span (:mod:`repro.obs`):
    ``exact_maxrs.transform`` around the dual transform,
    ``exact_maxrs.sort`` around the external sort, ``exact_maxrs.divide``
    around every division, ``exact_maxrs.leaves`` around every batch of
    leaves (its reads, its one ``backend.sweep`` and its writes), and
    ``exact_maxrs.merge`` around every MergeSweep, whose ``applies``
    attribute the merge sets.

    Examples
    --------
    >>> from repro.em import EMContext
    >>> ctx = EMContext()
    >>> solver = ExactMaxRS(ctx, width=2.0, height=2.0)
    >>> objs = [WeightedPoint(0, 0), WeightedPoint(0.5, 0.5), WeightedPoint(9, 9)]
    >>> solver.solve(objs).total_weight
    2.0
    """

    def __init__(self, ctx: EMContext, width: float, height: float, *,
                 fanout: Optional[int] = None,
                 memory_records: Optional[int] = None,
                 max_depth: int = 64) -> None:
        if not is_positive_finite(width, height):
            raise ConfigurationError(
                "query rectangle must have a positive finite extent, "
                f"got {width} x {height}"
            )
        self.ctx = ctx
        self.width = width
        self.height = height
        self.fanout = fanout if fanout is not None else ctx.merge_fanout()
        if self.fanout < 2:
            raise ConfigurationError(f"fan-out must be at least 2, got {self.fanout}")
        if memory_records is not None:
            self.memory_records = memory_records
        else:
            self.memory_records = ctx.memory_capacity_records(EVENT_CODEC.record_size)
        if self.memory_records < 2:
            raise ConfigurationError(
                f"memory must hold at least two event records, got {self.memory_records}"
            )
        self.max_depth = max_depth
        self._backend = backends.platform_backend()
        self._leaf_count = 0
        self._deepest_level = 0

    def _sweep_slabs(self, slabs):
        """Sweep ``(event rows, x-range)`` slabs on the platform's backend."""
        with obs.span("backend.sweep", backend=self._backend.name,
                      events=sum(len(rows) for rows, _ in slabs),
                      slabs=len(slabs)):
            return self._backend.sweep_slabs(slabs)

    def _transform(self, objects_file: RecordFile) -> RecordFile:
        """Write the dual rectangles' (unsorted) event file."""
        with obs.span("exact_maxrs.transform",
                      records=len(objects_file)) as span:
            start = self.ctx.stats.snapshot()
            event_file = objects_file_to_event_file(
                self.ctx, objects_file, self.width, self.height,
                name="maxrs-events")
            self._set_io(span, start)
        return event_file

    def _sort(self, event_file: RecordFile) -> RecordFile:
        """Sort the event file by y (whole records) with the external sort."""
        with obs.span("exact_maxrs.sort", records=len(event_file)) as span:
            start = self.ctx.stats.snapshot()
            sorted_events = external_sort(
                self.ctx, event_file, EVENT_CODEC, delete_input=True)
            self._set_io(span, start)
        return sorted_events

    def _divide(self, event_file: RecordFile, slab: Slab, depth: int):
        """Division: ``(sub_files, spanning_file, sub_slabs)``, or ``None``
        when every edge shares one x-coordinate."""
        with obs.span("exact_maxrs.divide", records=len(event_file),
                      sub_slabs=0, spanning=0) as span:
            start = self.ctx.stats.snapshot()
            # One scan: the partition replays its own from these blocks.
            blocks = event_file.read_blocks()
            boundaries = choose_boundaries(collect_edge_xs(blocks, slab),
                                           self.fanout)
            divided = None
            if boundaries:
                divided = partition_event_file(
                    self.ctx, event_file, blocks, slab, boundaries,
                    name_prefix=f"level{depth}-slab{slab.index}")
                span.set_attributes(sub_slabs=len(divided[2]),
                                    spanning=len(divided[1]))
            self._set_io(span, start)
        return divided

    def _set_io(self, span, start) -> None:
        io = self.ctx.stats.since(start)
        span.set_attributes(block_reads=io.block_reads,
                            block_writes=io.block_writes)

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def solve(self, objects: Sequence[WeightedPoint]) -> MaxRSResult:
        """Solve MaxRS for an in-memory list of objects.

        The objects are first written to the simulated disk so the run is
        charged the same I/O as a disk-resident dataset of the same size.
        """
        objects_file = write_objects_file(self.ctx, objects, name="maxrs-objects")
        try:
            return self.solve_objects_file(objects_file)
        finally:
            objects_file.delete()

    def solve_objects_file(self, objects_file: RecordFile) -> MaxRSResult:
        """Solve MaxRS for a dataset already stored as an object record file."""
        start = self.ctx.stats.snapshot()
        self._leaf_count = 0
        self._deepest_level = 0

        best = self._solve_root(self._sort(self._transform(objects_file)))

        io = self.ctx.io_since(start)
        region = best.to_region()
        return MaxRSResult(
            location=region.representative_point(),
            region=region,
            total_weight=best.weight,
            io=io,
            recursion_levels=self._deepest_level,
            leaf_count=max(1, self._leaf_count),
        )

    # ------------------------------------------------------------------ #
    # Recursion
    # ------------------------------------------------------------------ #
    def _solve_root(self, event_file: RecordFile) -> BestStrip:
        root = Slab.root()
        if len(event_file) <= self.memory_records:
            # The whole input fits in memory: PlaneSweep causes no further
            # I/O and there is no slab-file to materialise (Algorithm 2,
            # line 9, invoked at the top level), so only the best strip is
            # asked for.
            records = event_file.read_rows()
            event_file.delete()
            self._leaf_count = 1
            with obs.span("backend.sweep", backend=self._backend.name,
                          events=len(records), slabs=1):
                return self._backend.sweep(records, root.x_range)
        slab_file, best = self._recurse(event_file, root, depth=1)
        slab_file.delete()
        return best

    def _recurse(self, event_file: RecordFile, slab: Slab,
                 depth: int) -> Tuple[RecordFile, BestStrip]:
        """Return the slab-file of ``slab`` and the best strip found in it.

        ``event_file`` holds more than ``memory_records`` events; its leaf
        children are swept in batches (see the module docstring).
        """
        self._deepest_level = max(self._deepest_level, depth)
        divided = None
        if depth <= self.max_depth:
            divided = self._divide(event_file, slab, depth)
        if divided is None:
            # Past the depth limit, or every edge shares one x-coordinate so
            # division cannot separate the rectangles: sweep in memory.
            return self._sweep_leaves([(event_file, slab)])[0]
        sub_files, spanning_file, sub_slabs = divided
        total_events = len(event_file)
        event_file.delete()

        child_files: List[RecordFile] = []
        batch: List[Tuple[RecordFile, Slab]] = []
        batch_events = 0
        for sub_file, sub_slab in zip(sub_files, sub_slabs):
            events = len(sub_file)
            # A degenerate split (all edges piled on one side) would recurse
            # without end, so that child is a leaf too.
            degenerate = events >= total_events
            inner = (not degenerate and events > self.memory_records
                     and depth < self.max_depth)
            if batch and (inner or batch_events + events > self.memory_records):
                child_files.extend(f for f, _ in self._sweep_leaves(batch))
                batch, batch_events = [], 0
            if inner:
                child_files.append(
                    self._recurse(sub_file, sub_slab, depth + 1)[0])
                continue
            if not degenerate:
                self._deepest_level = max(self._deepest_level, depth + 1)
            batch.append((sub_file, sub_slab))
            batch_events += events
        if batch:
            child_files.extend(f for f, _ in self._sweep_leaves(batch))

        records_in = len(spanning_file) + sum(len(f) for f in child_files)
        with obs.span("exact_maxrs.merge", sub_slabs=len(sub_slabs),
                      records_in=records_in) as span:
            start = self.ctx.stats.snapshot()
            merged, best = merge_sweep(
                self.ctx, sub_slabs, child_files, spanning_file,
                name=f"merged-level{depth}-slab{slab.index}", span=span)
            span.set_attributes(
                hlines=len(merged),
                block_reads=self.ctx.stats.since(start).block_reads)
        for child in child_files:
            child.delete()
        spanning_file.delete()
        return merged, best

    def _sweep_leaves(self, leaves: Sequence[Tuple[RecordFile, Slab]]
                      ) -> List[Tuple[RecordFile, BestStrip]]:
        """Sweep a batch of leaves in memory and write their slab-files.

        Reads and deletes every leaf's event file in order, sweeps them all
        at once, then writes one slab-file per leaf, in order.  Returns each
        leaf's slab-file and best strip.
        """
        self._leaf_count += len(leaves)
        with obs.span("exact_maxrs.leaves", leaves=len(leaves)) as span:
            start = self.ctx.stats.snapshot()
            slabs = []
            for event_file, slab in leaves:
                slabs.append((event_file.read_rows(), slab.x_range))
                event_file.delete()
            swept = self._sweep_slabs(slabs)
            out = []
            for (_, slab), (rows, best) in zip(leaves, swept):
                slab_file = self.ctx.create_file(
                    MAX_INTERVAL_CODEC, name=f"slabfile-{slab.index}")
                out.append((slab_file.write_all(rows), best))
            span.set_attributes(
                events=sum(len(rows) for rows, _ in slabs),
                hlines=sum(len(rows) for rows, _ in swept))
            self._set_io(span, start)
        return out

    # ------------------------------------------------------------------ #
    # Extensions beyond the paper
    # ------------------------------------------------------------------ #
    def solve_topk(self, objects: Sequence[WeightedPoint], k: int) -> List[MaxRSResult]:
        """Return the ``k`` best *disjoint-strip* placements (MaxkRS).

        This implements the MaxkRS extension sketched in the paper's future
        work: the final slab-file already contains the best placement of every
        horizontal strip, so the top-k answers are obtained by keeping the
        ``k`` largest strips whose y-ranges do not overlap (greedily, best
        first).  The I/O cost is that of a single ExactMaxRS run plus one scan
        of the final slab-file.
        """
        if k < 1:
            raise AlgorithmError(f"k must be positive, got {k}")
        objects_file = write_objects_file(self.ctx, objects, name="maxkrs-objects")
        try:
            start = self.ctx.stats.snapshot()
            strips = self._collect_strips(
                self._sort(self._transform(objects_file)))
            io = self.ctx.io_since(start)
        finally:
            objects_file.delete()

        chosen = select_disjoint_strips(strips, k)
        results = []
        for strip in chosen:
            region = strip.to_region()
            results.append(MaxRSResult(
                location=region.representative_point(),
                region=region,
                total_weight=strip.weight,
                io=io,
                recursion_levels=self._deepest_level,
                leaf_count=max(1, self._leaf_count),
            ))
        return results

    def _collect_strips(self, event_file: RecordFile) -> List[BestStrip]:
        """Run the recursion and return every strip of the final slab-file."""
        root = Slab.root()
        self._leaf_count = 0
        self._deepest_level = 0
        if len(event_file) <= self.memory_records:
            records = event_file.read_rows()
            event_file.delete()
            self._leaf_count = 1
            rows, _ = self._sweep_slabs([(records, root.x_range)])[0]
            return records_to_strips(rows)
        slab_file, _ = self._recurse(event_file, root, depth=1)
        tuples = slab_file.read_all()
        slab_file.delete()
        return records_to_strips(tuples)


def records_to_strips(records: Sequence[Tuple[float, ...]]) -> List[BestStrip]:
    """Convert consecutive slab-file records into closed strips.

    Each slab-file tuple ``(y, x1, x2, sum)`` describes the strip from its own
    h-line up to the next tuple's h-line; the last strip extends to ``+inf``.
    ``records`` may also be an ``(h, 4)`` array of such rows.  Shared by the
    external MaxkRS path and the in-memory top-k fast path in
    :mod:`repro.core.dispatch`.
    """
    if hasattr(records, "tolist"):   # an (h, 4) array of rows
        records = records.tolist()
    strips: List[BestStrip] = []
    for position, record in enumerate(records):
        y, x1, x2, weight = record
        next_y = records[position + 1][0] if position + 1 < len(records) else float("inf")
        strips.append(BestStrip(weight=weight, x1=x1, x2=x2, y1=y, y2=next_y))
    return strips


def select_disjoint_strips(strips: Sequence[BestStrip], k: int) -> List[BestStrip]:
    """Greedily pick up to ``k`` vertically-disjoint strips, best first.

    This is the selection rule of the MaxkRS extension: strips are considered
    in descending weight order and kept only when their y-range does not
    overlap an already chosen strip.
    """
    ordered = sorted(strips, key=lambda strip: strip.weight, reverse=True)
    chosen: List[BestStrip] = []
    for strip in ordered:
        if len(chosen) == k:
            break
        if all(strip.y2 <= other.y1 or strip.y1 >= other.y2 for other in chosen):
            chosen.append(strip)
    return chosen
