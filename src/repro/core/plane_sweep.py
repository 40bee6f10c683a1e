"""In-memory plane sweep over the dual rectangles (Imai & Asano style).

This is the classical ``O(K log K)`` sweep the computational-geometry
literature uses for the rectangle-intersection / max-enclosing-rectangle
problem, and it plays two roles in the reproduction:

* it is the **base case** of the ExactMaxRS recursion (Algorithm 2, line 9:
  ``PlaneSweep(R)``): once the rectangles of a slab fit in memory their
  slab-file is computed directly, without further I/O;
* via :func:`solve_in_memory` it doubles as the exact reference solver used by
  the tests and by the small-dataset fast path of the public API.

The sweep moves a horizontal line bottom-to-top over the rectangle edges.  The
active rectangles induce a location-weight profile over the elementary
x-intervals of the slab, maintained in a
:class:`~repro.core.segment_tree.MaxAddSegmentTree`; after processing all the
edges sharing one y-coordinate (one *h-line*), the profile's maximum and the
maximal interval attaining it are emitted as the slab-file tuple for the strip
above that h-line.

:func:`sweep_events` is also the reference implementation behind the
``"pure"`` entry of the backend layer (:mod:`repro.core.backends`); the
vectorised backend is property-tested against it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, List, Sequence, Tuple

from repro import obs
from repro.core.beststrip import BestStrip, BestStripTracker
from repro.core.segment_tree import MaxAddSegmentTree
from repro.core.transform import ColumnEvents, objects_to_event_records
from repro.core.result import MaxRSResult
from repro.em.codecs import EVENT_BOTTOM
from repro.geometry import Interval, WeightedPoint

__all__ = ["sweep_events", "solve_in_memory", "solve_columns",
           "PlaneSweepOutput"]

Record = Tuple[float, ...]

#: (slab-file records, best strip) returned by :func:`sweep_events`.
PlaneSweepOutput = Tuple[List[Record], BestStrip]


def sweep_events(event_records: Sequence[Record],
                 slab_range: Interval | None = None) -> PlaneSweepOutput:
    """Run the in-memory plane sweep over a set of event records.

    Parameters
    ----------
    event_records:
        Flat event records ``(y, kind, x1, x2, weight)`` of the dual
        rectangles (both edges of each rectangle).  They need not be sorted.
    slab_range:
        The x-extent of the slab the events belong to; rectangles are clipped
        to it and zero-coverage strips report it as their max-interval.
        Defaults to the whole real line (the root slab).

    Returns
    -------
    (records, best):
        ``records`` is the slab-file: one max-interval record
        ``(y, x1, x2, sum)`` per distinct event y-coordinate, in ascending y
        order.  ``best`` is the best strip over the whole sweep.
    """
    if slab_range is None:
        slab_range = Interval.full()
    slab_lo, slab_hi = slab_range.lo, slab_range.hi
    if not event_records:
        return [], BestStrip.empty(slab_lo, slab_hi)

    with obs.span("backend.sweep.prepare"):
        events = sorted(event_records)
        xs = _elementary_boundaries(events, slab_lo, slab_hi)
    num_cells = len(xs) - 1
    if num_cells < 1:
        # Degenerate slab (zero width): nothing can be covered strictly inside.
        return [], BestStrip.empty(slab_lo, slab_hi)
    with obs.span("backend.sweep.kernel"):
        return _sweep_cells(events, xs, slab_lo, slab_hi)


def _sweep_cells(events: Sequence[Record], xs: List[float], slab_lo: float,
                 slab_hi: float) -> PlaneSweepOutput:
    """The segment-tree sweep of y-sorted ``events`` over the cells ``xs``."""
    tree = MaxAddSegmentTree(len(xs) - 1)
    tracker = BestStripTracker()
    output: List[Record] = []

    index = 0
    total = len(events)
    while index < total:
        y = events[index][0]
        # Apply every edge lying on this h-line before emitting the tuple for
        # the strip above it.
        while index < total and events[index][0] == y:
            _, kind, x1, x2, weight = events[index]
            index += 1
            lo = max(x1, slab_lo)
            hi = min(x2, slab_hi)
            if lo >= hi or weight == 0.0:
                continue
            left = bisect_left(xs, lo)
            right = bisect_left(xs, hi) - 1
            delta = weight if kind == EVENT_BOTTOM else -weight
            tree.range_add(left, right, delta)
        best_value = tree.global_max()
        cell = tree.argmax_leftmost()
        run_end = tree.max_run_from(cell)
        record = (y, xs[cell], xs[run_end + 1], best_value)
        output.append(record)
        tracker.observe(y, record[1], record[2], best_value)

    tracker.finish()
    return output, tracker.best


def _elementary_boundaries(events: Sequence[Record], slab_lo: float,
                           slab_hi: float) -> List[float]:
    """Return the sorted, de-duplicated cell boundaries of the sweep.

    The boundaries are the rectangle x-edges clipped to the slab, plus the
    slab's own (possibly infinite) borders so zero-coverage strips can report
    the full slab extent.
    """
    coords = {slab_lo, slab_hi}
    for _, _, x1, x2, _ in events:
        lo = max(x1, slab_lo)
        hi = min(x2, slab_hi)
        if lo < hi:
            coords.add(lo)
            coords.add(hi)
    xs = sorted(c for c in coords if not math.isnan(c))
    return xs


def solve_in_memory(objects: Sequence[WeightedPoint], width: float,
                    height: float) -> MaxRSResult:
    """Solve a MaxRS instance entirely in memory.

    This is the exact solver the tests use as an oracle and the fast path the
    public API takes when the dataset is small.  It performs no simulated I/O.
    It asks the platform's backend
    (:func:`~repro.core.backends.platform_backend`) for the best strip
    only, so no slab-file is built.

    Examples
    --------
    >>> objs = [WeightedPoint(0, 0), WeightedPoint(1, 1), WeightedPoint(9, 9)]
    >>> result = solve_in_memory(objs, width=4, height=4)
    >>> result.total_weight
    2.0
    """
    return _solve_best(
        2 * len(objects),
        lambda: objects_to_event_records(objects, width, height))


def solve_columns(xs, ys, ws, width: float, height: float) -> MaxRSResult:
    """:func:`solve_in_memory` over points held as numpy columns.

    No point objects are needed: the backend gets the columns' events
    (:class:`~repro.core.transform.ColumnEvents`), which the numpy backend
    prepares from the columns' own x and y orders and the reference lays
    out as rows.  The answer is bit-identical to :func:`solve_in_memory` on
    the objects the columns hold.  Requires numpy.
    """
    return _solve_best(2 * len(xs),
                       lambda: ColumnEvents(xs, ys, ws, width, height))


def _solve_best(num_events: int,
                build: Callable[[], Sequence[Record]]) -> MaxRSResult:
    """Sweep the events ``build`` makes on the platform's backend.

    Returns the best strip as a :class:`MaxRSResult`.  The event build runs
    inside the ``backend.sweep`` span, as its ``backend.sweep.events``
    child.
    """
    # Imported at call time: repro.core.backends imports this module's
    # sweep_events for its reference backend.
    from repro.core.backends import platform_backend

    backend = platform_backend()
    with obs.span("backend.sweep", backend=backend.name, events=num_events):
        with obs.span("backend.sweep.events"):
            records = build()
        best = backend.sweep(records, Interval.full())
    region = best.to_region()
    return MaxRSResult(
        location=region.representative_point(),
        region=region,
        total_weight=best.weight,
        io=None,
        recursion_levels=0,
        leaf_count=1,
    )
