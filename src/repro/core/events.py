"""Sweep-line events over the dual rectangles.

All sweep-based algorithms in the reproduction (the in-memory plane sweep, the
externalized baselines, and the division phase of ExactMaxRS) operate on the
same event representation: each dual rectangle contributes a *bottom* event at
its lower edge (the rectangle starts intersecting the sweep line) and a *top*
event at its upper edge (it stops).  An event carries the rectangle's x-range
and weight, so a y-sorted event file is a complete, self-contained description
of the rectangle set -- this is the record format the ExactMaxRS recursion
passes down to sub-problems.

On disk an event is the record ``(y, kind, x1, x2, weight)`` with ``kind``
:data:`~repro.em.codecs.EVENT_BOTTOM` (+1) or :data:`~repro.em.codecs.EVENT_TOP`
(-1), stored through :data:`repro.em.codecs.EVENT_CODEC`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.em.codecs import EVENT_BOTTOM, EVENT_TOP
from repro.errors import GeometryError
from repro.geometry import Rect

__all__ = ["SweepEvent", "rect_to_events", "events_sort_key"]


@dataclass(frozen=True, slots=True)
class SweepEvent:
    """One sweep-line event: a horizontal edge of a weighted rectangle.

    Parameters
    ----------
    y:
        The y-coordinate of the edge.
    kind:
        ``+1`` for a bottom edge (rectangle insertion), ``-1`` for a top edge
        (rectangle deletion).
    x1, x2:
        The x-range of the rectangle (``x1 <= x2``).
    weight:
        The rectangle's weight (the weight of the originating object).
    """

    y: float
    kind: float
    x1: float
    x2: float
    weight: float

    def __post_init__(self) -> None:
        if self.kind not in (EVENT_BOTTOM, EVENT_TOP):
            raise GeometryError(f"invalid event kind {self.kind}")
        if self.x2 < self.x1:
            raise GeometryError(f"event has inverted x-range [{self.x1}, {self.x2}]")

    @property
    def is_bottom(self) -> bool:
        """``True`` for a rectangle-insertion (bottom edge) event."""
        return self.kind == EVENT_BOTTOM

    @property
    def is_top(self) -> bool:
        """``True`` for a rectangle-deletion (top edge) event."""
        return self.kind == EVENT_TOP

    def to_record(self) -> Tuple[float, float, float, float, float]:
        """Return the flat disk record ``(y, kind, x1, x2, weight)``."""
        return (self.y, self.kind, self.x1, self.x2, self.weight)

    @staticmethod
    def from_record(record: Tuple[float, ...]) -> "SweepEvent":
        """Rebuild a :class:`SweepEvent` from its disk record."""
        y, kind, x1, x2, weight = record
        return SweepEvent(y=y, kind=kind, x1=x1, x2=x2, weight=weight)


def rect_to_events(rect: Rect, weight: float) -> Tuple[SweepEvent, SweepEvent]:
    """Return the (bottom, top) event pair of a weighted rectangle."""
    bottom = SweepEvent(y=rect.y1, kind=EVENT_BOTTOM, x1=rect.x1, x2=rect.x2, weight=weight)
    top = SweepEvent(y=rect.y2, kind=EVENT_TOP, x1=rect.x1, x2=rect.x2, weight=weight)
    return bottom, top


def events_sort_key(record: Tuple[float, ...]) -> Tuple[float, ...]:
    """Sort key placing event records in sweep order.

    Events are ordered primarily by y.  Ties are broken by the remaining
    fields purely for determinism; the algorithms process *all* events sharing
    a y-coordinate before emitting output for the strip above it, so any
    within-y order is correct.  The key is the whole record, the external
    sort's default order, so the solvers sort event files without a key
    (which lets the sort run on block arrays).
    """
    return record


def iter_events(records: Iterable[Tuple[float, ...]]) -> Iterator[SweepEvent]:
    """Decode an iterable of event records into :class:`SweepEvent` objects."""
    for record in records:
        yield SweepEvent.from_record(record)


def events_to_records(events: Iterable[SweepEvent]) -> List[Tuple[float, ...]]:
    """Encode events into flat records ready to be written to an event file."""
    return [event.to_record() for event in events]
