"""Concrete record codecs for every disk-resident record type.

The reproduction stores five kinds of records on the simulated disk:

* **object records** ``(x, y, weight)`` -- the input dataset ``O``;
* **rectangle records** ``(x1, y1, x2, y2, weight)`` -- the dual rectangles
  produced by the problem transformation, and the spanning-rectangle files of
  the ExactMaxRS recursion;
* **max-interval records** ``(y, x1, x2, sum)`` -- the tuples of a slab-file
  (Definition 6: ``t = <y, [x1, x2], sum>``);
* **event records** ``(y, kind, x1, x2, weight)`` -- sweep-line events: each
  dual rectangle contributes a *bottom* event at its lower edge (kind +1, it
  starts crossing the sweep line) and a *top* event at its upper edge (kind
  -1), each carrying the rectangle's x-range and weight, so a y-sorted event
  file describes the rectangle set completely -- the format the ExactMaxRS
  recursion passes down to sub-problems and the externalized baselines sweep;
* **column records** ``(value,)`` -- one float64 component of a *columnar*
  snapshot (:mod:`repro.persist`): a dataset's ``x``, ``y`` and ``weight``
  columns (and a grid index's flattened cell aggregates) are each stored as a
  dense run of column records, so a block is exactly a contiguous slice of one
  numpy column and decoding is a ``frombuffer`` away.

All codecs use little-endian IEEE-754 doubles, so record sizes -- and thus the
EM parameter ``B`` -- are identical on every platform: 24, 40, 32, 40 and 8
bytes respectively.  With the paper's 4 KB blocks this yields B = 170, 102,
128, 102 and 512 records per block.
"""

from __future__ import annotations

from typing import Tuple

from repro.em.serializer import StructRecordCodec
from repro.geometry import Rect, WeightedPoint

__all__ = [
    "COLUMN_CODEC",
    "OBJECT_CODEC",
    "RECT_CODEC",
    "MAX_INTERVAL_CODEC",
    "EVENT_CODEC",
    "object_to_record",
    "record_to_object",
    "rect_to_record",
    "record_to_rect",
    "EVENT_BOTTOM",
    "EVENT_TOP",
]

#: Codec for input objects ``(x, y, weight)``.
OBJECT_CODEC = StructRecordCodec("<ddd")

#: Codec for weighted rectangles ``(x1, y1, x2, y2, weight)``.
RECT_CODEC = StructRecordCodec("<ddddd")

#: Codec for slab-file tuples ``(y, x1, x2, sum)``.
MAX_INTERVAL_CODEC = StructRecordCodec("<dddd")

#: Codec for plane-sweep events ``(y, kind, x1, x2, weight)``.
EVENT_CODEC = StructRecordCodec("<ddddd")

#: Codec for columnar snapshots: one float64 column component per record.
COLUMN_CODEC = StructRecordCodec("<d")

#: Event kind marking the bottom edge of a rectangle (interval insertion).
EVENT_BOTTOM = 1.0

#: Event kind marking the top edge of a rectangle (interval deletion).
EVENT_TOP = -1.0


def object_to_record(obj: WeightedPoint) -> Tuple[float, float, float]:
    """Convert a :class:`~repro.geometry.WeightedPoint` to an object record."""
    return (obj.x, obj.y, obj.weight)


def record_to_object(record: Tuple[float, ...]) -> WeightedPoint:
    """Convert an object record back to a :class:`~repro.geometry.WeightedPoint`."""
    x, y, weight = record
    return WeightedPoint(x, y, weight)


def rect_to_record(rect: Rect, weight: float) -> Tuple[float, float, float, float, float]:
    """Convert a rectangle plus weight to a rectangle record."""
    return (rect.x1, rect.y1, rect.x2, rect.y2, weight)


def record_to_rect(record: Tuple[float, ...]) -> Tuple[Rect, float]:
    """Convert a rectangle record back to ``(Rect, weight)``."""
    x1, y1, x2, y2, weight = record
    return Rect(x1, y1, x2, y2), weight
