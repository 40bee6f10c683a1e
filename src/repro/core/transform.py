"""The dual problem transformation (Section 4 of the paper).

The MaxRS problem -- place a ``d1 x d2`` rectangle to maximize the covered
weight -- is transformed into the *rectangle intersection* problem: draw a
``d1 x d2`` rectangle centred at every object, each carrying the object's
weight, and look for the region where the total weight of overlapping
rectangles is maximal (the *max-region*).  Any point of the max-region is an
optimal centre for the original problem, because a dual rectangle centred at
object ``o`` covers a candidate centre ``p`` exactly when the query rectangle
centred at ``p`` covers ``o``.

This module provides the transformation in the two forms used by the rest of
the library:

* purely in memory (lists of objects -> lists of rectangles / events), used by
  the plane-sweep base case, the baselines' oracles and the tests -- plus a
  columnar twin (numpy point columns -> one event array, or
  :class:`ColumnEvents`, which the numpy sweep prepares from the columns
  themselves) for the resident query engine, whose datasets live as columns;
* streaming over the external-memory substrate (an object
  :class:`~repro.em.record_file.RecordFile` -> an event file), used by
  ExactMaxRS and the externalized baselines.  The streaming form costs one
  linear read of the object file plus one linear write of the event file.

The streaming form moves whole blocks: each object block becomes its event
rows (bottom, then top, per object) with the arithmetic of
:func:`columns_to_event_array`, appended before the next object block is
read, and :func:`write_objects_file` packs the objects once.  The files get
the bytes and block transfers of a record-by-record pass.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.em.codecs import EVENT_BOTTOM, EVENT_CODEC, EVENT_TOP, OBJECT_CODEC
from repro.em.context import EMContext
from repro.em.record_file import RecordFile
from repro.errors import GeometryError
from repro.geometry import Rect, WeightedPoint, is_positive_finite

__all__ = [
    "dual_rectangle",
    "dual_rectangles",
    "objects_to_event_records",
    "columns_to_event_array",
    "ColumnEvents",
    "build_event_file",
    "objects_file_to_event_file",
    "write_objects_file",
]


def _check_extent(width: float, height: float) -> None:
    """Reject a query rectangle that is not positive and finite."""
    if not is_positive_finite(width, height):
        raise GeometryError(
            "query rectangle must have a positive finite extent, "
            f"got {width} x {height}"
        )


def dual_rectangle(obj: WeightedPoint, width: float, height: float) -> Rect:
    """Return the dual rectangle of one object: the query-sized rectangle
    centred at the object's location."""
    _check_extent(width, height)
    return Rect.centered_at(obj.point, width, height)


def dual_rectangles(objects: Iterable[WeightedPoint], width: float,
                    height: float) -> List[Tuple[Rect, float]]:
    """Return the list of (dual rectangle, weight) pairs for ``objects``."""
    return [(dual_rectangle(o, width, height), o.weight) for o in objects]


def objects_to_event_records(objects: Iterable[WeightedPoint], width: float,
                             height: float) -> List[Tuple[float, ...]]:
    """Return the (unsorted) sweep-event records of the dual rectangles.

    Each object yields two records: a bottom-edge event and a top-edge event of
    its dual rectangle.  The caller is responsible for sorting by y before
    sweeping.
    """
    _check_extent(width, height)
    half_w = width / 2.0
    half_h = height / 2.0
    records: List[Tuple[float, ...]] = []
    for o in objects:
        x1 = o.x - half_w
        x2 = o.x + half_w
        records.append((o.y - half_h, EVENT_BOTTOM, x1, x2, o.weight))
        records.append((o.y + half_h, EVENT_TOP, x1, x2, o.weight))
    return records


def columns_to_event_array(xs, ys, ws, width: float, height: float):
    """:func:`objects_to_event_records` for points held as numpy columns.

    Returns one ``(2n, 5)`` float64 array: row ``2i`` is object ``i``'s
    bottom-edge record and row ``2i + 1`` its top-edge record, equal bit for
    bit to the tuples :func:`objects_to_event_records` builds from the same
    points (the same IEEE-754 operations on the same doubles).
    """
    _check_extent(width, height)
    return _event_rows(xs, ys, ws, width / 2.0, height / 2.0)


class ColumnEvents:
    """The events of points held as numpy columns, before any row is built:
    ``len()`` counts them, the numpy backend sweeps them from the columns,
    and as an array or a list they are :func:`columns_to_event_array`'s."""

    def __init__(self, xs, ys, ws, width: float, height: float) -> None:
        _check_extent(width, height)
        self.xs, self.ys, self.ws, self.width, self.height = (
            xs, ys, ws, width, height)

    def __len__(self) -> int:
        return 2 * len(self.xs)

    def __array__(self, dtype=None, copy=None):
        return columns_to_event_array(self.xs, self.ys, self.ws, self.width,
                                      self.height)

    def tolist(self) -> List[List[float]]:
        return self.__array__().tolist()


def _event_rows(xs, ys, ws, half_w: float, half_h: float):
    """The ``(2n, 5)`` event rows of points held as columns."""
    events = np.empty((len(xs), 2, 5))
    events[:, 0, 0] = ys - half_h
    events[:, 1, 0] = ys + half_h
    events[:, 0, 1] = EVENT_BOTTOM
    events[:, 1, 1] = EVENT_TOP
    events[:, :, 2] = (xs - half_w)[:, None]
    events[:, :, 3] = (xs + half_w)[:, None]
    events[:, :, 4] = ws[:, None]
    return events.reshape(-1, 5)


def write_objects_file(ctx: EMContext, objects: Iterable[WeightedPoint],
                       name: str = "objects") -> RecordFile:
    """Write a dataset of objects to a new record file on the simulated disk."""
    file = ctx.create_file(OBJECT_CODEC, name=name)
    return file.write_all([(o.x, o.y, o.weight) for o in objects])


def build_event_file(ctx: EMContext, objects: Iterable[WeightedPoint],
                     width: float, height: float,
                     name: str = "events") -> RecordFile:
    """Build an (unsorted) event file directly from an in-memory object iterable.

    Prefer :func:`objects_file_to_event_file` when the objects already live on
    the simulated disk, so the read pass is charged as I/O.
    """
    _check_extent(width, height)
    file = ctx.create_file(EVENT_CODEC, name=name)
    half_w = width / 2.0
    half_h = height / 2.0
    with file.writer() as writer:
        for o in objects:
            x1 = o.x - half_w
            x2 = o.x + half_w
            writer.append((o.y - half_h, EVENT_BOTTOM, x1, x2, o.weight))
            writer.append((o.y + half_h, EVENT_TOP, x1, x2, o.weight))
    return file


def objects_file_to_event_file(ctx: EMContext, objects_file: RecordFile,
                               width: float, height: float,
                               name: str = "events") -> RecordFile:
    """Transform a disk-resident object file into an (unsorted) event file.

    Costs one linear read of the object file and one linear write of the event
    file (the event file holds ``2N`` records of 40 bytes versus ``N`` records
    of 24 bytes, so roughly ``3.3 N / B`` block transfers in total with the
    default 4 KB blocks).
    """
    _check_extent(width, height)
    event_file = ctx.create_file(EVENT_CODEC, name=name)
    half_w = width / 2.0
    half_h = height / 2.0
    with event_file.writer() as writer:
        for block in objects_file.iter_block_arrays():
            writer.append_rows(_event_rows(
                block[:, 0], block[:, 1], block[:, 2], half_w, half_h))
    return event_file
