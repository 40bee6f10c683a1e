"""Weighted spatial objects.

The input to both MaxRS and MaxCRS is a set ``O`` of objects, each located at
a 2-D point and carrying a non-negative weight ``w(o)``.  This module provides
the :class:`WeightedPoint` value object and small helpers over collections of
them that several algorithms and the experiment harness share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.errors import GeometryError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = [
    "WeightedPoint",
    "total_weight",
    "weight_in_rect",
    "weight_in_circle",
    "bounding_rect",
]

#: Bound once: the weight check runs for every object built.
_INF = math.inf


@dataclass(frozen=True, slots=True)
class WeightedPoint:
    """An object of the MaxRS input: a location plus a non-negative weight.

    Parameters
    ----------
    x, y:
        Location of the object.
    weight:
        Finite, non-negative weight ``w(o)``; defaults to ``1.0`` (the
        unweighted "count" case used by the max-enclosing-rectangle
        literature).

    Examples
    --------
    >>> o = WeightedPoint(3.0, 4.0, weight=2.5)
    >>> o.point
    Point(x=3.0, y=4.0)
    """

    x: float
    y: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if math.isnan(self.x) or math.isnan(self.y):
            raise GeometryError("object coordinates must not be NaN")
        if not 0.0 <= self.weight < _INF:   # NaN fails it too
            raise GeometryError(
                f"object weight must be finite and non-negative, got {self.weight}")

    @property
    def point(self) -> Point:
        """The location of the object as a :class:`Point`."""
        return Point(self.x, self.y)

    def with_weight(self, weight: float) -> "WeightedPoint":
        """Return a copy of this object with a different weight."""
        return WeightedPoint(self.x, self.y, weight)


def total_weight(objects: Iterable[WeightedPoint]) -> float:
    """Return the sum of the weights of ``objects``."""
    return sum(o.weight for o in objects)


def weight_in_rect(objects: Iterable[WeightedPoint], rect: Rect) -> float:
    """Return the total weight of the objects strictly inside ``rect``.

    This is the objective function of the MaxRS problem evaluated for a fixed
    rectangle placement; it is used by tests and by the brute-force oracle.
    """
    return sum(o.weight for o in objects if rect.covers_point(o.point))


def weight_in_circle(objects: Iterable[WeightedPoint], circle: Circle) -> float:
    """Return the total weight of the objects strictly inside ``circle``.

    This is the objective function of the MaxCRS problem evaluated for a fixed
    circle placement; ApproxMaxCRS uses it to pick the best of its five
    candidate centres.
    """
    return sum(o.weight for o in objects if circle.covers_point(o.point))


def bounding_rect(objects: Sequence[WeightedPoint]) -> Rect:
    """Return the minimum bounding rectangle of a non-empty object set.

    Raises
    ------
    GeometryError
        If ``objects`` is empty.
    """
    if not objects:
        raise GeometryError("cannot bound an empty object set")
    return Rect.bounding([o.point for o in objects])


def normalize_to_domain(
    objects: Sequence[WeightedPoint],
    domain: Rect,
) -> List[WeightedPoint]:
    """Rescale object locations so they exactly span ``domain``.

    The paper normalizes the coordinates of the real datasets to
    ``[0, 1,000,000]`` in each dimension; this helper performs the same
    normalization for arbitrary datasets.  Weights are preserved.  A dataset
    that is degenerate in one dimension (all points share a coordinate) is
    mapped to the middle of that dimension of the domain.
    """
    if not objects:
        return []
    src = bounding_rect(objects)
    out: List[WeightedPoint] = []
    for o in objects:
        if src.width > 0:
            nx = domain.x1 + (o.x - src.x1) / src.width * domain.width
        else:
            nx = domain.center.x
        if src.height > 0:
            ny = domain.y1 + (o.y - src.y1) / src.height * domain.height
        else:
            ny = domain.center.y
        out.append(WeightedPoint(nx, ny, o.weight))
    return out
