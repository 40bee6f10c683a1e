"""Geometric primitives shared by every subsystem of the reproduction.

This package deliberately contains *only* plain value objects and pure
functions -- no I/O and no algorithmic state -- so that the external-memory
algorithms in :mod:`repro.core`, the baselines in :mod:`repro.baselines`, and
the circle algorithms in :mod:`repro.circles` can all build on the same small
vocabulary:

* :class:`~repro.geometry.point.Point` -- a 2-D location.
* :class:`~repro.geometry.interval.Interval` -- a closed 1-D interval, possibly
  with infinite endpoints (slab extents, max-interval x-ranges).
* :class:`~repro.geometry.rect.Rect` -- an axis-aligned rectangle (query
  rectangles and the dual rectangles of the problem transformation).
* :class:`~repro.geometry.circle.Circle` -- a circle of fixed diameter
  (the MaxCRS query region).
* :class:`~repro.geometry.weighted.WeightedPoint` -- an input object with a
  non-negative weight.
* :func:`is_positive_finite` -- the one validity rule for query sizes
  (widths, heights, diameters).
"""

import math

from repro.geometry.circle import Circle
from repro.geometry.interval import Interval
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.weighted import (
    WeightedPoint,
    bounding_rect,
    normalize_to_domain,
    total_weight,
    weight_in_circle,
    weight_in_rect,
)

__all__ = [
    "Circle",
    "Interval",
    "Point",
    "Rect",
    "WeightedPoint",
    "bounding_rect",
    "is_positive_finite",
    "normalize_to_domain",
    "total_weight",
    "weight_in_circle",
    "weight_in_rect",
]


def is_positive_finite(*sizes: float) -> bool:
    """Whether every one of ``sizes`` satisfies ``0 < size < inf``.

    The one validity rule for query extents: every entry point that takes
    a width, height or diameter checks it with this.  A plain
    ``size <= 0`` test lets NaN through (every comparison with NaN is
    false), and a NaN or infinite size makes the sweeps answer nonsense or
    never finish.
    """
    return all(0 < size < math.inf for size in sizes)
