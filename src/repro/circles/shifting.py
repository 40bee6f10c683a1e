"""Shifted candidate points of ApproxMaxCRS (Figure 9 of the paper).

After ExactMaxRS (run on the ``d x d`` MBRs of the transformed circles)
returns the centre ``p0`` of its max-region, ApproxMaxCRS evaluates four
additional candidate centres ``p1 .. p4`` obtained by shifting ``p0``
diagonally by a distance ``sigma``.  Lemma 5 requires

    (sqrt(2) - 1) * d/2  <  sigma  <  d/2

so that the four circles of diameter ``d`` centred at the shifted points
jointly cover the whole MBR ``r0`` -- the property that yields the
(1/4)-approximation guarantee (Theorem 3).

The default shift distance used here is ``sigma = sqrt(2) * d / 4``, which
places the shifted points exactly at the centres of the four quadrants of
``r0`` and sits strictly inside the admissible range.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ConfigurationError
from repro.geometry import Point, is_positive_finite

__all__ = [
    "default_shift_distance",
    "shift_distance_bounds",
    "shifted_points",
    "candidate_points",
]


def shift_distance_bounds(diameter: float) -> tuple[float, float]:
    """Return the open interval of admissible shift distances for ``diameter``."""
    if not is_positive_finite(diameter):
        raise ConfigurationError(
            f"diameter must be positive and finite, got {diameter}")
    return ((math.sqrt(2.0) - 1.0) * diameter / 2.0, diameter / 2.0)


def default_shift_distance(diameter: float) -> float:
    """The library's default shift distance ``sigma = sqrt(2) d / 4``.

    This value puts the shifted points at the quadrant centres of the MBR and
    always satisfies Lemma 5's bounds.
    """
    lower, upper = shift_distance_bounds(diameter)
    sigma = math.sqrt(2.0) * diameter / 4.0
    # Guard against floating rounding at the extremes (cannot happen for the
    # analytic value, but keeps the invariant explicit).
    return min(max(sigma, math.nextafter(lower, upper)), math.nextafter(upper, lower))


def shifted_points(p0: Point, diameter: float, sigma: float | None = None) -> List[Point]:
    """Return the four diagonally shifted candidate points ``p1 .. p4``.

    Parameters
    ----------
    p0:
        The centre of the max-region returned by ExactMaxRS on the MBRs.
    diameter:
        The circle diameter ``d`` of the MaxCRS instance.
    sigma:
        Shift distance; defaults to :func:`default_shift_distance`.  Values
        outside Lemma 5's open interval raise
        :class:`~repro.errors.ConfigurationError`, because the approximation
        guarantee would no longer hold.
    """
    lower, upper = shift_distance_bounds(diameter)
    if sigma is None:
        sigma = default_shift_distance(diameter)
    if not lower < sigma < upper:
        raise ConfigurationError(
            f"shift distance {sigma} outside the admissible interval "
            f"({lower}, {upper}) for diameter {diameter}"
        )
    step = sigma / math.sqrt(2.0)
    return [
        Point(p0.x + step, p0.y + step),
        Point(p0.x + step, p0.y - step),
        Point(p0.x - step, p0.y - step),
        Point(p0.x - step, p0.y + step),
    ]


def candidate_points(p0: Point, diameter: float, sigma: float | None = None) -> List[Point]:
    """Return all five ApproxMaxCRS candidates: ``p0`` followed by ``p1 .. p4``."""
    return [p0, *shifted_points(p0, diameter, sigma)]
