"""Brute-force oracles used to validate every solver on small instances.

These are deliberately simple, obviously-correct (and slow) reference
implementations.  For MaxRS, an open ``w x h`` rectangle centred at ``(cx,
cy)`` covers object ``o`` exactly when ``cx`` lies strictly between
``o.x - w/2`` and ``o.x + w/2`` (likewise in y).  Which objects are covered
therefore changes only at those boundary values: between two consecutive
distinct x-boundaries the covered x-set is constant, and at a boundary it is
a subset of either side's.  Testing the midpoint of every pair of
consecutive distinct x-boundaries against every such y-midpoint --
``O(N^2)`` candidate centres -- thus meets every coverage class, with no
nudge constant to get wrong.  An optimal circle can be centred at an object
or arbitrarily close to an intersection point of two object-centred circles.

The oracles evaluate the objective by scanning all objects per candidate, so
they are ``O(N^3)``; tests only use them with a few dozen objects.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.geometry import (
    Circle,
    Point,
    Rect,
    WeightedPoint,
    weight_in_circle,
    weight_in_rect,
)

__all__ = ["brute_force_maxrs", "brute_force_maxcrs"]


def _cell_midpoints(coords: Sequence[float], extent: float) -> List[float]:
    """Midpoints between consecutive distinct values of ``{c +- extent/2}``:
    one candidate centre coordinate inside every open elementary interval."""
    half = extent / 2.0
    edges = sorted({c - half for c in coords} | {c + half for c in coords})
    return [(lo + hi) / 2.0 for lo, hi in zip(edges, edges[1:])] or edges


def brute_force_maxrs(objects: Sequence[WeightedPoint], width: float,
                      height: float) -> Tuple[Point, float]:
    """Return an optimal centre and the optimal weight for a MaxRS instance.

    Complexity ``O(N^3)``; intended for test instances only.
    """
    if not objects:
        return Point(0.0, 0.0), 0.0
    xs = _cell_midpoints([o.x for o in objects], width)
    ys = _cell_midpoints([o.y for o in objects], height)
    best_point = Point(xs[0], ys[0])
    best_weight = -1.0
    for cx in xs:
        for cy in ys:
            candidate = Point(cx, cy)
            rect = Rect.centered_at(candidate, width, height)
            weight = weight_in_rect(objects, rect)
            if weight > best_weight:
                best_weight = weight
                best_point = candidate
    return best_point, best_weight


def brute_force_maxcrs(objects: Sequence[WeightedPoint],
                       diameter: float) -> Tuple[Point, float]:
    """Return an optimal centre and the optimal weight for a MaxCRS instance.

    Candidates are the object locations themselves plus points just inside the
    pairwise intersections of the object-centred circles (both intersection
    points of every pair, each nudged towards both generating centres).
    Complexity ``O(N^3)``; intended for test instances only.
    """
    if not objects:
        return Point(0.0, 0.0), 0.0
    radius = diameter / 2.0
    candidates: List[Point] = [o.point for o in objects]
    count = len(objects)
    for i in range(count):
        for j in range(i + 1, count):
            candidates.extend(
                _circle_intersections(objects[i].point, objects[j].point, radius))
    best_point = candidates[0]
    best_weight = -1.0
    for candidate in candidates:
        weight = weight_in_circle(objects, Circle(candidate, diameter))
        if weight > best_weight:
            best_weight = weight
            best_point = candidate
    return best_point, best_weight


def _circle_intersections(a: Point, b: Point, radius: float) -> List[Point]:
    """Intersection points of two radius-``radius`` circles, nudged inward.

    The nudge moves each intersection point slightly towards the midpoint of
    the two centres, so boundary-exclusion (open disks) does not discard the
    candidate.
    """
    dist = a.distance_to(b)
    if dist == 0.0 or dist > 2.0 * radius:
        return []
    mid = a.midpoint(b)
    half = dist / 2.0
    offset = math.sqrt(max(0.0, radius * radius - half * half))
    # Unit vector perpendicular to a->b.
    ux = -(b.y - a.y) / dist
    uy = (b.x - a.x) / dist
    points = [
        Point(mid.x + ux * offset, mid.y + uy * offset),
        Point(mid.x - ux * offset, mid.y - uy * offset),
    ]
    nudged = []
    for p in points:
        nudged.append(Point(p.x + (mid.x - p.x) * 1e-9, p.y + (mid.y - p.y) * 1e-9))
    return nudged
