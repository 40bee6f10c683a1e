"""Exact MaxCRS solver (the paper's accuracy yardstick).

Figure 17 of the paper reports the ratio ``W(c_hat) / W(c*)`` between the
weight found by ApproxMaxCRS and the true optimum.  The authors obtained
``W(c*)`` from "a theoretical algorithm [Drezner 1981] that has time
complexity O(n^2 log n) (and therefore, is not practical)".  This module
implements the same classical algorithm -- the angular sweep over circle
intersections (Chazelle & Lee / Drezner) -- as one vectorised numpy pass
over every circle.  It is the resident engine's exact MaxCRS solver as well
as the approximation-quality yardstick.

Algorithm sketch (equal radii ``r = d/2``):

* In the transformed problem each object carries an open disk of radius ``r``;
  the optimum is a point of maximum total disk weight.
* A point of maximum depth can be chosen either at the centre of some disk or
  arbitrarily close to an intersection point of two disk boundaries.
* For every object ``i`` the algorithm sweeps the boundary circle of its disk:
  every other object ``j`` within distance ``< 2r`` covers an angular arc of
  that circle; the maximum total weight over all arcs (plus ``w_i`` itself,
  since points just inside the boundary are covered by disk ``i``, and the
  weight of every other object on ``i``'s centre, whose disk is disk ``i``)
  is the best depth attainable on that circle.  Together with the
  disk-centre candidates this yields the global optimum.

The pass over all circles has three parts:

1. **Neighbour pairs from a grid hash.**  Objects are binned into square
   cells wider than ``d`` (with margin for the rounding of the binning), so
   every object within ``d`` of object ``i`` lies in the 3x3 cells around
   ``i``'s cell.  Those cells give each object its candidate neighbours;
   the per-circle predicates decide membership: ``np.hypot(dx, dy) < d``
   for an arc, ``dx**2 + dy**2 < r*r`` for the disk-centre weight.
2. **Every arc at once.**  Disk-centre weights are one ``bincount`` over the
   pairs.  Each neighbour's arc becomes two angle entries (four when it
   wraps past ``2*pi``), all circles' entries are sorted once, stably, by
   (circle, angle), and one cumulative sum gives every circle's running
   weight, read at the last entry of each equal-angle group.
3. **Blocks under a pair budget.**  Circles are processed in blocks of at
   most ``_PAIR_BUDGET`` candidate pairs, so memory stays bounded when
   every object is within ``d`` of every other.

With ``P`` pairs of objects closer than ``d``, the cost is
``O(n + P log P)`` time.  ``P`` is ``n^2`` when every point is within ``d``
of every other, so dense inputs are still quadratic.  Ties are resolved as
the classical per-circle loop does (disk centres first, then circles, in
input order; within a circle the first best arc in angle order), so
answers equal that loop's -- bit for bit when the weight sums are exactly
representable, as with integer weights.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry import Point, WeightedPoint, is_positive_finite

__all__ = ["exact_maxcrs"]

#: Most candidate pairs (a circle and one object in the 3x3 cells around
#: it) that one block of circles expands at once.  It keeps a block's
#: working memory to tens of MB however dense the input; only a circle
#: with more candidates than this makes a larger block, of its own.
_PAIR_BUDGET = 1 << 17

_TWO_PI = 2.0 * math.pi


def exact_maxcrs(objects: Sequence[WeightedPoint],
                 diameter: float) -> Tuple[Point, float]:
    """Return an optimal circle centre and the optimal covered weight.

    Parameters
    ----------
    objects:
        The weighted input objects.
    diameter:
        The circle diameter ``d``.

    Returns
    -------
    (centre, weight):
        ``centre`` is a point whose circle of ``diameter`` covers (up to
        boundary-degenerate ties) the maximum possible weight ``weight``.

    Raises
    ------
    ConfigurationError
        If ``diameter`` is not positive and finite.

    Notes
    -----
    Cost is ``O(n + P log P)`` for ``P`` pairs of objects closer than
    ``diameter``: near-linear on sparse inputs, and still
    ``Θ(n^2 log n)`` when every object is within ``diameter`` of every
    other.
    """
    if not is_positive_finite(diameter):
        raise ConfigurationError(
            f"diameter must be positive and finite, got {diameter}")
    count = len(objects)
    if count == 0:
        return Point(0.0, 0.0), 0.0

    xs = np.array([o.x for o in objects], dtype=np.float64)
    ys = np.array([o.y for o in objects], dtype=np.float64)
    ws = np.array([o.weight for o in objects], dtype=np.float64)
    radius = diameter / 2.0

    centre_weight = np.zeros(count)
    # A circle without an arc keeps its own weight and that of the objects
    # on its centre, and its centre (no angle).
    circle_weight = ws.copy()
    circle_angle = np.full(count, np.nan)
    circle_half_width = np.full(count, math.pi)
    for owners, slot, neighbours in _candidate_blocks(xs, ys, diameter):
        (centre_weight[owners], coincident, swept, extra, angle,
         half_width) = _sweep_block(owners, slot, neighbours, xs, ys, ws,
                                    radius)
        circle_weight[owners] += coincident
        swept = owners[swept]
        circle_weight[swept] += extra
        circle_angle[swept] = angle
        circle_half_width[swept] = half_width

    # The first maximum over centres then circles, in input order: the
    # loop's strict ``>`` scan.
    best = int(np.argmax(np.concatenate((centre_weight, circle_weight))))
    if best < count:
        return Point(float(xs[best]), float(ys[best])), float(
            centre_weight[best])
    i = best - count
    centre = Point(float(xs[i]), float(ys[i]))
    angle = float(circle_angle[i])
    if math.isnan(angle):
        return centre, float(circle_weight[i])
    # Just inside the circle, on the mid radius of the winning arc segment:
    # strictly inside disk ``i`` and every disk covering that segment.  The
    # point sits 1e-9 of the radius in, or at the segment's chord midpoint
    # where that is closer to the circle: the covering disks hold the
    # whole chord, and the lens of two disks almost ``d`` apart is thinner
    # than the fixed nudge.
    nudge = radius * max(1.0 - 1e-9, math.cos(float(circle_half_width[i])))
    return (Point(centre.x + nudge * math.cos(angle),
                  centre.y + nudge * math.sin(angle)),
            float(circle_weight[i]))


def _candidate_blocks(xs: np.ndarray, ys: np.ndarray, diameter: float):
    """Yield candidate pairs in blocks of whole circles.

    Every object ``j`` within ``diameter`` of object ``i`` (``i`` itself
    included) appears as a pair ``(i, j)``, along with the other objects of
    the 3x3 grid cells around ``i``.  A block is ``(owners, slot,
    neighbours)``: its circles' object indices, and per pair the position
    of its circle in ``owners`` (pairs grouped by circle) and the index of
    its neighbour.  A block holds at most ``_PAIR_BUDGET`` pairs unless one
    circle alone has more.

    Objects with an infinite coordinate are left out: the per-circle
    predicates put nothing within ``diameter`` of them, not even
    themselves.
    """
    ids = np.flatnonzero(np.isfinite(xs) & np.isfinite(ys))
    if len(ids) == 0:
        return
    fx, fy = xs[ids], ys[ids]
    # ``x / cell`` rounds by at most ``|x| / cell * 2**-53`` cells.  With
    # ``|x| / cell`` below 2**30 that is far less than the 2**-16 margin
    # the cell has over ``diameter``, so a pair within ``diameter`` always
    # lands in adjacent cells; keys then fit 31 bits per axis.
    reach = max(float(np.abs(fx).max()), float(np.abs(fy).max()))
    cell = max(diameter, reach * 2.0 ** -30) * (1.0 + 2.0 ** -16)
    kx = np.floor(fx / cell).astype(np.int64)
    ky = np.floor(fy / cell).astype(np.int64)
    kx -= kx.min() - 1  # one free cell on every side
    ky -= ky.min() - 1
    stride = int(ky.max()) + 2
    key = kx * stride + ky

    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    members = ids[order]
    cell_first = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
    cell_key = sorted_key[cell_first]
    cell_size = np.diff(np.r_[cell_first, len(members)])
    cell_of = np.repeat(np.arange(len(cell_key)), cell_size)

    # Each cell's 3x3 neighbourhood as (first member, member count) ranges.
    offsets = (np.arange(-1, 2)[:, None] * stride
               + np.arange(-1, 2)[None, :]).ravel()
    around = cell_key[:, None] + offsets[None, :]
    slot = np.minimum(np.searchsorted(cell_key, around), len(cell_key) - 1)
    present = cell_key[slot] == around
    range_first = np.where(present, cell_first[slot], 0)
    range_size = np.where(present, cell_size[slot], 0)
    candidates = range_size.sum(axis=1)[cell_of]

    total = np.cumsum(candidates)
    start = 0
    while start < len(members):
        done = int(total[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(total, done + _PAIR_BUDGET,
                                                  side="right")))
        block = cell_of[start:stop]
        sizes = range_size[block].ravel()
        shift = np.repeat(range_first[block].ravel() - (np.cumsum(sizes)
                                                        - sizes), sizes)
        neighbours = members[np.arange(len(shift)) + shift]
        slot = np.repeat(np.arange(stop - start), candidates[start:stop])
        yield members[start:stop], slot, neighbours
        start = stop


def _sweep_block(owners: np.ndarray, slot: np.ndarray,
                 neighbours: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                 ws: np.ndarray, radius: float):
    """Score the disk centres and sweep the circles of one block.

    The block is one :func:`_candidate_blocks` item.  Returns
    ``(centre, coincident, swept, extra, angle, half_width)``: the weight
    within ``radius`` of each owner's centre, the weight of the other
    objects on it, and :func:`_best_arcs` over the block's arcs.  An object
    on circle ``i``'s centre has no arc: its disk is disk ``i``, so it
    covers all of circle ``i`` as object ``i`` does.
    """
    circles = owners[slot]
    dx = xs[neighbours] - xs[circles]
    dy = ys[neighbours] - ys[circles]
    inside = dx ** 2 + dy ** 2 < radius * radius
    centre = np.bincount(slot[inside], weights=ws[neighbours[inside]],
                         minlength=len(owners))

    dist = np.hypot(dx, dy)
    on_centre = (dist == 0.0) & (neighbours != circles)
    coincident = np.bincount(slot[on_centre],
                             weights=ws[neighbours[on_centre]],
                             minlength=len(owners))
    arc = (dist > 0.0) & (dist < 2.0 * radius)
    theta = np.arctan2(dy[arc], dx[arc])
    half_angle = np.arccos(np.clip(dist[arc] / (2.0 * radius), -1.0, 1.0))
    return (centre, coincident) + _best_arcs(slot[arc],
                                  (theta - half_angle) % _TWO_PI,
                                  (theta + half_angle) % _TWO_PI,
                                  ws[neighbours[arc]])


def _best_arcs(slot: np.ndarray, start: np.ndarray, end: np.ndarray,
               weight: np.ndarray):
    """The angular sweep of every circle at once.

    Arc ``k`` covers the angles from ``start[k]`` to ``end[k]`` (both in
    ``[0, 2*pi)``, wrapping past ``2*pi`` when ``start > end``) of circle
    ``slot[k]`` with ``weight[k]``; arcs are grouped by circle.  Returns
    ``(swept, extra, angle, half_width)``: the circles with an arc, each
    one's best covered weight (``0.0`` when none is positive), and the
    midpoint angle and half-width of the first arc segment reaching it
    (``0.0`` and ``pi``, the whole circle, then).
    """
    if len(slot) == 0:
        return slot, start, start, start
    # Entries per arc: (start, +w), (end, -w); an arc past 2*pi splits into
    # (start, +w), (2*pi, -w), (0, +w), (end, -w).
    wraps = start > end
    size = 2 + 2 * wraps
    first = np.cumsum(size) - size
    angles = np.empty(int(first[-1] + size[-1]))
    deltas = np.empty(len(angles))
    angles[first] = start
    deltas[first] = weight
    angles[first + size - 1] = end
    deltas[first + size - 1] = -weight
    split = first[wraps]
    angles[split + 1] = _TWO_PI
    deltas[split + 1] = -weight[wraps]
    angles[split + 2] = 0.0
    deltas[split + 2] = weight[wraps]
    owner = np.repeat(slot, size)

    order = np.lexsort((angles, owner))
    angles = angles[order]
    owner = owner[order]
    running = np.cumsum(deltas[order])
    # Restart the running sum at 0.0 on every circle.
    same_circle = owner[1:] == owner[:-1]
    circle_first = np.flatnonzero(np.r_[True, ~same_circle])
    carried = np.r_[0.0, running[circle_first[1:] - 1]]
    running -= np.repeat(carried, np.diff(np.r_[circle_first, len(owner)]))

    # Each equal-angle group is read at its last entry; its arc segment
    # runs to the next group's angle (for a circle's last group, whose
    # running sum is back to zero, to its own angle plus 2*pi).
    group_last = np.flatnonzero(np.r_[(angles[1:] != angles[:-1])
                                      | ~same_circle, True])
    value = np.where(running[group_last] > 0.0, running[group_last], 0.0)
    following = np.r_[angles[1:], 0.0][group_last]
    circle_last = ~np.r_[same_circle, False][group_last]
    following[circle_last] = angles[group_last[circle_last]] + _TWO_PI
    midpoint = (angles[group_last] + following) / 2.0

    # Per circle, the first group reaching its largest positive value.
    group_owner = owner[group_last]
    new_circle = np.r_[True, group_owner[1:] != group_owner[:-1]]
    top = np.maximum.reduceat(value, np.flatnonzero(new_circle))
    circle_of_group = np.cumsum(new_circle) - 1
    winner = np.flatnonzero((value > 0.0) & (value == top[circle_of_group]))
    winner = winner[np.diff(circle_of_group[winner], prepend=-1) != 0]
    angle = np.zeros(len(top))
    angle[circle_of_group[winner]] = midpoint[winner]
    half_width = np.full(len(top), math.pi)
    half_width[circle_of_group[winner]] = (
        following[winner] - angles[group_last[winner]]) / 2.0
    return group_owner[new_circle], top, angle, half_width
