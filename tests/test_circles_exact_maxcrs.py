"""Unit tests for :mod:`repro.circles.exact_maxcrs`.

The solver sweeps every circle in one vectorised pass.  The classical
per-circle loop it replaced is kept below, verbatim, as the reference: with
integer weights the two must agree bit for bit, and with float weights (whose
sums the pass may add in another order) within ``1e-9`` relative.
"""

import importlib
import math
import random
import tracemalloc
import warnings
from typing import Sequence, Tuple

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_maxcrs
from repro.circles import exact_maxcrs
from repro.errors import ConfigurationError
from repro.geometry import Circle, Point, WeightedPoint, weight_in_circle

# ``repro.circles`` re-exports the function under the module's name.
solver = importlib.import_module("repro.circles.exact_maxcrs")


# ---------------------------------------------------------------------- #
# Reference: the per-circle loop (one O(n) numpy pass per circle)
# ---------------------------------------------------------------------- #
def _loop_exact_maxcrs(objects: Sequence[WeightedPoint],
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

    Notes
    -----
    Complexity is ``Θ(n^2 log n)`` -- use it for validation-sized inputs (a
    few thousand objects), as the paper itself did.
    """
    if diameter <= 0:
        raise ConfigurationError(f"diameter must be positive, got {diameter}")
    count = len(objects)
    if count == 0:
        return Point(0.0, 0.0), 0.0

    xs = np.array([o.x for o in objects], dtype=np.float64)
    ys = np.array([o.y for o in objects], dtype=np.float64)
    ws = np.array([o.weight for o in objects], dtype=np.float64)
    radius = diameter / 2.0

    best_weight, best_point = _best_at_centres(xs, ys, ws, radius)

    for i in range(count):
        weight_i, point_i = _sweep_circle(i, xs, ys, ws, radius)
        if weight_i > best_weight:
            best_weight = weight_i
            best_point = point_i

    return best_point, best_weight


def _best_at_centres(xs: np.ndarray, ys: np.ndarray, ws: np.ndarray,
                     radius: float) -> Tuple[float, Point]:
    """Evaluate every object location as a candidate centre (vectorised)."""
    best_weight = -math.inf
    best_point = Point(float(xs[0]), float(ys[0]))
    radius_sq = radius * radius
    for i in range(len(xs)):
        dist_sq = (xs - xs[i]) ** 2 + (ys - ys[i]) ** 2
        weight = float(ws[dist_sq < radius_sq].sum())
        if weight > best_weight:
            best_weight = weight
            best_point = Point(float(xs[i]), float(ys[i]))
    return best_weight, best_point


def _sweep_circle(i: int, xs: np.ndarray, ys: np.ndarray, ws: np.ndarray,
                  radius: float) -> Tuple[float, Point]:
    """Angular sweep over the boundary circle of disk ``i``.

    Returns the best attainable weight just inside that circle and a point
    achieving it (nudged towards the centre so it lies strictly inside disk
    ``i`` and strictly inside every disk covering the winning arc).
    """
    dx = xs - xs[i]
    dy = ys - ys[i]
    dist = np.hypot(dx, dy)
    neighbour = (dist > 0.0) & (dist < 2.0 * radius)
    # Objects on centre i cover all of circle i, as object i does.
    coincident = dist == 0.0
    coincident[i] = False
    base = float(ws[i]) + float(ws[coincident].sum())
    centre = Point(float(xs[i]), float(ys[i]))
    if not neighbour.any():
        return base, centre

    theta = np.arctan2(dy[neighbour], dx[neighbour])
    half_angle = np.arccos(np.clip(dist[neighbour] / (2.0 * radius), -1.0, 1.0))
    weights = ws[neighbour]

    starts = theta - half_angle
    ends = theta + half_angle

    # Unroll arcs onto [0, 2*pi) with wrap-around split.
    angles = []
    deltas = []
    for start, end, weight in zip(starts, ends, weights):
        start = float(start) % (2.0 * math.pi)
        end = float(end) % (2.0 * math.pi)
        if start <= end:
            angles.extend((start, end))
            deltas.extend((weight, -weight))
        else:
            angles.extend((start, 2.0 * math.pi, 0.0, end))
            deltas.extend((weight, -weight, weight, -weight))

    order = np.argsort(np.array(angles), kind="stable")
    sorted_angles = np.array(angles)[order]
    sorted_deltas = np.array(deltas)[order]

    best_extra = 0.0
    best_angle = 0.0
    best_half = math.pi   # no segment: the whole circle
    running = 0.0
    index = 0
    total = len(sorted_angles)
    while index < total:
        angle = sorted_angles[index]
        while index < total and sorted_angles[index] == angle:
            running += sorted_deltas[index]
            index += 1
        if running > best_extra:
            best_extra = running
            # Midpoint of the winning arc segment keeps the point strictly
            # inside the covering disks (rather than on their boundary).
            next_angle = sorted_angles[index] if index < total else angle + 2.0 * math.pi
            best_angle = (angle + next_angle) / 2.0
            best_half = (next_angle - angle) / 2.0

    # 1e-9 of the radius inside, or the segment's chord midpoint where that
    # is closer to the circle (the lens of two disks almost d apart).
    nudge = radius * max(1.0 - 1e-9, math.cos(best_half))
    point = Point(centre.x + nudge * math.cos(best_angle),
                  centre.y + nudge * math.sin(best_angle))
    return base + float(best_extra), point


class TestBasics:
    def test_empty(self):
        _, weight = exact_maxcrs([], 2.0)
        assert weight == 0.0

    def test_single_object(self):
        point, weight = exact_maxcrs([WeightedPoint(3.0, 4.0, 2.0)], 2.0)
        assert weight == 2.0

    def test_invalid_diameter_rejected(self):
        with pytest.raises(ConfigurationError):
            exact_maxcrs([], -1.0)

    def test_colocated_objects(self):
        objs = [WeightedPoint(5.0, 5.0)] * 6
        _, weight = exact_maxcrs(objs, 1.0)
        assert weight == 6.0

    def test_two_nearby_objects(self):
        objs = [WeightedPoint(0.0, 0.0), WeightedPoint(0.9, 0.0)]
        _, weight = exact_maxcrs(objs, 1.0)
        assert weight == 2.0

    def test_two_distant_objects(self):
        objs = [WeightedPoint(0.0, 0.0), WeightedPoint(10.0, 0.0)]
        _, weight = exact_maxcrs(objs, 1.0)
        assert weight == 1.0

    def test_weights_respected(self):
        objs = [WeightedPoint(0.0, 0.0, 10.0),
                WeightedPoint(5.0, 5.0, 1.0), WeightedPoint(5.2, 5.2, 1.0)]
        _, weight = exact_maxcrs(objs, 1.0)
        assert weight == 10.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        objs = [WeightedPoint(rng.uniform(0, 20), rng.uniform(0, 20),
                              rng.choice([1.0, 2.0]))
                for _ in range(rng.randint(2, 45))]
        diameter = rng.uniform(2, 8)
        _, expected = brute_force_maxcrs(objs, diameter)
        _, weight = exact_maxcrs(objs, diameter)
        assert weight == pytest.approx(expected)

    def test_reported_point_nearly_achieves_weight(self):
        rng = random.Random(7)
        objs = [WeightedPoint(rng.uniform(0, 15), rng.uniform(0, 15))
                for _ in range(40)]
        point, weight = exact_maxcrs(objs, 5.0)
        achieved = weight_in_circle(objs, Circle(point, 5.0))
        # The returned point is nudged strictly inside the winning arrangement
        # cell, so it should achieve the optimum exactly (up to degenerate ties).
        assert achieved >= weight - 1.0
        assert achieved <= weight + 1e-9


    def test_point_inside_a_thin_lens(self):
        # Two disks 1 - 5.8e-11 apart, diameter 1: they overlap in a lens
        # 5.8e-11 thick, thinner than a 1e-9 nudge off the arc.  The
        # reported centre is the lens's middle and covers both.
        objs = [WeightedPoint(0.0, 1.0, 0.5),
                WeightedPoint(0.0, 5.758634883943028e-11, 0.5)]
        point, weight = exact_maxcrs(objs, 1.0)
        assert weight == 1.0
        assert weight_in_circle(objs, Circle(point, 1.0)) == 1.0
        assert (point, weight) == _loop_exact_maxcrs(objs, 1.0)


class TestMonotonicity:
    def test_weight_non_decreasing_in_diameter(self, make_objects):
        objs = make_objects(50, seed=8, extent=30.0)
        weights = [exact_maxcrs(objs, d)[1] for d in (2.0, 4.0, 8.0, 16.0, 64.0)]
        assert weights == sorted(weights)

    def test_huge_diameter_covers_everything(self, make_objects):
        objs = make_objects(25, seed=9, extent=10.0)
        _, weight = exact_maxcrs(objs, 1000.0)
        assert weight == pytest.approx(sum(o.weight for o in objs))


# ---------------------------------------------------------------------- #
# The vectorised pass against the per-circle loop
# ---------------------------------------------------------------------- #
_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# Half-unit lattice coordinates make coincident points, pairs exactly ``d``
# apart and equal arc angles common; free floats cover the general case.
_coordinates = st.one_of(st.integers(-8, 8).map(lambda v: v / 2.0),
                         st.floats(-10.0, 10.0, allow_nan=False))
_diameters = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 2.5, 4.0]),
                       st.floats(0.1, 12.0))


@_SETTINGS
@given(points=st.lists(st.tuples(_coordinates, _coordinates,
                                 st.integers(0, 4)), max_size=40),
       diameter=_diameters)
def test_integer_weights_match_loop_bit_for_bit(points, diameter):
    objects = [WeightedPoint(x, y, float(w)) for x, y, w in points]
    assert _bits(exact_maxcrs(objects, diameter)) == \
        _bits(_loop_exact_maxcrs(objects, diameter))


def _bits(answer):
    centre, weight = answer
    return centre.x.hex(), centre.y.hex(), weight.hex()


@_SETTINGS
@given(points=st.lists(st.tuples(_coordinates, _coordinates,
                                 st.floats(0.0, 10.0)), max_size=40),
       diameter=_diameters)
def test_float_weights_match_loop_within_rounding(points, diameter):
    objects = [WeightedPoint(x, y, w) for x, y, w in points]
    _, weight = exact_maxcrs(objects, diameter)
    _, expected = _loop_exact_maxcrs(objects, diameter)
    assert abs(weight - expected) <= 1e-9 * max(1.0, abs(expected))


@pytest.fixture
def spy(monkeypatch):
    """Record every block the solver cuts and every arc set it sweeps."""
    seen = {"blocks": [], "arcs": []}
    cut, sweep = solver._candidate_blocks, solver._best_arcs

    def blocks(*args):
        for block in cut(*args):
            seen["blocks"].append(block)
            yield block

    def best_arcs(slot, start, end, weight):
        swept, extra, angle, half_width = sweep(slot, start, end, weight)
        owners = seen["blocks"][-1][0]
        seen["arcs"].append({"circle": owners[slot], "start": start,
                             "end": end, "swept": owners[swept]})
        return swept, extra, angle, half_width

    monkeypatch.setattr(solver, "_candidate_blocks", blocks)
    monkeypatch.setattr(solver, "_best_arcs", best_arcs)
    return seen


def _arcs(seen, key):
    return np.concatenate([arcs[key] for arcs in seen["arcs"]])


class TestPinnedBranches:
    """Inputs that each reach one branch of the pass, checked to reach it."""

    def test_coincident_points_count_as_centre_without_arc(self, spy):
        objects = [WeightedPoint(1.0, 1.0, 2.0), WeightedPoint(1.0, 1.0, 3.0),
                   WeightedPoint(5.0, 5.0, 1.0)]
        answer = exact_maxcrs(objects, 1.0)
        assert len(_arcs(spy, "circle")) == 0
        assert answer == (Point(1.0, 1.0), 5.0)
        assert answer == _loop_exact_maxcrs(objects, 1.0)

    @pytest.mark.parametrize("weight", [0.5, 1.0])
    def test_coincident_points_add_to_each_others_circles(self, spy, weight):
        # Two pairs of coincident points 2 apart, d = 3: a circle through
        # both centres covers all four, but only from a circle's arcs (no
        # disk centre holds the other pair).  Each circle's coincident
        # twin must count, as its own point does.
        objects = [WeightedPoint(x, 0.0, weight)
                   for x in (0.0, 0.0, 2.0, 2.0)]
        point, total = exact_maxcrs(objects, 3.0)
        assert len(_arcs(spy, "circle")) > 0
        assert total == 4 * weight == brute_force_maxcrs(objects, 3.0)[1]
        assert weight_in_circle(objects, Circle(point, 3.0)) == total
        assert (point, total) == _loop_exact_maxcrs(objects, 3.0)

    def test_pair_exactly_d_apart_is_tangent_without_arc(self, spy):
        objects = [WeightedPoint(0.0, 0.0), WeightedPoint(2.0, 0.0)]
        assert math.hypot(2.0, 0.0) == 2.0
        answer = exact_maxcrs(objects, 2.0)
        assert len(_arcs(spy, "circle")) == 0
        assert answer[1] == 1.0
        assert answer == _loop_exact_maxcrs(objects, 2.0)

    def test_arc_wrapping_past_two_pi(self, spy):
        # Seen from (0, 0), the neighbour at (1, 0) covers [-pi/3, pi/3].
        objects = [WeightedPoint(0.0, 0.0), WeightedPoint(1.0, 0.0, 2.0)]
        answer = exact_maxcrs(objects, 2.0)
        circle, start, end = (_arcs(spy, key)
                              for key in ("circle", "start", "end"))
        assert (start[circle == 0] > end[circle == 0]).all()
        assert answer[1] == 3.0
        assert answer == _loop_exact_maxcrs(objects, 2.0)

    def test_several_arcs_opening_at_one_angle(self, spy):
        objects = [WeightedPoint(0.0, 0.0)] + \
            [WeightedPoint(0.6, 0.8)] * 3 + [WeightedPoint(-1.5, 0.1, 2.0)]
        answer = exact_maxcrs(objects, 2.0)
        circle, start = _arcs(spy, "circle"), _arcs(spy, "start")
        opening = start[circle == 0]
        assert len(opening) > len(np.unique(opening))
        assert answer == _loop_exact_maxcrs(objects, 2.0)

    def test_point_without_neighbour(self, spy):
        objects = [WeightedPoint(0.0, 0.0, 5.0), WeightedPoint(10.0, 10.0),
                   WeightedPoint(10.5, 10.0)]
        answer = exact_maxcrs(objects, 1.5)
        assert 0 not in _arcs(spy, "swept")
        assert answer == (Point(0.0, 0.0), 5.0)
        assert answer == _loop_exact_maxcrs(objects, 1.5)

    def test_point_at_infinity_has_no_neighbour_not_even_itself(self, spy):
        # The loop's predicates are NaN there, so its own disk centre scores
        # 0 and its bare circle (weight 5, no nudge) wins.
        objects = [WeightedPoint(math.inf, 0.0, 5.0), WeightedPoint(0.0, 0.0)]
        answer = exact_maxcrs(objects, 1.0)
        assert all(0 not in block[0] for block in spy["blocks"])
        assert answer == (Point(math.inf, 0.0), 5.0)
        with np.errstate(invalid="ignore"):  # the loop's inf - inf
            assert answer == _loop_exact_maxcrs(objects, 1.0)

    def test_coordinates_far_beyond_the_diameter(self):
        # 1e300 diameters from the origin: the cells widen until |x| / cell
        # is below 2**30, so cell keys fit int64 (a cast that overflowed
        # would warn) and the pair 5e-101 apart still shares a cell.
        objects = [WeightedPoint(0.0, 0.0), WeightedPoint(5e-101, 0.0),
                   WeightedPoint(1e200, -1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            answer = exact_maxcrs(objects, 1e-100)
        assert answer[1] == 2.0
        with np.errstate(over="ignore"):  # the loop squares 1e200
            assert answer == _loop_exact_maxcrs(objects, 1e-100)

    def test_running_sum_restarts_at_zero_on_every_circle(self):
        # Circle 0's sums round (1e17 + 3 == 1e17) and end at -3, not 0.
        # Circle 1 must still start from 0.0: its two unit arcs overlap on
        # (1.5, 2.0), worth exactly 2.
        swept, extra, angle, half_width = solver._best_arcs(
            np.array([0, 0, 1, 1]), np.array([0.1, 0.2, 1.0, 1.5]),
            np.array([0.5, 0.6, 2.0, 2.5]), np.array([1e17, 3.0, 1.0, 1.0]))
        assert list(swept) == [0, 1]
        assert extra[1] == 2.0 and angle[1] == (1.5 + 2.0) / 2.0
        assert half_width[1] == (2.0 - 1.5) / 2.0
        assert extra[0] == 1e17 and angle[0] == (0.1 + 0.2) / 2.0

    def test_block_boundary_inside_the_input(self, spy, monkeypatch):
        monkeypatch.setattr(solver, "_PAIR_BUDGET", 100)
        rng = random.Random(11)
        objects = [WeightedPoint(rng.uniform(0, 6), rng.uniform(0, 6),
                                 float(rng.randint(1, 3)))
                   for _ in range(60)]
        answer = exact_maxcrs(objects, 2.0)
        blocks = spy["blocks"]
        assert len(blocks) > 1
        assert any(len(owners) > 1 for owners, _, _ in blocks)
        owners = np.concatenate([owners for owners, _, _ in blocks])
        assert sorted(owners) == list(range(len(objects)))
        assert answer == _loop_exact_maxcrs(objects, 2.0)


def test_dense_input_is_bounded_and_matches_loop():
    # Every point within d of every other: n^2 pairs, cut into blocks.
    rng = random.Random(5)
    objects = []
    while len(objects) < 1000:
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        if x * x + y * y < 0.99:
            objects.append(WeightedPoint(x, y, float(rng.randint(1, 3))))
    tracemalloc.start()
    try:
        answer = exact_maxcrs(objects, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2 ** 20
    assert answer == _loop_exact_maxcrs(objects, 2.0)
