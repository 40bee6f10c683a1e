"""Unit tests for :mod:`repro.circles.shifting` and Lemma 5's covering property."""

import math

import pytest

from repro.circles import (
    candidate_points,
    default_shift_distance,
    shift_distance_bounds,
    shifted_points,
)
from repro.errors import ConfigurationError
from repro.geometry import Circle, Point, Rect


class TestShiftDistance:
    def test_bounds(self):
        lower, upper = shift_distance_bounds(2.0)
        assert lower == pytest.approx((math.sqrt(2.0) - 1.0))
        assert upper == pytest.approx(1.0)

    def test_bounds_reject_bad_diameter(self):
        with pytest.raises(ConfigurationError):
            shift_distance_bounds(0.0)

    def test_default_inside_bounds(self):
        for diameter in (0.5, 1.0, 10.0, 1000.0):
            lower, upper = shift_distance_bounds(diameter)
            assert lower < default_shift_distance(diameter) < upper

    def test_default_is_quadrant_centre_distance(self):
        assert default_shift_distance(4.0) == pytest.approx(math.sqrt(2.0))


class TestShiftedPoints:
    def test_four_points_at_distance_sigma(self):
        p0 = Point(10.0, 20.0)
        sigma = default_shift_distance(4.0)
        points = shifted_points(p0, 4.0, sigma)
        assert len(points) == 4
        for p in points:
            assert p0.distance_to(p) == pytest.approx(sigma)

    def test_points_are_diagonal(self):
        points = shifted_points(Point(0.0, 0.0), 4.0)
        quadrants = {(p.x > 0, p.y > 0) for p in points}
        assert len(quadrants) == 4

    def test_sigma_outside_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            shifted_points(Point(0, 0), 2.0, sigma=1.0)     # == d/2
        with pytest.raises(ConfigurationError):
            shifted_points(Point(0, 0), 2.0, sigma=0.2)     # < (sqrt(2)-1) d/2

    def test_candidate_points_include_p0_first(self):
        candidates = candidate_points(Point(1.0, 2.0), 3.0)
        assert len(candidates) == 5
        assert candidates[0] == Point(1.0, 2.0)


class TestLemma5CoveringProperty:
    """The four shifted circles must jointly cover the d x d MBR (Lemma 5)."""

    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.5, 0.7, 0.95])
    @pytest.mark.parametrize("diameter", [1.0, 2.0, 1000.0])
    def test_union_of_shifted_circles_covers_mbr(self, diameter, fraction):
        lower, upper = shift_distance_bounds(diameter)
        sigma = lower + (upper - lower) * fraction
        p0 = Point(0.0, 0.0)
        circles = [Circle(p, diameter) for p in shifted_points(p0, diameter, sigma)]
        mbr = Rect.centered_at(p0, diameter, diameter)
        # Sample a dense grid of the MBR (slightly shrunk to stay strictly
        # inside) and check every sample is covered by some circle.
        steps = 21
        for i in range(steps):
            for j in range(steps):
                x = mbr.x1 + (i + 0.5) / steps * mbr.width
                y = mbr.y1 + (j + 0.5) / steps * mbr.height
                point = Point(x, y)
                assert any(c.covers_point_closed(point) for c in circles), (sigma, point)
