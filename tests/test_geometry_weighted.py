"""Unit tests for :mod:`repro.geometry.weighted`."""

import math

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    Circle,
    Point,
    Rect,
    WeightedPoint,
    bounding_rect,
    total_weight,
    weight_in_circle,
    weight_in_rect,
)
from repro.geometry.weighted import normalize_to_domain


class TestWeightedPoint:
    def test_default_weight_is_one(self):
        assert WeightedPoint(1.0, 2.0).weight == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(GeometryError):
            WeightedPoint(0.0, 0.0, -1.0)

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    def test_infinite_and_nan_weights_rejected(self, weight):
        # An infinite weight crashed the numpy sweeps, or turned their sums
        # into NaN: solve_in_memory([WeightedPoint(0, 0, inf)], 1, 1) raised
        # ValueError.
        with pytest.raises(GeometryError):
            WeightedPoint(0.0, 0.0, weight)

    def test_nan_coordinates_rejected(self):
        with pytest.raises(GeometryError):
            WeightedPoint(math.nan, 0.0)

    def test_point_property(self):
        assert WeightedPoint(3.0, 4.0, 2.0).point == Point(3.0, 4.0)

    def test_with_weight(self):
        o = WeightedPoint(1.0, 1.0, 1.0).with_weight(5.0)
        assert o.weight == 5.0 and o.x == 1.0

    def test_zero_weight_allowed(self):
        assert WeightedPoint(0.0, 0.0, 0.0).weight == 0.0


class TestAggregates:
    def test_total_weight(self):
        objs = [WeightedPoint(0, 0, 1.0), WeightedPoint(1, 1, 2.5)]
        assert total_weight(objs) == pytest.approx(3.5)

    def test_total_weight_empty(self):
        assert total_weight([]) == 0.0

    def test_weight_in_rect_open_semantics(self):
        rect = Rect(0.0, 0.0, 2.0, 2.0)
        inside = WeightedPoint(1.0, 1.0, 3.0)
        on_edge = WeightedPoint(0.0, 1.0, 100.0)
        outside = WeightedPoint(5.0, 5.0, 7.0)
        assert weight_in_rect([inside, on_edge, outside], rect) == pytest.approx(3.0)

    def test_weight_in_circle_open_semantics(self):
        circle = Circle(Point(0.0, 0.0), diameter=2.0)
        inside = WeightedPoint(0.1, 0.1, 2.0)
        on_boundary = WeightedPoint(1.0, 0.0, 50.0)
        assert weight_in_circle([inside, on_boundary], circle) == pytest.approx(2.0)

    def test_bounding_rect(self):
        objs = [WeightedPoint(1.0, 5.0), WeightedPoint(-2.0, 3.0), WeightedPoint(0.0, 9.0)]
        assert bounding_rect(objs) == Rect(-2.0, 3.0, 1.0, 9.0)

    def test_bounding_rect_empty_rejected(self):
        with pytest.raises(GeometryError):
            bounding_rect([])


class TestNormalization:
    def test_normalize_spans_domain(self):
        objs = [WeightedPoint(10.0, 10.0), WeightedPoint(20.0, 30.0)]
        domain = Rect(0.0, 0.0, 100.0, 100.0)
        normalized = normalize_to_domain(objs, domain)
        box = bounding_rect(normalized)
        assert box.x1 == pytest.approx(0.0) and box.x2 == pytest.approx(100.0)
        assert box.y1 == pytest.approx(0.0) and box.y2 == pytest.approx(100.0)

    def test_normalize_preserves_weights(self):
        objs = [WeightedPoint(1.0, 2.0, 7.0), WeightedPoint(5.0, 9.0, 3.0)]
        normalized = normalize_to_domain(objs, Rect(0.0, 0.0, 10.0, 10.0))
        assert [o.weight for o in normalized] == [7.0, 3.0]

    def test_normalize_degenerate_dimension(self):
        objs = [WeightedPoint(5.0, 1.0), WeightedPoint(5.0, 2.0)]
        normalized = normalize_to_domain(objs, Rect(0.0, 0.0, 10.0, 10.0))
        assert all(o.x == pytest.approx(5.0) for o in normalized)

    def test_normalize_empty(self):
        assert normalize_to_domain([], Rect(0.0, 0.0, 1.0, 1.0)) == []
