"""Unit tests for :mod:`repro.circles.approx_maxcrs` (Algorithm 3)."""

import random

import pytest

from repro.circles import ApproxMaxCRS, exact_maxcrs
from repro.em import EMConfig, EMContext
from repro.errors import ConfigurationError
from repro.geometry import Circle, WeightedPoint, weight_in_circle


def _solver(ctx, diameter, **kwargs):
    return ApproxMaxCRS(ctx, diameter, memory_records=32, fanout=3, **kwargs)


class TestConfiguration:
    def test_invalid_diameter_rejected(self, tiny_ctx):
        with pytest.raises(ConfigurationError):
            ApproxMaxCRS(tiny_ctx, 0.0)

    def test_invalid_sigma_rejected_at_solve_time(self, tiny_ctx):
        solver = ApproxMaxCRS(tiny_ctx, 2.0, sigma=5.0)
        with pytest.raises(ConfigurationError):
            solver.solve([WeightedPoint(0, 0)])


class TestCorrectness:
    def test_empty_dataset(self, tiny_ctx):
        result = _solver(tiny_ctx, 2.0).solve([])
        assert result.total_weight == 0.0

    def test_single_object_found_exactly(self, tiny_ctx):
        result = _solver(tiny_ctx, 2.0).solve([WeightedPoint(5.0, 5.0, 3.0)])
        assert result.total_weight == 3.0

    def test_reported_weight_is_achievable(self, tiny_ctx, make_objects):
        objs = make_objects(60, seed=1, extent=40.0)
        result = _solver(tiny_ctx, 6.0).solve(objs)
        achieved = weight_in_circle(objs, Circle(result.location, 6.0))
        assert achieved == pytest.approx(result.total_weight)

    def test_five_candidates_evaluated(self, tiny_ctx, make_objects):
        result = _solver(tiny_ctx, 5.0).solve(make_objects(30, seed=2))
        assert len(result.candidates) == 5
        assert len(result.candidate_weights) == 5
        assert result.total_weight == max(result.candidate_weights)

    def test_rectangle_result_attached(self, tiny_ctx, make_objects):
        result = _solver(tiny_ctx, 5.0).solve(make_objects(30, seed=3))
        assert result.rectangle_result is not None
        # The MBR optimum always upper-bounds the circle answer.
        assert result.rectangle_result.total_weight >= result.total_weight - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_quarter_approximation_bound(self, seed):
        """Theorem 3: the returned weight is at least W(c*) / 4."""
        rng = random.Random(seed)
        objs = [WeightedPoint(rng.uniform(0, 30), rng.uniform(0, 30),
                              rng.choice([1.0, 2.0]))
                for _ in range(rng.randint(5, 60))]
        diameter = rng.uniform(2, 10)
        ctx = EMContext(EMConfig(block_size=512, buffer_size=4096))
        approx = _solver(ctx, diameter).solve(objs)
        _, optimum = exact_maxcrs(objs, diameter)
        assert approx.total_weight >= optimum / 4.0 - 1e-9
        assert approx.total_weight <= optimum + 1e-9

    def test_io_accounted(self, tiny_ctx, make_objects):
        result = _solver(tiny_ctx, 4.0).solve(make_objects(120, seed=4))
        assert result.io is not None
        assert result.io.total > 0

    def test_custom_sigma_within_bounds_accepted(self, tiny_ctx, make_objects):
        diameter = 4.0
        sigma = 0.45 * diameter   # inside ((sqrt(2)-1)/2 d, d/2)
        result = ApproxMaxCRS(tiny_ctx, diameter, sigma=sigma,
                              memory_records=32, fanout=3).solve(make_objects(20, seed=5))
        assert result.total_weight > 0.0
