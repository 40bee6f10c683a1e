"""Unit tests for :mod:`repro.circles.coverage`."""

import math
import random
import warnings

import pytest

import record_passes
from external_cases import pool_state
from repro.circles import best_candidate, coverage_of_candidates, \
    coverage_of_candidates_file
from repro.core.transform import write_objects_file
from repro.em import EMConfig, EMContext
from repro.errors import ConfigurationError
from repro.geometry import Circle, Point, WeightedPoint, weight_in_circle


class TestCoverageOfCandidates:
    def test_matches_weight_in_circle(self, make_objects):
        objs = make_objects(60, seed=3, extent=30.0)
        candidates = [Point(5.0, 5.0), Point(20.0, 20.0), Point(100.0, 100.0)]
        weights = coverage_of_candidates(objs, candidates, diameter=8.0)
        for candidate, weight in zip(candidates, weights):
            assert weight == pytest.approx(
                weight_in_circle(objs, Circle(candidate, 8.0)))

    def test_empty_objects(self):
        assert coverage_of_candidates([], [Point(0, 0)], 2.0) == [0.0]

    def test_boundary_objects_excluded(self):
        objs = [WeightedPoint(1.0, 0.0, 5.0)]
        weights = coverage_of_candidates(objs, [Point(0.0, 0.0)], diameter=2.0)
        assert weights == [0.0]

    def test_invalid_diameter_rejected(self):
        with pytest.raises(ConfigurationError):
            coverage_of_candidates([], [Point(0, 0)], 0.0)

    def test_file_variant_matches_in_memory(self, tiny_ctx, make_objects):
        objs = make_objects(80, seed=4, extent=40.0)
        objects_file = write_objects_file(tiny_ctx, objs)
        candidates = [Point(10.0, 10.0), Point(30.0, 5.0)]
        from_file = coverage_of_candidates_file(objects_file, candidates, 9.0)
        in_memory = coverage_of_candidates(objs, candidates, 9.0)
        assert from_file == pytest.approx(in_memory)

    def test_file_variant_costs_one_linear_scan(self, tiny_ctx, make_objects):
        objs = make_objects(200, seed=5)
        objects_file = write_objects_file(tiny_ctx, objs)
        tiny_ctx.clear_cache()
        tiny_ctx.reset_io()
        coverage_of_candidates_file(objects_file, [Point(0, 0)] * 5, 4.0)
        assert tiny_ctx.stats.block_reads == objects_file.num_blocks


class TestBlockArrayScan:
    """The block-array scan against the record-at-a-time reference."""

    @staticmethod
    def _scan(ctx, scan, objects_file, candidates, diameter):
        """Totals, and the counter deltas and resident blocks ``scan``
        leaves, from a pool holding the file's first blocks."""
        ctx.clear_cache()
        for index in range(3):
            objects_file.read_block_array(index)
        before = pool_state(ctx)
        totals = scan(objects_file, candidates, diameter)
        after = pool_state(ctx)
        return totals, [b - a for a, b in zip(before[:3], after[:3])], \
            after[3]

    def test_totals_and_pool_state_match_the_record_loop(self):
        # Non-dyadic weights and dense coverage: the totals are long sums
        # whose bits depend on the order of the additions.
        ctx = EMContext(EMConfig(block_size=512, buffer_size=8 * 512))
        rng = random.Random(12)
        objs = [WeightedPoint(rng.uniform(0, 10), rng.uniform(0, 10),
                              rng.uniform(0, 3)) for _ in range(400)]
        objs[7] = WeightedPoint(5.0, 2.0, 1.0)   # on the boundary of (5, 5)
        objects_file = write_objects_file(ctx, objs)
        candidates = [Point(5.0, 5.0), Point(0.0, 0.0), Point(2.5, 7.5),
                      Point(50.0, 50.0), Point(5.0, 5.0)]
        arrays = self._scan(ctx, coverage_of_candidates_file, objects_file,
                            candidates, 6.0)
        records = self._scan(ctx, record_passes.coverage_of_candidates_file,
                             objects_file, candidates, 6.0)
        assert arrays == records
        totals, (reads, _, hits), _ = arrays
        assert reads == objects_file.num_blocks - 3 and hits == 3
        assert totals[3] == 0.0 and totals[0] == totals[4] > 0.0

    def test_extreme_coordinates_match_quietly(self, tiny_ctx):
        # Infinite and 1e300 coordinates (objects and a candidate) give the
        # record loop NaN and inf distances without a word; the block scan
        # must agree and stay as quiet.
        objs = [WeightedPoint(x, y, 1.0) for x, y in (
            (1e300, 0.0), (-1e300, 0.0), (math.inf, 1.0), (0.0, 0.0),
            (0.5, -math.inf), (0.25, 0.25))]
        objects_file = write_objects_file(tiny_ctx, objs)
        candidates = [Point(0.0, 0.0), Point(math.inf, 1.0),
                      Point(1e300, 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = coverage_of_candidates_file(objects_file, candidates,
                                                 2.0)
        records = record_passes.coverage_of_candidates_file(
            objects_file, candidates, 2.0)
        assert arrays == records == [2.0, 0.0, 1.0]


class TestBestCandidate:
    def test_picks_maximum(self):
        candidates = [Point(0, 0), Point(1, 1), Point(2, 2)]
        point, weight, index = best_candidate(candidates, [1.0, 5.0, 3.0])
        assert point == Point(1, 1) and weight == 5.0 and index == 1

    def test_ties_prefer_earliest(self):
        candidates = [Point(0, 0), Point(1, 1)]
        point, _, index = best_candidate(candidates, [4.0, 4.0])
        assert point == Point(0, 0) and index == 0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            best_candidate([Point(0, 0)], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            best_candidate([], [])
