"""Tests for the grid pre-aggregation index (:mod:`repro.service.grid_index`).

The load-bearing property is *safe pruning*: the per-cell window sum must
upper-bound the weight achievable by any placement centred in that cell, and
the candidate mask derived from any achievable lower bound must retain every
optimal placement.  Both are exercised against brute-force evaluation.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.plane_sweep import solve_in_memory
from repro.errors import ConfigurationError
from repro.geometry import Point, Rect, WeightedPoint, weight_in_rect
from repro.service.grid_index import GridIndex


def _columns(objects):
    xs = np.array([o.x for o in objects], dtype=np.float64)
    ys = np.array([o.y for o in objects], dtype=np.float64)
    ws = np.array([o.weight for o in objects], dtype=np.float64)
    return xs, ys, ws


def _make_grid(objects, **kwargs):
    return GridIndex(*_columns(objects), **kwargs)


@pytest.fixture
def clustered_objects(make_objects):
    """A hot spot plus sparse background: the pruning-friendly shape."""
    hot = [WeightedPoint(50.0 + (i % 7) * 0.5, 50.0 + (i // 7) * 0.5, 2.0)
           for i in range(35)]
    background = make_objects(200, seed=11, extent=2000.0)
    return hot + background


class TestConstruction:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            GridIndex(np.array([]), np.array([]), np.array([]))

    def test_invalid_resolution_rejected(self, make_objects):
        xs, ys, ws = _columns(make_objects(10))
        with pytest.raises(ConfigurationError):
            GridIndex(xs, ys, ws, target_points_per_cell=0)

    def test_single_point(self):
        grid = _make_grid([WeightedPoint(3.0, 4.0, 2.5)])
        assert grid.n_rows == grid.n_cols == 1
        assert grid.cell_weights[0, 0] == 2.5
        assert list(grid.points_in_mask(np.ones((1, 1), dtype=bool))) == [0]

    def test_degenerate_axis_collapses_to_one_cell(self):
        objects = [WeightedPoint(float(i), 7.0, 1.0) for i in range(50)]
        grid = _make_grid(objects)
        assert grid.n_rows == 1            # no vertical extent
        assert grid.n_cols > 1
        assert grid.cell_weights.sum() == pytest.approx(50.0)

    def test_cell_aggregates_are_conservative(self, make_objects):
        objects = make_objects(200, seed=3)
        grid = _make_grid(objects)
        assert grid.cell_counts.sum() == 200
        assert grid.cell_weights.sum() == pytest.approx(
            sum(o.weight for o in objects))
        # Every point is binned into exactly the cells the counts describe.
        assert np.array_equal(
            np.bincount(grid.point_cell, minlength=grid.n_rows * grid.n_cols),
            grid.cell_counts.ravel())

    def test_resolution_cap(self, make_objects):
        objects = make_objects(400, seed=5)
        grid = _make_grid(objects, target_points_per_cell=1, max_cells_per_side=4)
        assert grid.n_rows <= 4 and grid.n_cols <= 4


class TestUpperBounds:
    def test_window_sum_is_true_upper_bound(self, make_objects):
        """ub[cell(p)] >= achieved weight for arbitrary placements p."""
        objects = make_objects(150, seed=7, extent=100.0)
        grid = _make_grid(objects)
        rng = np.random.default_rng(0)
        for width, height in ((5.0, 5.0), (20.0, 8.0), (60.0, 60.0), (300.0, 300.0)):
            bounds = grid.upper_bounds(width, height)
            for _ in range(50):
                x = rng.uniform(-20.0, 120.0)
                y = rng.uniform(-20.0, 120.0)
                achieved = weight_in_rect(
                    objects, Rect.centered_at(Point(x, y), width, height))
                row, col = grid.cell_of(x, y)
                assert bounds[row, col] >= achieved - 1e-9

    def test_upper_bound_bounds_the_optimum(self, make_objects):
        objects = make_objects(120, seed=9)
        grid = _make_grid(objects)
        for width, height in ((4.0, 4.0), (15.0, 30.0)):
            best = solve_in_memory(objects, width, height)
            _, _, top = grid.best_cell(width, height)
            assert top >= best.total_weight - 1e-9

    def test_invalid_query_extent_rejected(self, make_objects):
        grid = _make_grid(make_objects(10))
        with pytest.raises(ConfigurationError):
            grid.upper_bounds(0.0, 1.0)


class TestPruning:
    def test_candidate_mask_keeps_all_optimal_cells(self, clustered_objects):
        grid = _make_grid(clustered_objects)
        width = height = 6.0
        best = solve_in_memory(clustered_objects, width, height)
        mask = grid.candidate_mask(width, height, best.total_weight)
        # The optimum is achieved in the hot spot; its cell must survive.
        row, col = grid.cell_of(best.location.x, best.location.y)
        assert mask[row, col]

    def test_pruned_subset_preserves_the_exact_optimum(self, clustered_objects):
        grid = _make_grid(clustered_objects)
        width = height = 6.0
        full = solve_in_memory(clustered_objects, width, height)
        mask = grid.candidate_mask(width, height, full.total_weight)
        indices = grid.points_in_mask(grid.dilate(mask, width, height))
        subset = [clustered_objects[i] for i in indices]
        pruned = solve_in_memory(subset, width, height)
        assert pruned.total_weight == full.total_weight

    def test_pruning_actually_prunes_clustered_data(self, clustered_objects):
        grid = _make_grid(clustered_objects)
        width = height = 6.0
        best = solve_in_memory(clustered_objects, width, height)
        mask = grid.candidate_mask(width, height, best.total_weight)
        indices = grid.points_in_mask(grid.dilate(mask, width, height))
        assert len(indices) < len(clustered_objects) / 2

    def test_zero_lower_bound_keeps_everything(self, make_objects):
        objects = make_objects(50, seed=13)
        grid = _make_grid(objects)
        mask = grid.candidate_mask(5.0, 5.0, 0.0)
        indices = grid.points_in_mask(grid.dilate(mask, 5.0, 5.0))
        assert len(indices) == 50


class TestPointRetrieval:
    def test_points_in_window_cover_reachable_points(self, make_objects):
        objects = make_objects(100, seed=15, extent=50.0)
        grid = _make_grid(objects)
        width, height = 8.0, 12.0
        for row, col in ((0, 0), (grid.n_rows // 2, grid.n_cols // 2)):
            indices = set(grid.points_in_window(row, col, width, height))
            # Every point strictly coverable from the cell's nominal extent
            # must be in the window.
            x_lo = grid.x0 + col * grid.cell_w
            y_lo = grid.y0 + row * grid.cell_h
            for i, o in enumerate(objects):
                if (x_lo - width / 2 < o.x < x_lo + grid.cell_w + width / 2
                        and y_lo - height / 2 < o.y < y_lo + grid.cell_h + height / 2):
                    assert i in indices

    def test_points_in_mask_matches_assignment(self, make_objects):
        objects = make_objects(80, seed=17)
        grid = _make_grid(objects)
        total = 0
        for row in range(grid.n_rows):
            for col in range(grid.n_cols):
                mask = np.zeros((grid.n_rows, grid.n_cols), dtype=bool)
                mask[row, col] = True
                indices = grid.points_in_mask(mask)
                total += len(indices)
                for i in indices:
                    assert grid.point_cell[i] == row * grid.n_cols + col
        assert total == 80

    def test_stats(self, make_objects):
        grid = _make_grid(make_objects(64, seed=19))
        stats = grid.stats()
        assert stats["points"] == 64
        assert stats["rows"] == grid.n_rows and stats["cols"] == grid.n_cols
        assert 0 < stats["occupied_cells"] <= grid.n_rows * grid.n_cols
