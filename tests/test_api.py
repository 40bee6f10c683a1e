"""Tests for the high-level API (:mod:`repro.api`) and package exports."""

import pytest

import repro
from repro import MaxCRSSolver, MaxRSSolver
from repro.em import EMConfig
from repro.errors import ConfigurationError
from repro.geometry import Circle, Rect, WeightedPoint, weight_in_circle, weight_in_rect


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_lazy_solver_exports(self):
        assert repro.MaxRSSolver is MaxRSSolver
        assert repro.MaxCRSSolver is MaxCRSSolver

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.DoesNotExist  # noqa: B018

    def test_core_types_exported(self):
        assert repro.ExactMaxRS is not None
        assert repro.EMContext is not None
        assert repro.WeightedPoint is WeightedPoint


class TestMaxRSSolver:
    def test_invalid_rectangle_rejected(self):
        with pytest.raises(ConfigurationError):
            MaxRSSolver(width=0.0, height=1.0)

    def test_small_input_uses_in_memory_path(self, make_objects):
        solver = MaxRSSolver(width=10.0, height=10.0)
        result = solver.solve(make_objects(50, seed=1))
        assert result.io is None          # in-memory fast path
        assert result.total_weight > 0

    def test_force_external(self, make_objects):
        solver = MaxRSSolver(width=10.0, height=10.0,
                             config=EMConfig(block_size=512, buffer_size=1024),
                             force_external=True)
        result = solver.solve(make_objects(100, seed=2))
        assert result.io is not None
        assert result.io.total > 0

    def test_external_and_in_memory_agree(self, make_objects):
        objs = make_objects(120, seed=3, extent=60.0)
        fast = MaxRSSolver(width=8.0, height=8.0).solve(objs)
        external = MaxRSSolver(width=8.0, height=8.0,
                               config=EMConfig(block_size=512, buffer_size=2048),
                               force_external=True).solve(objs)
        assert fast.total_weight == pytest.approx(external.total_weight)

    def test_reported_location_is_achievable(self, make_objects):
        objs = make_objects(80, seed=4)
        result = MaxRSSolver(width=12.0, height=5.0).solve(objs)
        achieved = weight_in_rect(objs, Rect.centered_at(result.location, 12.0, 5.0))
        assert achieved == pytest.approx(result.total_weight)

    def test_solve_top_k(self, make_objects):
        objs = make_objects(60, seed=5)
        solver = MaxRSSolver(width=5.0, height=5.0,
                             config=EMConfig(block_size=512, buffer_size=2048))
        results = solver.solve_top_k(objs, k=2)
        assert 1 <= len(results) <= 2
        weights = [r.total_weight for r in results]
        assert weights == sorted(weights, reverse=True)

    def test_solve_top_k_rejects_non_positive_k(self, make_objects):
        solver = MaxRSSolver(width=5.0, height=5.0)
        for k in (0, -3):
            with pytest.raises(ConfigurationError):
                solver.solve_top_k(make_objects(10, seed=5), k)

    def test_solve_top_k_small_input_uses_in_memory_path(self, make_objects):
        solver = MaxRSSolver(width=5.0, height=5.0)
        results = solver.solve_top_k(make_objects(50, seed=5), k=2)
        assert all(r.io is None for r in results)   # in-memory fast path

    def test_solve_top_k_respects_force_external(self, make_objects):
        solver = MaxRSSolver(width=5.0, height=5.0,
                             config=EMConfig(block_size=512, buffer_size=2048),
                             force_external=True)
        results = solver.solve_top_k(make_objects(20, seed=5), k=2)
        assert all(r.io is not None and r.io.total > 0 for r in results)

    def test_solve_top_k_paths_agree(self, make_objects):
        objs = make_objects(60, seed=5)
        fast = MaxRSSolver(width=5.0, height=5.0).solve_top_k(objs, k=3)
        external = MaxRSSolver(width=5.0, height=5.0,
                               config=EMConfig(block_size=512, buffer_size=2048),
                               force_external=True).solve_top_k(objs, k=3)
        assert [r.total_weight for r in fast] == pytest.approx(
            [r.total_weight for r in external])


class TestFromSnapshot:
    def _persist(self, tmp_path, objects):
        import numpy as np

        from repro.persist import SnapshotStore

        store = SnapshotStore(tmp_path)
        store.save_dataset(
            "demo",
            np.array([o.x for o in objects]),
            np.array([o.y for o in objects]),
            np.array([o.weight for o in objects]),
        )

    def test_solves_over_loaded_snapshot(self, tmp_path, make_objects):
        objects = make_objects(50, seed=8)
        self._persist(tmp_path, objects)
        solver = MaxRSSolver.from_snapshot(tmp_path, "demo",
                                           width=5.0, height=5.0)
        from_snapshot = solver.solve()
        direct = MaxRSSolver(width=5.0, height=5.0).solve(objects)
        assert from_snapshot.total_weight == direct.total_weight
        assert from_snapshot.region == direct.region
        # Explicit objects still take precedence over the loaded snapshot.
        subset = solver.solve(objects[:5])
        assert subset.total_weight <= from_snapshot.total_weight

    def test_solve_top_k_over_loaded_snapshot(self, tmp_path, make_objects):
        objects = make_objects(50, seed=9)
        self._persist(tmp_path, objects)
        solver = MaxRSSolver.from_snapshot(tmp_path, "demo",
                                           width=5.0, height=5.0)
        assert [r.total_weight for r in solver.solve_top_k(k=2)] == \
               [r.total_weight
                for r in MaxRSSolver(width=5.0, height=5.0).solve_top_k(objects, k=2)]

    def test_solver_config_is_independent_of_snapshot_block_size(
            self, tmp_path, make_objects):
        """A non-default *solver* EM config must not reject a 4 KB snapshot."""
        objects = make_objects(30, seed=10)
        self._persist(tmp_path, objects)
        solver = MaxRSSolver.from_snapshot(
            tmp_path, "demo", width=5.0, height=5.0,
            config=EMConfig(block_size=512, buffer_size=2048))
        direct = MaxRSSolver(width=5.0, height=5.0).solve(objects)
        assert solver.solve().total_weight == direct.total_weight

    def test_unknown_dataset_rejected(self, tmp_path):
        from repro.errors import PersistError
        from repro.persist import SnapshotStore

        SnapshotStore(tmp_path)  # an empty store
        with pytest.raises(PersistError):
            MaxRSSolver.from_snapshot(tmp_path, "ghost", width=1.0, height=1.0)

    def test_solve_without_objects_or_snapshot_rejected(self):
        with pytest.raises(ConfigurationError, match="no point set"):
            MaxRSSolver(width=1.0, height=1.0).solve()

    def test_positional_k_mistake_is_caught_early(self, tmp_path, make_objects):
        """solve_top_k(3) on a preloaded solver must not bind 3 to objects."""
        self._persist(tmp_path, make_objects(20, seed=11))
        solver = MaxRSSolver.from_snapshot(tmp_path, "demo",
                                           width=5.0, height=5.0)
        with pytest.raises(ConfigurationError, match="k by keyword"):
            solver.solve_top_k(3)

    def test_solve_accepts_non_sequence_iterables(self, make_objects):
        """Arbitrary len()-able iterables (e.g. numpy object arrays) still work."""
        import numpy as np

        objects = make_objects(20, seed=12)
        array = np.empty(len(objects), dtype=object)
        array[:] = objects
        direct = MaxRSSolver(width=5.0, height=5.0).solve(objects)
        assert MaxRSSolver(width=5.0, height=5.0).solve(array).total_weight \
            == direct.total_weight

    def test_read_path_does_not_create_directories(self, tmp_path):
        from repro.errors import PersistError

        missing = tmp_path / "typo" / "snapshots"
        with pytest.raises(PersistError):
            MaxRSSolver.from_snapshot(missing, "ds", width=1.0, height=1.0)
        assert not missing.exists()


class TestMaxCRSSolver:
    def test_invalid_diameter_rejected(self):
        with pytest.raises(ConfigurationError):
            MaxCRSSolver(diameter=-2.0)

    def test_solution_is_achievable(self, make_objects):
        objs = make_objects(70, seed=6, extent=50.0)
        result = MaxCRSSolver(diameter=7.0).solve(objs)
        achieved = weight_in_circle(objs, Circle(result.location, 7.0))
        assert achieved == pytest.approx(result.total_weight)

    def test_solve_with_ratio_bounds(self, make_objects):
        objs = make_objects(60, seed=7, extent=30.0)
        result, ratio = MaxCRSSolver(diameter=6.0).solve_with_ratio(objs)
        assert 0.25 - 1e-9 <= ratio <= 1.0
        assert result.total_weight > 0

    def test_empty_dataset_ratio_is_one(self):
        result, ratio = MaxCRSSolver(diameter=3.0).solve_with_ratio([])
        assert ratio == 1.0
        assert result.total_weight == 0.0

    def test_empty_dataset_short_circuits_exact_solver(self, monkeypatch):
        import repro.api as api_module

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("exact_maxcrs must not run for empty input")

        monkeypatch.setattr(api_module, "exact_maxcrs", _boom)
        _, ratio = MaxCRSSolver(diameter=3.0).solve_with_ratio([])
        assert ratio == 1.0

    def test_single_point_ratio_is_one(self):
        result, ratio = MaxCRSSolver(diameter=4.0).solve_with_ratio(
            [WeightedPoint(10.0, 10.0, weight=2.5)])
        assert ratio == 1.0
        assert result.total_weight == 2.5
