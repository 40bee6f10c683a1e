"""Tests for the resident query engine (:mod:`repro.service.engine`).

The central contract: refined (default) engine answers are **identical** --
same weight, same max-region -- to running the in-memory exact solver on the
full dataset, for every dataset and query size.  A hypothesis property test
asserts exactly that; the example-based tests cover the serving behaviours
around it (caching, batching and its thread-pool contract, dataset
lifecycle, configuration, statistics, the store).
"""

import math
import os
import random
import threading
import time

import pytest

np = pytest.importorskip("numpy")  # the engine's grid index is numpy-backed

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.aio import protocol
from repro.api import solve_many
from repro.circles.exact_maxcrs import exact_maxcrs
from repro.core.dispatch import solve_point_set_top_k
from repro.core.plane_sweep import solve_in_memory
from repro.core.result import MaxCRSResult, MaxRSResult
from repro.errors import ConfigurationError, ServiceError
from repro.geometry import Circle, WeightedPoint, weight_in_circle
from repro.service import MaxRSEngine, PointStore, QuerySpec

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

coordinates = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                        allow_infinity=False)
weights = st.sampled_from([0.5, 1.0, 2.0, 3.0])
objects_strategy = st.lists(
    st.builds(WeightedPoint, coordinates, coordinates, weights),
    min_size=0, max_size=40,
)
query_sizes = st.floats(min_value=0.5, max_value=30.0, allow_nan=False,
                        allow_infinity=False)


# ---------------------------------------------------------------------- #
# The exactness property: grid-pruned refined answers == solve_in_memory
# ---------------------------------------------------------------------- #
@_SETTINGS
@given(objects=objects_strategy, width=query_sizes, height=query_sizes)
def test_refined_engine_answer_equals_solve_in_memory(objects, width, height):
    engine = MaxRSEngine()
    dataset = engine.register_dataset(objects)
    result = engine.query(dataset, QuerySpec.maxrs(width, height))
    reference = solve_in_memory(objects, width, height)
    assert result.total_weight == reference.total_weight
    assert result.region == reference.region
    assert result.location == reference.location


@_SETTINGS
@given(objects=objects_strategy, width=query_sizes, height=query_sizes)
def test_approximate_answer_is_an_achievable_lower_bound(objects, width, height):
    engine = MaxRSEngine()
    dataset = engine.register_dataset(objects)
    approx = engine.query(dataset, QuerySpec.maxrs(width, height, refine=False))
    exact = solve_in_memory(objects, width, height)
    assert approx.total_weight <= exact.total_weight + 1e-9


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(objects=st.lists(st.builds(WeightedPoint, coordinates, coordinates, weights),
                        min_size=1, max_size=25),
       diameter=st.floats(min_value=1.0, max_value=25.0, allow_nan=False))
def test_refined_maxcrs_matches_exact_solver(objects, diameter):
    engine = MaxRSEngine()
    dataset = engine.register_dataset(objects)
    result = engine.query(dataset, QuerySpec.maxcrs(diameter))
    _, optimum = exact_maxcrs(objects, diameter)
    assert result.total_weight == pytest.approx(optimum, abs=1e-9)
    achieved = weight_in_circle(objects, Circle(result.location, diameter))
    assert achieved == pytest.approx(result.total_weight, abs=1e-9)


# ---------------------------------------------------------------------- #
# One pipeline for both shapes: the bounded fall-through and the unpruned
# refine answer like the exact path and the reference solvers
# ---------------------------------------------------------------------- #
def _shape_spec(kind, size, **kwargs):
    if kind == "maxrs":
        return QuerySpec.maxrs(size, 0.75 * size, **kwargs)
    return QuerySpec.maxcrs(size, **kwargs)


def _refines(engine):
    return (engine.metrics.counter("refine_pruned")
            + engine.metrics.counter("refine_unpruned"))


def _assert_same_answer(left, right):
    assert left.total_weight == right.total_weight
    assert left.location == right.location
    if isinstance(left, MaxRSResult):
        assert left.region == right.region


def _hot_spot(seed, background, hot):
    """Uniform background plus a tight unit-weight hot spot.

    Small windows then prune the background, which a few dozen uniform
    points never are: their grid has too few cells for any bound to fall
    below the probe.  The tie-heavy unit weights make the restored closing
    h-line matter.
    """
    rng = random.Random(seed)
    points = [WeightedPoint(rng.uniform(0, 100), rng.uniform(0, 100))
              for _ in range(background)]
    points += [WeightedPoint(50 + rng.uniform(-2, 2), 50 + rng.uniform(-2, 2))
               for _ in range(hot)]
    return points


@_SETTINGS
@given(objects=st.builds(_hot_spot, st.integers(0, 2 ** 16),
                         st.integers(50, 300), st.integers(20, 100)),
       kind=st.sampled_from(["maxrs", "maxcrs"]),
       size=st.floats(min_value=0.5, max_value=5.0),
       error_bound=st.sampled_from([1e-9, 0.05, 0.5]))
# Pruned fall-throughs whose closing h-line an event of a pruned point
# moves: only the restoration makes them match the exact query.
@example(objects=_hot_spot(10, 100, 30), kind="maxrs", size=4.0,
         error_bound=1e-9)
@example(objects=_hot_spot(19, 300, 100), kind="maxrs", size=4.0,
         error_bound=1e-9)
def test_bounded_fall_through_equals_the_exact_query(objects, kind, size,
                                                     error_bound):
    with MaxRSEngine() as engine:
        dataset = engine.register_dataset(objects)
        start = _refines(engine)
        exact = engine.query(dataset, _shape_spec(kind, size))
        assert _refines(engine) == start + 1
        engine.query(dataset, _shape_spec(kind, size, refine=False))
        assert _refines(engine) == start + 1
        bounded = engine.query(dataset, _shape_spec(
            kind, size, error_bound=error_bound))
        certified = bounded.cost["descent"]["certified"]
        assert _refines(engine) == start + 1 + (not certified)
    if not certified:
        assert bounded.gap == 0.0
        _assert_same_answer(bounded, exact)


@_SETTINGS
@given(objects=st.lists(st.builds(WeightedPoint, coordinates, coordinates,
                                  weights), min_size=1, max_size=30),
       kind=st.sampled_from(["maxrs", "maxcrs"]),
       size=st.floats(min_value=250.0, max_value=1000.0))
def test_window_past_the_data_answers_like_the_reference(objects, kind, size):
    """A window wider than twice the data's extent reaches every point from
    every cell, so nothing is pruned and the refine solves the full set."""
    if kind == "maxrs":
        reference = solve_in_memory(objects, size, 0.75 * size)
    else:
        centre, weight = exact_maxcrs(objects, size)
        reference = MaxCRSResult(location=centre, total_weight=weight)
    with MaxRSEngine() as engine:
        dataset = engine.register_dataset(objects)
        exact = engine.query(dataset, _shape_spec(kind, size))
        assert engine.metrics.counter("refine_unpruned") == 1
        assert exact.cost["pruned_points"] == 0
        bounded = engine.query(dataset, _shape_spec(kind, size,
                                                    error_bound=0.05))
    _assert_same_answer(exact, reference)
    _assert_same_answer(bounded, reference)
    assert bounded.gap == 0.0


# ---------------------------------------------------------------------- #
# Serving behaviour
# ---------------------------------------------------------------------- #
class TestQueryAndCache:
    def test_repeated_query_hits_cache_and_returns_same_answer(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(80, seed=1))
        spec = QuerySpec.maxrs(10.0, 10.0)
        first = engine.query(dataset, spec)
        second = engine.query(dataset, spec)
        assert second == first            # bit-identical answer...
        assert second.cost["cache"] == "hit"   # ...served from cache
        assert first.cost["cache"] == "miss"
        stats = engine.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_distinct_parameters_are_cached_separately(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(50, seed=2))
        a = engine.query(dataset, QuerySpec.maxrs(5.0, 5.0))
        b = engine.query(dataset, QuerySpec.maxrs(8.0, 5.0))
        assert engine.stats()["cache"]["misses"] == 2
        assert a.total_weight <= b.total_weight + 1e-9  # larger rect never worse

    def test_refine_flag_is_part_of_the_key(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(50, seed=3))
        engine.query(dataset, QuerySpec.maxrs(5.0, 5.0, refine=False))
        engine.query(dataset, QuerySpec.maxrs(5.0, 5.0, refine=True))
        assert engine.stats()["cache"]["misses"] == 2

    def test_cache_does_not_leak_across_datasets(self, make_objects):
        engine = MaxRSEngine()
        ds_a = engine.register_dataset(make_objects(40, seed=4), name="a")
        ds_b = engine.register_dataset(make_objects(40, seed=5), name="b")
        spec = QuerySpec.maxrs(7.0, 7.0)
        engine.query(ds_a, spec)
        engine.query(ds_b, spec)
        assert engine.stats()["cache"]["misses"] == 2

    def test_clear_cache(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(30, seed=6))
        spec = QuerySpec.maxrs(4.0, 4.0)
        engine.query(dataset, spec)
        engine.clear_cache()
        engine.query(dataset, spec)
        assert engine.stats()["cache"]["misses"] == 2

    def test_query_by_dataset_id_string(self, make_objects):
        engine = MaxRSEngine()
        handle = engine.register_dataset(make_objects(30, seed=7), name="named")
        result = engine.query("named", QuerySpec.maxrs(4.0, 4.0))
        assert result.total_weight > 0

    def test_unknown_dataset_raises(self):
        engine = MaxRSEngine()
        with pytest.raises(ServiceError):
            engine.query("nope", QuerySpec.maxrs(1.0, 1.0))

    def test_empty_dataset_answers_like_the_solver(self):
        engine = MaxRSEngine()
        dataset = engine.register_dataset([])
        result = engine.query(dataset, QuerySpec.maxrs(3.0, 3.0))
        reference = solve_in_memory([], 3.0, 3.0)
        assert result.total_weight == reference.total_weight == 0.0
        assert result.region == reference.region
        crs = engine.query(dataset, QuerySpec.maxcrs(3.0))
        assert crs.total_weight == 0.0


class TestQuerySpec:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            QuerySpec(kind="voronoi")

    def test_maxrs_needs_positive_extent(self):
        with pytest.raises(ConfigurationError):
            QuerySpec.maxrs(0.0, 4.0)
        with pytest.raises(ConfigurationError):
            QuerySpec(kind="maxrs", width=4.0, height=None)

    def test_maxkrs_needs_positive_k(self):
        with pytest.raises(ConfigurationError):
            QuerySpec.maxkrs(4.0, 4.0, 0)

    def test_maxcrs_needs_positive_diameter(self):
        with pytest.raises(ConfigurationError):
            QuerySpec.maxcrs(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make_spec", [
        lambda bad: QuerySpec.maxrs(bad, 5.0),
        lambda bad: QuerySpec.maxrs(5.0, bad),
        lambda bad: QuerySpec.maxkrs(bad, 3.0, 2),
        lambda bad: QuerySpec.maxcrs(bad),
    ], ids=["maxrs-width", "maxrs-height", "maxkrs-width", "maxcrs-diameter"])
    def test_non_finite_sizes_rejected(self, make_spec, bad):
        with pytest.raises(ConfigurationError):
            make_spec(bad)

    #: Specs that set a field their kind ignores.  The spec keys the result
    #: cache, so each would have filled its own entry with the same answer.
    IGNORED_FIELDS = {
        "maxrs-k": dict(kind="maxrs", width=5.0, height=5.0, k=3),
        "maxrs-diameter": dict(kind="maxrs", width=5.0, height=5.0,
                               diameter=9.0),
        "maxkrs-diameter": dict(kind="maxkrs", width=5.0, height=5.0, k=2,
                                diameter=9.0),
        "maxkrs-unrefined": dict(kind="maxkrs", width=5.0, height=5.0, k=2,
                                 refine=False),
        "maxcrs-width": dict(kind="maxcrs", diameter=9.0, width=5.0),
        "maxcrs-height": dict(kind="maxcrs", diameter=9.0, height=5.0),
        "maxcrs-k": dict(kind="maxcrs", diameter=9.0, k=3),
    }

    @pytest.mark.parametrize("name", sorted(IGNORED_FIELDS))
    def test_fields_the_kind_ignores_are_rejected(self, name):
        with pytest.raises(ConfigurationError):
            QuerySpec(**self.IGNORED_FIELDS[name])

    def test_wire_specs_with_ignored_fields_are_rejected(self):
        """The wire decoder passes every field through to the spec."""
        for fields in self.IGNORED_FIELDS.values():
            with pytest.raises(ConfigurationError):
                protocol.spec_from_wire(fields)
        # What the constructors build, spec_to_wire sends and decodes back.
        for spec in (QuerySpec.maxrs(5.0, 5.0, refine=False),
                     QuerySpec.maxkrs(5.0, 5.0, 3),
                     QuerySpec.maxcrs(9.0, error_bound=0.1)):
            assert protocol.spec_from_wire(protocol.spec_to_wire(spec)) == spec


class TestTopKAndBatch:
    def test_maxkrs_matches_dispatch(self, make_objects):
        objects = make_objects(70, seed=8)
        engine = MaxRSEngine()
        dataset = engine.register_dataset(objects)
        results = engine.query(dataset, QuerySpec.maxkrs(6.0, 6.0, 3))
        reference = solve_point_set_top_k(objects, 6.0, 6.0, 3,
                                          force_in_memory=True)
        assert [r.total_weight for r in results] == \
            [r.total_weight for r in reference]
        assert [r.region for r in results] == [r.region for r in reference]

    def test_batch_results_align_with_specs(self, make_objects):
        objects = make_objects(60, seed=9)
        engine = MaxRSEngine()
        dataset = engine.register_dataset(objects)
        specs = [QuerySpec.maxrs(5.0, 5.0), QuerySpec.maxrs(9.0, 3.0),
                 QuerySpec.maxrs(5.0, 5.0), QuerySpec.maxkrs(5.0, 5.0, 2)]
        results = engine.query_batch(dataset, specs)
        assert len(results) == 4
        assert results[0] is results[2]  # deduplicated
        for spec, result in zip(specs, results):
            direct = engine.query(dataset, spec)
            assert direct == result       # batch populated the cache
            first = direct[0] if isinstance(direct, tuple) else direct
            assert first.cost["cache"] == "hit"

    def test_batch_deduplicates_work(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(50, seed=10))
        specs = [QuerySpec.maxrs(5.0, 5.0)] * 10 + [QuerySpec.maxrs(2.0, 2.0)] * 10
        results = engine.query_batch(dataset, specs)
        assert len(results) == 20
        assert engine.stats()["cache"]["misses"] == 2

    def test_batch_answers_match_serial_queries(self, make_objects):
        objects = make_objects(60, seed=11)
        engine = MaxRSEngine()
        dataset = engine.register_dataset(objects)
        specs = [QuerySpec.maxrs(float(w), float(h))
                 for w, h in ((3, 4), (5, 5), (12, 2), (8, 8))]
        batch = engine.query_batch(dataset, specs)
        for spec, result in zip(specs, batch):
            reference = solve_in_memory(objects, spec.width, spec.height)
            assert result.total_weight == reference.total_weight
            assert result.region == reference.region


class TestDatasetLifecycle:
    def test_register_is_idempotent_on_content(self, make_objects):
        objects = make_objects(40, seed=12)
        engine = MaxRSEngine()
        first = engine.register_dataset(objects)
        second = engine.register_dataset(list(objects))
        assert second == first
        assert engine.stats()["datasets"] == 1

    def test_name_conflict_with_different_data_raises(self, make_objects):
        engine = MaxRSEngine()
        engine.register_dataset(make_objects(10, seed=13), name="ds")
        with pytest.raises(ServiceError):
            engine.register_dataset(make_objects(10, seed=14), name="ds")

    def test_name_conflict_error_names_both_fingerprints(self, make_objects):
        store = PointStore()
        old = store.register(make_objects(10, seed=13), name="ds")
        new_objects = make_objects(10, seed=14)
        with pytest.raises(ServiceError) as excinfo:
            store.register(new_objects, name="ds")
        message = str(excinfo.value)
        assert old.fingerprint in message
        new_fingerprint = store.register(new_objects).fingerprint
        assert new_fingerprint in message

    def test_unregister(self, make_objects):
        engine = MaxRSEngine()
        handle = engine.register_dataset(make_objects(10, seed=15), name="gone")
        engine.unregister_dataset(handle)
        with pytest.raises(ServiceError):
            engine.query("gone", QuerySpec.maxrs(1.0, 1.0))
        with pytest.raises(ServiceError):
            engine.unregister_dataset("gone")

    def test_unregister_evicts_cached_results(self, make_objects):
        """The TTL-free invalidation hook: no stale entries squat in the LRU."""
        objects = make_objects(30, seed=41)
        engine = MaxRSEngine()
        handle = engine.register_dataset(objects, name="ds")
        engine.query(handle, QuerySpec.maxrs(4.0, 4.0))
        engine.query(handle, QuerySpec.maxrs(9.0, 3.0))
        assert engine.stats()["cache"]["size"] == 2
        engine.unregister_dataset(handle)
        assert engine.stats()["cache"]["size"] == 0
        assert engine.metrics.counter("cache_invalidated") == 2

    def test_unregister_keeps_entries_shared_by_identical_data(self, make_objects):
        """Byte-identical data under another id keeps its cache entries."""
        objects = make_objects(30, seed=42)
        engine = MaxRSEngine()
        a = engine.register_dataset(objects, name="a")
        engine.register_dataset(list(objects), name="b")
        engine.query(a, QuerySpec.maxrs(4.0, 4.0))
        engine.unregister_dataset("a")
        assert engine.stats()["cache"]["size"] == 1
        engine.query("b", QuerySpec.maxrs(4.0, 4.0))
        assert engine.stats()["cache"]["hits"] == 1

    def test_replace_rebinds_name_and_evicts_old_results(self, make_objects):
        old_objects = make_objects(30, seed=43)
        new_objects = make_objects(30, seed=44)
        engine = MaxRSEngine()
        engine.register_dataset(old_objects, name="ds")
        engine.query("ds", QuerySpec.maxrs(4.0, 4.0))
        handle = engine.register_dataset(new_objects, name="ds", replace=True)
        assert engine.stats()["cache"]["size"] == 0
        assert engine.stats()["datasets"] == 1
        result = engine.query("ds", QuerySpec.maxrs(4.0, 4.0))
        reference = solve_in_memory(new_objects, 4.0, 4.0)
        assert result.total_weight == reference.total_weight
        assert handle.count == 30

    @pytest.mark.parametrize("old_count, new_count", [(2000, 100),
                                                      (300, 3000)])
    def test_query_during_replace_prunes_with_the_new_grid(
            self, monkeypatch, old_count, new_count):
        """A query that sees the replaced entry sees its grid too.

        The store's ``register`` is paused right after it publishes the new
        data, and another thread queries the name then: pruning the new
        points with the old data's grid would index past the new columns
        (fewer points) or prune the new optimum away (more points), and
        cache that answer under the new fingerprint.
        """
        rng = random.Random(old_count)

        def unit_points(count):
            return [WeightedPoint(rng.uniform(0.0, 1000.0),
                                  rng.uniform(0.0, 1000.0))
                    for _ in range(count)]

        old_points, new_points = unit_points(old_count), unit_points(new_count)
        spec = QuerySpec.maxrs(50.0, 50.0)
        engine = MaxRSEngine()
        engine.register_dataset(old_points, name="ds")
        register = engine.store.register
        during = []

        def query():
            try:
                during.append(engine.query("ds", spec))
            except Exception as exc:  # reported by the assert below
                during.append(exc)

        def paused_register(*args, **kwargs):
            handle = register(*args, **kwargs)
            thread = threading.Thread(target=query)
            thread.start()
            thread.join()
            return handle

        monkeypatch.setattr(engine.store, "register", paused_register)
        engine.register_dataset(new_points, name="ds", replace=True)
        expected = solve_in_memory(new_points, 50.0, 50.0)
        assert during == [expected]
        after = engine.query("ds", spec)
        assert after.cost["cache"] == "hit"
        assert after == expected
        engine.close()

    def test_identical_registration_builds_no_grid(self, make_objects):
        objects = make_objects(40, seed=46)
        engine = MaxRSEngine()
        engine.register_dataset(objects, name="ds")
        grid = engine.grid_index("ds")
        engine.register_dataset(list(objects), name="ds")
        engine.register_dataset(list(objects), name="ds", replace=True)
        assert engine.grid_index("ds") is grid
        assert engine.stats()["stages"]["grid_build"]["count"] == 1
        engine.close()

    def test_replace_with_invalid_data_keeps_old_dataset(self, make_objects):
        """A rejected replacement must not destroy what the name meant."""
        objects = make_objects(10, seed=45)
        engine = MaxRSEngine()
        engine.register_dataset(objects, name="ds")
        with pytest.raises(ServiceError):
            engine.register_dataset([WeightedPoint(float("inf"), 0.0)],
                                    name="ds", replace=True)
        assert engine.stats()["datasets"] == 1
        engine.query("ds", QuerySpec.maxrs(1.0, 1.0))  # still serveable

    def test_handle_metadata(self, make_objects):
        objects = make_objects(25, seed=16)
        engine = MaxRSEngine()
        handle = engine.register_dataset(objects)
        assert handle.count == 25
        assert handle.total_weight == pytest.approx(sum(o.weight for o in objects))
        assert handle.bounds is not None
        assert len(handle.fingerprint) == 64

    def test_fingerprints_differ_for_different_data(self, make_objects):
        store = PointStore()
        a = store.register(make_objects(20, seed=17))
        b = store.register(make_objects(20, seed=18))
        assert a.fingerprint != b.fingerprint
        assert len(store) == 2

    def test_non_finite_coordinates_rejected_at_registration(self):
        engine = MaxRSEngine()
        with pytest.raises(ServiceError):
            engine.register_dataset([WeightedPoint(float("inf"), 0.0)])
        with pytest.raises(ServiceError):
            engine.register_dataset([WeightedPoint(0.0, 0.0, float("inf"))])

    def test_negative_column_weights_rejected_at_registration(self):
        """Window sums bound a placement only when no weight is negative;
        a refined ``maxrs(10, 10)`` over these columns used to answer 0.0
        where ``solve_columns`` finds 19.0."""
        rng = np.random.default_rng(2)
        xs = rng.uniform(0.0, 100.0, 400)
        ys = rng.uniform(0.0, 100.0, 400)
        ws = rng.choice([-5.0, 1.0, 2.0], 400)
        engine = MaxRSEngine()
        with pytest.raises(ServiceError, match="non-negative"):
            engine.store.register_columns(xs, ys, ws, name="ds")
        assert "ds" not in engine.store
        engine.close()

    def test_maxcrs_exact_limit_guards_the_quadratic_solver(self, make_objects):
        # A diameter spanning the whole dataset defeats pruning, so with a
        # tiny budget the engine must refuse rather than hang.
        objects = make_objects(60, seed=23)
        engine = MaxRSEngine(maxcrs_exact_limit=10)
        dataset = engine.register_dataset(objects)
        with pytest.raises(ServiceError):
            engine.query(dataset, QuerySpec.maxcrs(500.0))


class TestStats:
    def test_stats_shape(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(80, seed=19))
        engine.query(dataset, QuerySpec.maxrs(6.0, 6.0))
        engine.query(dataset, QuerySpec.maxrs(6.0, 6.0))
        stats = engine.stats()
        assert stats["datasets"] == 1
        assert stats["queries"] == 2
        assert "register" in stats["stages"]
        assert "refine" in stats["stages"]
        grid_stats = stats["grids"][dataset.dataset_id]
        assert grid_stats["points"] == 80
        for timing in stats["stages"].values():
            assert timing["total_seconds"] >= 0.0
            assert timing["count"] >= 1

    def test_empty_dataset_has_no_grid(self):
        engine = MaxRSEngine()
        dataset = engine.register_dataset([])
        assert engine.grid_index(dataset) is None
        assert engine.stats()["grids"][dataset.dataset_id] is None


class TestSolveManyFacade:
    def test_solve_many_matches_fresh_solves(self, make_objects):
        objects = make_objects(70, seed=20)
        sizes = [(5.0, 5.0), (9.0, 4.0), (5.0, 5.0)]
        results = solve_many(objects, sizes)
        for (width, height), result in zip(sizes, results):
            reference = solve_in_memory(objects, width, height)
            assert result.total_weight == reference.total_weight
            assert result.region == reference.region

    def test_solve_many_reuses_a_shared_engine(self, make_objects):
        engine = MaxRSEngine()
        objects = make_objects(40, seed=21)
        solve_many(objects, [(5.0, 5.0)], engine=engine)
        solve_many(objects, [(5.0, 5.0)], engine=engine)
        stats = engine.stats()
        assert stats["cache"]["hits"] >= 1
        assert stats["datasets"] == 1


def test_region_restoration_against_dense_ties(make_objects):
    """Unit-weight data is tie-heavy: the pruned sweep's closing h-line must
    still be the dataset-wide successor event, not the subset's."""
    objects = make_objects(120, seed=22, weighted=False)
    engine = MaxRSEngine()
    dataset = engine.register_dataset(objects)
    for size in (3.0, 7.5, 14.0):
        result = engine.query(dataset, QuerySpec.maxrs(size, size))
        reference = solve_in_memory(objects, size, size)
        assert result.region == reference.region
        assert math.isfinite(result.region.y1)


class TestEngineLifecycle:
    """The long-lived thread pool: one pool per engine, shut down by close()."""

    def test_query_batch_reuses_one_pool(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(60, seed=30))
        specs = [QuerySpec.maxrs(4.0 + i, 3.0) for i in range(4)]
        engine.query_batch(dataset, specs)
        pool = engine._pool
        assert pool is not None
        engine.query_batch(dataset, [QuerySpec.maxrs(2.0 + i, 2.0)
                                     for i in range(4)])
        assert engine._pool is pool  # same pool, not a fresh one per call
        engine.close()

    def test_close_is_idempotent_and_keeps_engine_queryable(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(50, seed=31))
        specs = [QuerySpec.maxrs(3.0, 3.0), QuerySpec.maxrs(5.0, 4.0)]
        before = engine.query_batch(dataset, specs)
        engine.close()
        engine.close()
        assert engine._pool is None
        # A closed engine degrades to the calling thread but still answers.
        after = engine.query_batch(dataset, specs)
        for lhs, rhs in zip(before, after):
            assert lhs.total_weight == rhs.total_weight
            assert lhs.region == rhs.region

    def test_context_manager_closes_the_pool(self, make_objects):
        with MaxRSEngine() as engine:
            dataset = engine.register_dataset(make_objects(40, seed=32))
            engine.query_batch(dataset, [QuerySpec.maxrs(3.0, 3.0),
                                         QuerySpec.maxrs(6.0, 2.0)])
            assert engine._pool is not None
        assert engine._pool is None

    def test_stats_report_sharding_configuration(self, make_objects):
        """Every grid is one index on the calling thread; the two keys stay
        for the benchmark harness, which reads them."""
        engine = MaxRSEngine()
        handle = engine.register_dataset(make_objects(60, seed=34))
        stats = engine.stats()
        assert stats["sharding"] == {"effective_shards": 1,
                                     "resolved_executor": "serial"}
        assert "shard_count" not in stats["grids"][handle.dataset_id]
        engine.close()

    def test_close_drains_outstanding_batch_work(self, make_objects):
        """Regression: close() must not drop query_batch work in flight.

        A batch is started on another thread and held at its first query;
        close() (the default ``wait=True``) may then only return after every
        batch query has produced its answer -- no future is abandoned.
        """
        import threading

        engine = MaxRSEngine(max_workers=2)
        dataset = engine.register_dataset(make_objects(60, seed=35))
        specs = [QuerySpec.maxrs(3.0 + i, 3.0) for i in range(6)]
        reference = [engine.query(dataset, spec) for spec in specs]
        engine.clear_cache()

        started = threading.Event()
        hold = threading.Event()
        original_compute = engine._compute

        def gated_compute(entry, spec):
            started.set()
            assert hold.wait(timeout=30.0)
            return original_compute(entry, spec)

        engine._compute = gated_compute
        outcome = {}

        def run_batch():
            outcome["results"] = engine.query_batch(dataset, specs)

        batch_thread = threading.Thread(target=run_batch)
        batch_thread.start()
        assert started.wait(timeout=30.0)

        closer = threading.Thread(target=engine.close)
        closer.start()
        # close(wait=True) is blocked behind the held batch work...
        closer.join(timeout=0.1)
        assert closer.is_alive()
        hold.set()
        closer.join(timeout=30.0)
        batch_thread.join(timeout=30.0)
        assert not closer.is_alive() and not batch_thread.is_alive()
        # ...and every answer of the batch survived the shutdown, intact.
        assert len(outcome["results"]) == len(specs)
        for got, want in zip(outcome["results"], reference):
            assert got.total_weight == want.total_weight
            assert got.region == want.region

    def test_close_without_wait_returns_immediately(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(40, seed=36))
        engine.query_batch(dataset, [QuerySpec.maxrs(3.0, 3.0),
                                     QuerySpec.maxrs(5.0, 2.0)])
        engine.close(wait=False)
        assert engine._pool is None
        # Still queryable (degrades to the calling thread), like close().
        assert engine.query(dataset, QuerySpec.maxrs(3.0, 3.0)).total_weight > 0

    def test_executor_accessor_tracks_lifecycle(self, make_objects):
        engine = MaxRSEngine()
        pool = engine.executor()
        assert pool is not None
        assert engine.executor() is pool  # one long-lived pool
        engine.close()
        assert engine.executor() is None


class TestLatencyHistograms:
    def test_sync_query_records_per_kind_latency(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(40, seed=37))
        engine.query(dataset, QuerySpec.maxrs(4.0, 4.0))
        engine.query(dataset, QuerySpec.maxrs(4.0, 4.0))  # cache hit counts too
        engine.query(dataset, QuerySpec.maxkrs(4.0, 4.0, 2))
        engine.query(dataset, QuerySpec.maxcrs(5.0))
        latency = engine.stats()["latency"]
        assert latency["maxrs"]["count"] == 2
        assert latency["maxkrs"]["count"] == 1
        assert latency["maxcrs"]["count"] == 1
        assert latency["maxrs"]["p50_seconds"] <= latency["maxrs"]["p99_seconds"]
        engine.close()


class TestDegenerateGeometry:
    """Datasets whose grid collapses: one point, points on a line, and
    windows wider than the whole dataset -- on the default grid and on one
    with about four points per cell."""

    @pytest.mark.parametrize("points_per_cell", [1, 4])
    def test_single_point_dataset(self, points_per_cell):
        objects = [WeightedPoint(3.0, 4.0, 2.5)]
        engine = MaxRSEngine(target_points_per_cell=points_per_cell)
        handle = engine.register_dataset(objects)
        grid = engine.grid_index(handle)
        assert (grid.n_rows, grid.n_cols) == (1, 1)
        assert grid.upper_bounds(10.0, 10.0)[0, 0] == 2.5
        result = engine.query(handle, QuerySpec.maxrs(10.0, 10.0))
        assert result.total_weight == 2.5

    @pytest.mark.parametrize("points_per_cell", [1, 4])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_collinear_points_collapse_one_axis(self, axis, points_per_cell):
        if axis == "x":
            objects = [WeightedPoint(7.0, float(i), 1.0) for i in range(30)]
        else:
            objects = [WeightedPoint(float(i), -2.0, 1.0) for i in range(30)]
        engine = MaxRSEngine(target_points_per_cell=points_per_cell)
        handle = engine.register_dataset(objects)
        grid = engine.grid_index(handle)
        # The zero-extent axis collapses to one cell of nominal unit width.
        if axis == "x":
            assert grid.n_cols == 1 and grid.cell_w == 1.0
        else:
            assert grid.n_rows == 1 and grid.cell_h == 1.0
        bounds = grid.upper_bounds(3.0, 3.0)
        assert bounds.shape == (grid.n_rows, grid.n_cols)
        assert float(bounds.max()) <= 30.0
        result = engine.query(handle, QuerySpec.maxrs(3.0, 3.0))
        # 3 consecutive unit-spaced points fit a 3-extent window (the paper's
        # half-open boundary semantics exclude a 4th on the closing edge).
        assert result.total_weight == 3.0

    @pytest.mark.parametrize("points_per_cell", [1, 4])
    def test_query_window_larger_than_bounding_box(self, make_objects,
                                                   points_per_cell):
        objects = make_objects(60, seed=9, extent=50.0)
        total = sum(o.weight for o in objects)
        engine = MaxRSEngine(target_points_per_cell=points_per_cell)
        handle = engine.register_dataset(objects)
        grid = engine.grid_index(handle)
        bounds = grid.upper_bounds(1e6, 1e6)
        # A window covering everything: every cell's bound is the total.
        assert bounds == pytest.approx(total)
        mask = grid.candidate_mask(1e6, 1e6, total, bounds)
        assert mask.all()
        assert len(grid.points_in_mask(grid.dilate(mask, 1e6, 1e6))) == \
            len(objects)
        result = engine.query(handle, QuerySpec.maxrs(1e6, 1e6))
        assert result.total_weight == total


def test_effective_cpu_count_is_affinity_aware():
    """``repro.service.sharding`` keeps two names for the benchmark harness:
    the host's schedulable core count and the grid class under its old
    name (``grid_index.GridQueryOps`` is the same class)."""
    from repro.service import GridIndex
    from repro.service import grid_index, sharding

    count = sharding.effective_cpu_count()
    assert count >= 1
    if hasattr(os, "sched_getaffinity"):
        assert count == len(os.sched_getaffinity(0))
    assert sharding.ShardedGridIndex is GridIndex
    assert grid_index.GridQueryOps is GridIndex


class TestEngineConfiguration:
    @pytest.mark.parametrize("option", ["max_workers",
                                        "target_points_per_cell",
                                        "max_cells_per_side"])
    def test_non_positive_option_rejected_at_construction(self, option):
        """Fail at the configuration site, not at the first registration or
        the first query that needs the thread pool."""
        with pytest.raises(ConfigurationError, match=option):
            MaxRSEngine(**{option: 0})


def _batch_specs(count):
    """Distinct MaxRS specs whose width encodes their batch position."""
    return [QuerySpec.maxrs(1.0 + position, 2.0) for position in range(count)]


def _position(spec):
    return int(spec.width) - 1


class TestBatchPoolContract:
    """How ``query_batch`` maps a batch over the engine's thread pool."""

    def test_results_come_back_in_spec_order(self, make_objects):
        objects = make_objects(80, seed=50)
        engine = MaxRSEngine(max_workers=3)
        dataset = engine.register_dataset(objects)
        specs = _batch_specs(6)
        compute = engine._compute

        def late_first(entry, spec):
            # Earlier specs finish later: completion order is reversed.
            time.sleep(0.02 * (len(specs) - _position(spec)))
            return compute(entry, spec)

        engine._compute = late_first
        try:
            results = engine.query_batch(dataset, specs)
        finally:
            engine.close()
        for spec, result in zip(specs, results):
            reference = solve_in_memory(objects, spec.width, spec.height)
            assert result.total_weight == reference.total_weight
            assert result.region == reference.region

    def test_first_failure_in_spec_order_propagates(self, make_objects):
        engine = MaxRSEngine(max_workers=2)
        dataset = engine.register_dataset(make_objects(40, seed=51))
        compute = engine._compute

        def failing(entry, spec):
            if _position(spec) == 4:
                raise ValueError("spec 4 failed")  # the first to fail in time
            if _position(spec) == 2:
                time.sleep(0.1)
                raise ValueError("spec 2 failed")
            return compute(entry, spec)

        engine._compute = failing
        try:
            with pytest.raises(ValueError, match="spec 2"):
                engine.query_batch(dataset, _batch_specs(6))
        finally:
            engine.close()

    def test_pool_serves_again_after_a_failed_batch(self, make_objects):
        objects = make_objects(40, seed=55)
        engine = MaxRSEngine(max_workers=2)
        dataset = engine.register_dataset(objects)
        compute = engine._compute

        def failing(entry, spec):
            if _position(spec) == 3:
                raise ValueError("spec 3 failed")
            return compute(entry, spec)

        engine._compute = failing
        try:
            with pytest.raises(ValueError, match="spec 3"):
                engine.query_batch(dataset, _batch_specs(6))
            engine._compute = compute
            # Fresh heights: every spec misses the cache and runs again.
            specs = [QuerySpec.maxrs(spec.width, 3.0)
                     for spec in _batch_specs(5)]
            results = engine.query_batch(dataset, specs)
        finally:
            engine.close()
        for spec, result in zip(specs, results):
            reference = solve_in_memory(objects, spec.width, spec.height)
            assert result.total_weight == reference.total_weight
            assert result.region == reference.region

    def test_failure_leaves_no_batch_query_running(self, make_objects):
        engine = MaxRSEngine(max_workers=2)
        dataset = engine.register_dataset(make_objects(40, seed=52))
        compute = engine._compute
        started, finished = set(), set()
        gate = threading.Event()

        def gated(entry, spec):
            position = _position(spec)
            if position == 0:
                # Let some siblings reach the pool before the failure lands.
                gate.wait(2.0)
                raise ValueError("first spec failed")
            started.add(position)
            if position == 1:
                gate.set()
            time.sleep(0.05)
            result = compute(entry, spec)
            finished.add(position)
            return result

        engine._compute = gated
        try:
            with pytest.raises(ValueError, match="first spec"):
                engine.query_batch(dataset, _batch_specs(12))
            # Every query that began had finished before the batch raised...
            assert started == finished
            snapshot = set(started)
            time.sleep(0.2)
            # ...and no query of the batch started afterwards.
            assert started == snapshot
        finally:
            engine.close()

    def test_batch_inside_a_pool_task_does_not_deadlock(self, make_objects):
        objects = make_objects(60, seed=53)
        engine = MaxRSEngine(max_workers=1)
        dataset = engine.register_dataset(objects)
        specs = _batch_specs(4)
        try:
            # The outer task holds the pool's only worker, so the inner
            # batch's queries must run on that worker, inline.
            task = engine.executor().submit(engine.query_batch, dataset, specs)
            results = task.result(timeout=60)
        finally:
            engine.close()
        for spec, result in zip(specs, results):
            reference = solve_in_memory(objects, spec.width, spec.height)
            assert result.total_weight == reference.total_weight
            assert result.region == reference.region

    def test_closed_engine_answers_a_batch_inline(self, make_objects):
        engine = MaxRSEngine()
        dataset = engine.register_dataset(make_objects(50, seed=54))
        engine.close()
        compute = engine._compute
        threads = []

        def recorded(entry, spec):
            threads.append(threading.current_thread())
            return compute(entry, spec)

        engine._compute = recorded
        results = engine.query_batch(dataset, _batch_specs(3))
        assert len(results) == 3
        assert threads == [threading.current_thread()] * 3
        assert engine.executor() is None
