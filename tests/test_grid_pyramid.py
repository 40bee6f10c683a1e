"""Tests for the grid pyramid and the bounded-error fast path.

The load-bearing properties, each hypothesis-driven:

* **roll-up correctness** -- every pyramid level's aggregates equal the flat
  base grid re-binned into ``2^k``-sized blocks (computed here by an
  independent scatter-add, not the production roll-up);
* **exactness is untouched** -- without ``error_bound`` the pyramid engine's
  answers are bit-identical to the flat (``pyramid_levels=1``) engine's,
  also when a batch runs on the engine's thread pool (the pyramid is a
  pruning accelerator, never a semantic change);
* **the certificate holds** -- a bounded-error answer's ``gap`` really does
  bound the exact optimum: ``exact <= approx * (1 + gap)`` with
  ``gap <= error_bound``.

Plus the deterministic seams: catalog v3 round-trip of the pyramid, corrupt
level blobs degrading to a rebuild, wire-protocol round-trips of
``error_bound``/``gap``, spec validation, and degraded serving through the
async front-end under overload.
"""

import asyncio

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aio import AsyncMaxRSEngine
from repro.aio import protocol
from repro.errors import ConfigurationError, ServiceDegradedError, \
    ServiceOverloadError
from repro.geometry import WeightedPoint
from repro.obs import metrics_text
from repro.persist import open_catalog
from repro.service import MaxRSEngine, QuerySpec
from repro.service.grid_index import GridIndex, rollup_aggregates

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

coordinates = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                        allow_infinity=False)
weights = st.sampled_from([1.0, 2.0, 3.0])
objects_strategy = st.lists(
    st.builds(WeightedPoint, coordinates, coordinates, weights),
    min_size=1, max_size=120,
)


def _columns(objects):
    xs = np.array([o.x for o in objects], dtype=np.float64)
    ys = np.array([o.y for o in objects], dtype=np.float64)
    ws = np.array([o.weight for o in objects], dtype=np.float64)
    return xs, ys, ws


def _rebin(array, shift):
    """Re-bin a flat per-cell array into ``2**shift``-sized blocks.

    An independent reference for the production roll-up: scatter-add every
    base cell into the coarse cell its indices shift down to.
    """
    n_rows, n_cols = array.shape
    out_shape = ((n_rows + (1 << shift) - 1) >> shift,
                 (n_cols + (1 << shift) - 1) >> shift)
    out = np.zeros(out_shape, dtype=array.dtype)
    rows = np.arange(n_rows) >> shift
    cols = np.arange(n_cols) >> shift
    np.add.at(out, (rows[:, None], cols[None, :]), array)
    return out


# ---------------------------------------------------------------------- #
# Property (a): roll-up == flat re-binned
# ---------------------------------------------------------------------- #
class TestRollup:
    @_SETTINGS
    @given(objects=objects_strategy)
    def test_levels_match_independent_rebinning(self, objects):
        grid = GridIndex(*_columns(objects))
        for k, level in enumerate(grid.levels, start=1):
            assert level.scale == 1 << k
            assert np.array_equal(level.cell_counts,
                                  _rebin(grid.cell_counts, k))
            # Weights from {1, 2, 3} sum exactly in float64, so the pairwise
            # roll-up and the scatter-add must agree bit for bit.
            assert np.array_equal(level.cell_weights,
                                  _rebin(grid.cell_weights, k))
            assert int(level.cell_counts.sum()) == len(objects)

    def test_rollup_pads_odd_extents(self):
        weights = np.arange(15, dtype=np.float64).reshape(3, 5)
        counts = np.ones((3, 5), dtype=np.int64)
        rw = rollup_aggregates(weights)
        rc = rollup_aggregates(counts)
        assert rw.shape == rc.shape == (2, 3)
        assert rw.sum() == weights.sum()
        assert rc.sum() == counts.sum()
        assert np.array_equal(rw, _rebin(weights, 1))


# ---------------------------------------------------------------------- #
# Property (b): exact answers bit-identical flat vs pyramid
# ---------------------------------------------------------------------- #
_IDENTITY_SPECS = (
    QuerySpec.maxrs(10.0, 10.0),
    QuerySpec.maxrs(25.0, 5.0),
    QuerySpec(kind="maxkrs", width=12.0, height=12.0, k=3),
    QuerySpec.maxcrs(14.0),
)


def _answers(engine, handle):
    return [engine.query(handle, spec) for spec in _IDENTITY_SPECS]


def _assert_identical(lhs, rhs):
    for spec, a, b in zip(_IDENTITY_SPECS, lhs, rhs):
        if spec.kind == "maxkrs":
            assert len(a) == len(b)
            pairs = zip(a, b)
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            assert x.total_weight == y.total_weight, spec
            assert x.location == y.location, spec
            if hasattr(x, "region"):
                assert x.region == y.region, spec
            assert x.gap is None and y.gap is None, spec


class TestExactBitIdentity:
    @_SETTINGS
    @given(objects=objects_strategy)
    def test_flat_vs_pyramid_answers_match(self, objects):
        with MaxRSEngine(pyramid_levels=1) as flat, MaxRSEngine() as pyramid:
            truth = _answers(flat, flat.register_dataset(objects, name="ds"))
            answers = _answers(
                pyramid, pyramid.register_dataset(objects, name="ds"))
        _assert_identical(truth, answers)

    @pytest.mark.parametrize("workers", [2, 7],
                             ids=lambda workers: f"{workers}-threaded")
    def test_flat_vs_pyramid_parallel_executors(self, make_objects, workers):
        """The pyramid engine answering one batch on its thread pool matches
        the flat engine answering query by query."""
        objects = make_objects(400, seed=9)
        with MaxRSEngine(pyramid_levels=1) as flat, \
                MaxRSEngine(max_workers=workers) as pyramid:
            truth = _answers(flat, flat.register_dataset(objects, name="ds"))
            answers = pyramid.query_batch(
                pyramid.register_dataset(objects, name="ds"),
                _IDENTITY_SPECS)
        _assert_identical(truth, answers)


# ---------------------------------------------------------------------- #
# Property (c): the certificate holds
# ---------------------------------------------------------------------- #
class TestCertifiedGap:
    @_SETTINGS
    @given(objects=objects_strategy,
           width=st.floats(min_value=5.0, max_value=90.0),
           height=st.floats(min_value=5.0, max_value=90.0),
           error_bound=st.sampled_from([0.05, 0.2, 0.5, 1.0]))
    def test_bounded_answer_within_certified_gap(self, objects, width,
                                                 height, error_bound):
        with MaxRSEngine() as engine:
            handle = engine.register_dataset(objects, name="ds")
            exact = engine.query(handle, QuerySpec.maxrs(width, height))
            approx = engine.query(handle, QuerySpec.maxrs(
                width, height, error_bound=error_bound))
        assert approx.gap is not None
        assert 0.0 <= approx.gap <= error_bound + 1e-12
        assert approx.total_weight <= exact.total_weight + 1e-9
        assert exact.total_weight <= \
            approx.total_weight * (1.0 + approx.gap) + 1e-9

    def test_descent_counters_flow(self, make_objects):
        with MaxRSEngine() as engine:
            handle = engine.register_dataset(make_objects(300, seed=3),
                                             name="ds")
            engine.query(handle, QuerySpec.maxrs(60.0, 60.0,
                                                 error_bound=0.5))
            counters = engine.metrics.snapshot()["counters"]
        assert counters.get("pyramid_descents", 0) == 1
        assert counters.get("descent_levels", 0) >= 1
        stop_keys = [key for key in counters if key.startswith("descent_stop_")]
        assert stop_keys, counters


# ---------------------------------------------------------------------- #
# Spec validation and wire protocol
# ---------------------------------------------------------------------- #
class TestSpecAndWire:
    @pytest.mark.parametrize("bad", [0.0, -0.1, float("inf"), float("nan")])
    def test_error_bound_must_be_positive_finite(self, bad):
        with pytest.raises(ConfigurationError):
            QuerySpec.maxrs(5.0, 5.0, error_bound=bad)

    def test_error_bound_rejected_for_maxkrs_and_unrefined(self):
        with pytest.raises(ConfigurationError):
            QuerySpec(kind="maxkrs", width=5.0, height=5.0, k=2,
                      error_bound=0.1)
        with pytest.raises(ConfigurationError):
            QuerySpec.maxrs(5.0, 5.0, refine=False, error_bound=0.1)

    def test_spec_round_trips_error_bound(self):
        spec = QuerySpec.maxrs(5.0, 5.0, error_bound=0.05)
        wire = protocol.spec_to_wire(spec)
        assert wire["error_bound"] == 0.05
        assert protocol.spec_from_wire(wire) == spec
        # Default (exact) specs elide the field entirely.
        assert "error_bound" not in protocol.spec_to_wire(
            QuerySpec.maxrs(5.0, 5.0))

    def test_result_round_trips_gap(self, make_objects):
        with MaxRSEngine() as engine:
            handle = engine.register_dataset(make_objects(200, seed=1),
                                             name="ds")
            approx = engine.query(handle, QuerySpec.maxrs(
                60.0, 60.0, error_bound=1.0))
            exact = engine.query(handle, QuerySpec.maxrs(10.0, 10.0))
        decoded = protocol.result_from_wire(protocol.result_to_wire(approx))
        assert decoded.gap == approx.gap
        assert decoded.total_weight == approx.total_weight
        assert "gap" not in protocol.result_to_wire(exact)
        assert protocol.result_from_wire(
            protocol.result_to_wire(exact)).gap is None

    def test_degraded_error_crosses_the_wire(self):
        wire = protocol.error_to_wire(7, ServiceDegradedError("no gap"))
        exc = protocol.exception_from_wire(wire)
        assert isinstance(exc, ServiceDegradedError)


# ---------------------------------------------------------------------- #
# Catalog v3 persistence
# ---------------------------------------------------------------------- #
class TestPyramidPersistence:
    def test_catalog_v3_round_trip(self, tmp_path, make_objects):
        objects = make_objects(400, seed=5)
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        depth = day1.grid_index("ds").pyramid_depth()
        truth_exact = day1.query("ds", QuerySpec.maxrs(8.0, 8.0))
        truth_approx = day1.query("ds", QuerySpec.maxrs(60.0, 60.0,
                                                        error_bound=0.5))
        day1.close()
        assert depth >= 2

        catalog = open_catalog(tmp_path)
        assert catalog.get("ds").grid.levels

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()["persist"]
        assert stats["grids_restored"] == 1
        assert stats["restore_errors"] == {}
        assert day2.grid_index("ds").pyramid_depth() == depth
        restored = day2.query("ds", QuerySpec.maxrs(8.0, 8.0))
        assert restored.total_weight == truth_exact.total_weight
        assert restored.region == truth_exact.region
        approx = day2.query("ds", QuerySpec.maxrs(60.0, 60.0,
                                                  error_bound=0.5))
        assert approx.gap == truth_approx.gap
        assert approx.total_weight == truth_approx.total_weight

    def test_corrupt_level_blob_falls_back_to_rebuild(self, tmp_path,
                                                      make_objects):
        objects = make_objects(400, seed=6)
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        truth = day1.query("ds", QuerySpec.maxrs(8.0, 8.0))
        depth = day1.grid_index("ds").pyramid_depth()
        day1.close()

        level = open_catalog(tmp_path).get("ds").grid.levels[0]
        blob = tmp_path / level.file
        raw = bytearray(blob.read_bytes())
        raw[-3] ^= 0xFF
        blob.write_bytes(bytes(raw))

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()["persist"]
        assert stats["datasets_restored"] == 1
        assert stats["grids_restored"] == 0
        assert day2.grid_index("ds").pyramid_depth() == depth  # rebuilt
        result = day2.query("ds", QuerySpec.maxrs(8.0, 8.0))
        assert result.total_weight == truth.total_weight
        assert result.region == truth.region


# ---------------------------------------------------------------------- #
# Degraded serving through the async front-end
# ---------------------------------------------------------------------- #
class TestDegradedServing:
    def test_degraded_error_bound_validated(self):
        with pytest.raises(ConfigurationError):
            AsyncMaxRSEngine(degraded_error_bound=0.0)
        with pytest.raises(ConfigurationError):
            AsyncMaxRSEngine(degraded_error_bound=float("nan"))

    def test_overload_served_with_error_bar(self, make_objects):
        objects = make_objects(300, seed=8)

        async def scenario():
            async with AsyncMaxRSEngine(max_inflight=1, max_queue=0,
                                        degraded_error_bound=0.5) as eng:
                handle = await eng.register_dataset(objects)
                exact = await eng.query(handle, QuerySpec.maxrs(60.0, 60.0))
                # Hold the only slot: the next leader hits overload.
                await eng._admission.acquire()
                try:
                    approx = await eng.query(handle,
                                             QuerySpec.maxrs(60.0, 61.0))
                    with pytest.raises(ServiceDegradedError):
                        await eng.query(handle, QuerySpec(
                            kind="maxkrs", width=5.0, height=5.0, k=2))
                    # A request already carrying its own bound is shed
                    # normally: there is nothing softer to serve.
                    with pytest.raises(ServiceOverloadError):
                        await eng.query(handle, QuerySpec.maxrs(
                            5.0, 5.0, error_bound=0.1))
                finally:
                    eng._admission.release()
                return exact, approx, eng.stats()["aio"], \
                    metrics_text(eng.engine.metrics)

        exact, approx, aio, exposition = asyncio.run(scenario())
        assert approx.gap is not None and approx.gap <= 0.5
        assert exact.total_weight <= \
            approx.total_weight * (1.0 + approx.gap) + 1e-9
        assert aio["degraded"] == 1
        assert aio["degrade_refused"] == 1
        assert aio["rejected"] == 1
        assert aio["degraded_error_bound"] == 0.5
        assert "degraded_served" in exposition

    def test_no_degradation_without_opt_in(self, make_objects):
        objects = make_objects(50, seed=8)

        async def scenario():
            async with AsyncMaxRSEngine(max_inflight=1, max_queue=0) as eng:
                handle = await eng.register_dataset(objects)
                await eng._admission.acquire()
                try:
                    with pytest.raises(ServiceOverloadError):
                        await eng.query(handle, QuerySpec.maxrs(5.0, 5.0))
                finally:
                    eng._admission.release()
                return eng.stats()["aio"]

        aio = asyncio.run(scenario())
        assert aio["rejected"] == 1
        assert aio["degraded"] == 0
