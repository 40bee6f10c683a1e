"""Tests for the bounded-error fast path (``error_bound=``).

(The file is named after the grid pyramid this path used to descend.)  The
load-bearing properties, each hypothesis-driven:

* **the base-grid certificate** -- a bounded answer is either the probe (the
  ``refine=False`` answer) with ``gap`` equal to the base-grid certificate
  ``(B - weight) / weight``, ``B`` the best window bound, served exactly
  when that gap is within ``error_bound``; or the exact query's answer with
  ``gap == 0.0``;
* **the certificate holds** -- a bounded-error answer's ``gap`` really does
  bound the exact optimum: ``exact <= approx * (1 + gap)`` with
  ``gap <= error_bound``.

Plus the deterministic seams: bounded answers across a restart (and from a
legacy catalog whose level blob is corrupt), wire-protocol round-trips of
``error_bound``/``gap``, spec validation, and degraded serving through the
async front-end under overload.
"""

import asyncio
import random
import shutil
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.aio import AsyncMaxRSEngine
from repro.aio import protocol
from repro.errors import ConfigurationError, ServiceDegradedError, \
    ServiceOverloadError
from repro.geometry import WeightedPoint
from repro.obs import metrics_text
from repro.persist import SnapshotStore, open_catalog
from repro.service import MaxRSEngine, QuerySpec

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

coordinates = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                        allow_infinity=False)
weights = st.sampled_from([1.0, 2.0, 3.0])
objects_strategy = st.lists(
    st.builds(WeightedPoint, coordinates, coordinates, weights),
    min_size=1, max_size=120,
)


# ---------------------------------------------------------------------- #
# The base-grid certificate
# ---------------------------------------------------------------------- #
def _integer_points(seed, count):
    rng = random.Random(seed)
    return [WeightedPoint(float(rng.randint(0, 100)),
                          float(rng.randint(0, 100)),
                          float(rng.choice([1, 2, 3])))
            for _ in range(count)]


def _same_answer(got, want):
    assert got.location == want.location
    assert getattr(got, "region", None) == getattr(want, "region", None)
    assert got.total_weight == want.total_weight


class TestBoundedAnswer:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(objects=objects_strategy,
           kind=st.sampled_from(["maxrs", "maxcrs"]),
           width=st.floats(min_value=2.0, max_value=90.0),
           height=st.floats(min_value=2.0, max_value=90.0),
           error_bound=st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]))
    # Pinned: a 2x-coarser window bound would certify a gap of 0.92 here,
    # the base grid's best bound certifies 0.68.
    @example(objects=_integer_points(4, 120), kind="maxrs", width=50.0,
             height=80.0, error_bound=1.0)
    def test_bounded_answer_is_the_certified_probe_or_exact(
            self, objects, kind, width, height, error_bound):
        """Differential test of the bounded path against the probe, the
        exact query and the base grid's best window bound ``B``."""
        def spec(**options):
            if kind == "maxcrs":
                return QuerySpec.maxcrs(width, **options)
            return QuerySpec.maxrs(width, height, **options)

        with MaxRSEngine() as engine:
            handle = engine.register_dataset(objects)
            exact = engine.query(handle, spec())
            probe = engine.query(handle, spec(refine=False))
            bounded = engine.query(handle, spec(error_bound=error_bound))
            window = (width, width) if kind == "maxcrs" else (width, height)
            best = float(engine.grid_index(handle).upper_bounds(*window).max())
        weight = probe.total_weight
        assert weight > 0.0  # the best window holds a point
        certificate = max(0.0, (best - weight) / weight)
        if certificate <= error_bound:
            assert bounded.cost["descent"] == {
                "certified": True, "certified_gap": certificate}
            assert bounded.gap == certificate
            _same_answer(bounded, probe)
        else:
            assert bounded.cost["descent"] == {
                "certified": False, "certified_gap": None}
            assert bounded.gap == 0.0
            _same_answer(bounded, exact)


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
            engine.query(handle, QuerySpec.maxrs(80.0, 80.0,
                                                 error_bound=0.5))
            engine.query(handle, QuerySpec.maxrs(5.0, 5.0,
                                                 error_bound=1e-9))
            counters = engine.metrics.snapshot()["counters"]
        assert counters.get("descent_certified", 0) == 1
        assert counters.get("descent_stop_exact", 0) == 1


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
# Bounded answers across a restart
# ---------------------------------------------------------------------- #
#: A format-version-3 catalog of an earlier build, with pyramid level blobs.
LEGACY_CATALOG = Path(__file__).parent / "data" / "legacy_sharded_catalog"


class TestPyramidPersistence:
    def test_catalog_v3_round_trip(self, tmp_path, make_objects):
        """The grid is rebuilt, not persisted: a restart serves the same
        exact answers and certified gaps, and no grid blob is written."""
        objects = make_objects(400, seed=5)
        day1 = MaxRSEngine(persist_dir=tmp_path)
        day1.register_dataset(objects, name="ds")
        truth_exact = day1.query("ds", QuerySpec.maxrs(8.0, 8.0))
        truth_approx = day1.query("ds", QuerySpec.maxrs(60.0, 60.0,
                                                        error_bound=0.5))
        day1.close()
        assert open_catalog(tmp_path).get("ds").legacy_grid_files == ()
        assert not sorted(tmp_path.glob("*.grid"))

        day2 = MaxRSEngine(persist_dir=tmp_path)
        stats = day2.stats()["persist"]
        assert stats["datasets_restored"] == 1
        assert stats["restore_errors"] == {}
        restored = day2.query("ds", QuerySpec.maxrs(8.0, 8.0))
        assert restored.total_weight == truth_exact.total_weight
        assert restored.region == truth_exact.region
        approx = day2.query("ds", QuerySpec.maxrs(60.0, 60.0,
                                                  error_bound=0.5))
        assert approx.gap == truth_approx.gap
        assert approx.total_weight == truth_approx.total_weight
        assert not sorted(tmp_path.glob("*.grid"))

    def test_corrupt_level_blob_falls_back_to_rebuild(self, tmp_path):
        """A legacy catalog's level blobs are never read: with one corrupt,
        the restart still builds the grid from the points."""
        legacy = tmp_path / "legacy"
        shutil.copytree(LEGACY_CATALOG, legacy)
        level = legacy / open_catalog(legacy).get("ds").legacy_grid_files[-1]
        assert "-L" in level.name
        raw = bytearray(level.read_bytes())
        raw[-3] ^= 0xFF
        level.write_bytes(bytes(raw))

        day2 = MaxRSEngine(persist_dir=legacy)
        stats = day2.stats()["persist"]
        assert stats["datasets_restored"] == 1
        assert stats["restore_errors"] == {}
        fresh = MaxRSEngine()
        handle = fresh.register_dataset(
            SnapshotStore(legacy).load_dataset("ds").objects())
        want = fresh.grid_index(handle)
        assert np.array_equal(day2.grid_index("ds").cell_weights,
                              want.cell_weights)
        for spec in (QuerySpec.maxrs(8.0, 8.0),
                     QuerySpec.maxrs(60.0, 60.0, error_bound=0.5)):
            got, expected = day2.query("ds", spec), fresh.query(handle, spec)
            assert got.total_weight == expected.total_weight
            assert got.region == expected.region
            assert got.gap == expected.gap


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
