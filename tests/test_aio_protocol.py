"""Tests for the JSON-lines wire format (:mod:`repro.aio.protocol`).

The load-bearing property is **bit-identity through serialization**: a
decoded result compares equal -- same floats, bit for bit -- to the engine
answer that was encoded, including non-finite region bounds (an empty
dataset's max-region is the whole plane).  A hypothesis property round-trips
arbitrary float patterns to pin the JSON float path.
"""

import json
import math

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from repro.aio import protocol
from repro.core.result import MaxCRSResult, MaxRegion, MaxRSResult
from repro.errors import (
    ConfigurationError,
    ReproError,
    SerializationError,
    ServiceError,
    ServiceOverloadError,
)
from repro.geometry import Point, WeightedPoint
from repro.service.engine import QuerySpec

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
region_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)


def maxrs_result(x1=-1.5, y1=0.25, x2=3.0, y2=7.125, weight=11.0,
                 total=11.0) -> MaxRSResult:
    region = MaxRegion(x1=x1, y1=y1, x2=x2, y2=y2, weight=weight)
    return MaxRSResult(location=region.representative_point(), region=region,
                       total_weight=total, io=None, recursion_levels=2,
                       leaf_count=5)


class TestFraming:
    def test_line_round_trip(self):
        message = {"op": "ping", "id": 7}
        line = protocol.encode_line(message)
        assert line.endswith(b"\n")
        assert protocol.decode_line(line.strip()) == message

    def test_malformed_lines_raise_typed(self):
        with pytest.raises(SerializationError):
            protocol.decode_line(b"{not json")
        with pytest.raises(SerializationError):
            protocol.decode_line(b'"a bare string"')
        with pytest.raises(SerializationError):
            protocol.decode_line(b"\xff\xfe")


class TestSpecs:
    @pytest.mark.parametrize("spec", [
        QuerySpec.maxrs(10.0, 5.5),
        QuerySpec.maxrs(10.0, 5.5, refine=False),
        QuerySpec.maxkrs(3.25, 8.0, 4),
        QuerySpec.maxcrs(12.5),
        QuerySpec.maxcrs(12.5, refine=False),
    ])
    def test_spec_round_trip(self, spec):
        assert protocol.spec_from_wire(protocol.spec_to_wire(spec)) == spec

    def test_bad_specs_raise_typed(self):
        with pytest.raises(SerializationError):
            protocol.spec_from_wire(["not", "a", "dict"])
        with pytest.raises(SerializationError):
            protocol.spec_from_wire({"kind": "maxrs", "surprise": 1})
        # Field validation is QuerySpec's own (ConfigurationError).
        with pytest.raises(ReproError):
            protocol.spec_from_wire({"kind": "maxrs"})
        # Non-numeric field values surface typed, not as raw TypeError.
        with pytest.raises(SerializationError):
            protocol.spec_from_wire({"kind": "maxrs", "width": "wide",
                                     "height": 2.0})

    def test_non_finite_sizes_from_the_wire_rejected(self):
        """``json.loads`` accepts the NaN and Infinity tokens, so the spec
        decoder must not let them reach the engine."""
        for line in ('{"kind":"maxrs","width":NaN,"height":1.0}',
                     '{"kind":"maxcrs","diameter":Infinity}'):
            with pytest.raises(ConfigurationError):
                protocol.spec_from_wire(json.loads(line))


class TestPoints:
    def test_points_round_trip(self):
        objects = [WeightedPoint(0.5, -1.25, 2.0), WeightedPoint(3.0, 4.0)]
        decoded = protocol.points_from_wire(protocol.points_to_wire(objects))
        assert decoded == objects

    def test_weight_defaults_to_one(self):
        decoded = protocol.points_from_wire([[1.0, 2.0]])
        assert decoded == [WeightedPoint(1.0, 2.0, 1.0)]

    def test_bad_rows_raise_typed(self):
        with pytest.raises(SerializationError):
            protocol.points_from_wire([[1.0]])
        with pytest.raises(SerializationError):
            protocol.points_from_wire([{"x": 1.0}])
        # Non-numeric scalars must surface typed too, not as raw ValueError.
        with pytest.raises(SerializationError):
            protocol.points_from_wire([[1.0, "oops"]])
        with pytest.raises(SerializationError):
            protocol.points_from_wire([[1.0, 2.0, None]])


class TestResults:
    def test_maxrs_round_trip_is_bit_identical(self):
        result = maxrs_result()
        decoded = protocol.result_from_wire(protocol.result_to_wire(result))
        assert decoded == result

    def test_unbounded_region_survives(self):
        result = MaxRSResult(
            location=Point(0.0, 0.0),
            region=MaxRegion(x1=-math.inf, y1=-math.inf, x2=math.inf,
                             y2=math.inf, weight=0.0),
            total_weight=0.0, io=None, recursion_levels=0, leaf_count=1)
        decoded = protocol.result_from_wire(protocol.result_to_wire(result))
        assert decoded == result

    def test_maxkrs_tuple_round_trip(self):
        results = (maxrs_result(total=11.0), maxrs_result(y1=9.0, total=7.0))
        decoded = protocol.result_from_wire(protocol.result_to_wire(results))
        assert decoded == results

    def test_maxcrs_round_trip_with_and_without_diagnostics(self):
        bare = MaxCRSResult(location=Point(1.5, -2.25), total_weight=9.0)
        assert protocol.result_from_wire(protocol.result_to_wire(bare)) == bare
        rich = MaxCRSResult(
            location=Point(1.5, -2.25), total_weight=9.0,
            candidates=(Point(0.0, 0.0), Point(1.0, 1.0)),
            candidate_weights=(4.0, 9.0),
            rectangle_result=maxrs_result())
        assert protocol.result_from_wire(protocol.result_to_wire(rich)) == rich

    @given(x1=region_floats, y1=region_floats, x2=region_floats,
           y2=region_floats, weight=finite_floats, total=finite_floats)
    def test_float_bit_identity_property(self, x1, y1, x2, y2, weight, total):
        region = MaxRegion(x1=x1, y1=y1, x2=x2, y2=y2, weight=weight)
        result = MaxRSResult(location=Point(0.0, 0.0), region=region,
                             total_weight=total, io=None)
        # Through the full line codec, as the server actually ships it.
        line = protocol.encode_line({"result": protocol.result_to_wire(result)})
        decoded = protocol.result_from_wire(
            protocol.decode_line(line.strip())["result"])
        assert decoded.region == region
        assert decoded.total_weight == total

    def test_unknown_result_types_raise_typed(self):
        with pytest.raises(SerializationError):
            protocol.result_to_wire("what")
        with pytest.raises(SerializationError):
            protocol.result_from_wire({"type": "maxsphere"})
        with pytest.raises(SerializationError):
            protocol.result_from_wire({"type": "maxrs"})  # missing fields
        with pytest.raises(SerializationError):
            protocol.result_from_wire(["not", "a", "dict"])


class TestErrors:
    def test_known_errors_map_back_to_their_types(self):
        wire = protocol.error_to_wire(3, ServiceOverloadError("too busy"))
        assert wire == {"id": 3, "ok": False,
                        "error": "ServiceOverloadError", "message": "too busy"}
        exc = protocol.exception_from_wire(wire)
        assert isinstance(exc, ServiceOverloadError)
        assert "too busy" in str(exc)
        assert isinstance(protocol.exception_from_wire(
            protocol.error_to_wire(1, ServiceError("nope"))), ServiceError)

    def test_unknown_errors_degrade_to_repro_error(self):
        exc = protocol.exception_from_wire(
            {"error": "SomethingInternal", "message": "boom"})
        assert type(exc) is ReproError
        assert "SomethingInternal" in str(exc)
        # Arbitrary names never resolve to non-ReproError types.
        exc = protocol.exception_from_wire(
            {"error": "Exception", "message": "boom"})
        assert type(exc) is ReproError


class TestJsonable:
    def test_numpy_scalars_and_tuple_keys_become_json_types(self):
        tree = {
            "a": np.int64(3),
            "b": np.float64(0.5),
            ("tuple", "key"): (1, 2),
            "nested": [{"deep": np.float32(1.0)}],
            "none": None,
            "flag": True,
        }
        clean = protocol.jsonable(tree)
        import json
        encoded = json.loads(json.dumps(clean))
        assert encoded["a"] == 3
        assert encoded["b"] == 0.5
        assert encoded["('tuple', 'key')"] == [1, 2]
        assert encoded["nested"][0]["deep"] == 1.0
        assert encoded["none"] is None and encoded["flag"] is True
