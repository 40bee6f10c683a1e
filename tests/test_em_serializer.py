"""Unit tests for :mod:`repro.em.serializer` and :mod:`repro.em.codecs`."""

import math

import pytest

from repro.em import (
    EVENT_BOTTOM,
    EVENT_CODEC,
    EVENT_TOP,
    MAX_INTERVAL_CODEC,
    OBJECT_CODEC,
    RECT_CODEC,
    StructRecordCodec,
    object_to_record,
    record_to_object,
    record_to_rect,
    rect_to_record,
)
from repro.errors import SerializationError
from repro.geometry import Rect, WeightedPoint


class TestStructRecordCodec:
    def test_record_size_from_format(self):
        assert StructRecordCodec("<dd").record_size == 16
        assert StructRecordCodec("<ddddd").record_size == 40

    def test_roundtrip_single_record(self):
        codec = StructRecordCodec("<ddd")
        record = (1.5, -2.25, 3.0)
        assert codec.decode_all(codec.encode_one(record)) == [record]

    def test_roundtrip_many_records(self):
        codec = StructRecordCodec("<dd")
        records = [(float(i), float(-i)) for i in range(10)]
        payload = codec.encode_block(records, block_size=160)
        assert codec.decode_all(payload) == records

    def test_infinities_roundtrip(self):
        codec = StructRecordCodec("<dd")
        record = (-math.inf, math.inf)
        assert codec.decode_all(codec.encode_one(record)) == [record]

    def test_wrong_arity_rejected(self):
        codec = StructRecordCodec("<dd")
        with pytest.raises(SerializationError):
            codec.encode_one((1.0, 2.0, 3.0))

    def test_decode_misaligned_buffer_rejected(self):
        codec = StructRecordCodec("<dd")
        with pytest.raises(SerializationError):
            codec.decode_all(b"\x00" * 17)

    def test_encode_block_respects_block_size(self):
        codec = StructRecordCodec("<d")
        records = [(float(i),) for i in range(8)]
        assert len(codec.encode_block(records, block_size=64)) == 64
        with pytest.raises(SerializationError):
            codec.encode_block([(float(i),) for i in range(9)], block_size=64)

    def test_decode_block_ignores_trailing_padding(self):
        codec = StructRecordCodec("<d")
        payload = codec.encode_one((7.0,)) + b"\x00" * 3
        assert codec.decode_block(payload) == [(7.0,)]


class TestConcreteCodecs:
    def test_record_sizes_match_documentation(self):
        assert OBJECT_CODEC.record_size == 24
        assert RECT_CODEC.record_size == 40
        assert MAX_INTERVAL_CODEC.record_size == 32
        assert EVENT_CODEC.record_size == 40

    def test_event_kinds_are_distinct_and_ordered(self):
        # Top events must sort before bottom events at the same y (see the
        # naive baseline's correctness argument).
        assert EVENT_TOP < EVENT_BOTTOM

    def test_object_record_roundtrip(self):
        obj = WeightedPoint(1.5, 2.5, 4.0)
        assert record_to_object(object_to_record(obj)) == obj

    def test_rect_record_roundtrip(self):
        rect = Rect(0.0, 1.0, 2.0, 3.0)
        record = rect_to_record(rect, 2.5)
        restored, weight = record_to_rect(record)
        assert restored == rect and weight == 2.5

    def test_object_codec_roundtrips_through_bytes(self):
        obj = WeightedPoint(10.25, -3.5, 7.0)
        payload = OBJECT_CODEC.encode_one(object_to_record(obj))
        assert record_to_object(OBJECT_CODEC.decode_all(payload)[0]) == obj
