"""Unit tests for :mod:`repro.core.transform`."""

import math

import numpy as np
import pytest

import record_passes
from external_cases import pool_state
from repro.core import (
    build_event_file,
    dual_rectangle,
    dual_rectangles,
    objects_file_to_event_file,
    objects_to_event_records,
    write_objects_file,
)
from repro.em import EVENT_BOTTOM, EVENT_TOP, EMConfig, EMContext
from repro.errors import GeometryError
from repro.geometry import Rect, WeightedPoint


class TestDualRectangles:
    def test_dual_rectangle_is_centered_at_object(self):
        obj = WeightedPoint(10.0, 20.0, 2.0)
        rect = dual_rectangle(obj, width=4.0, height=6.0)
        assert rect == Rect(8.0, 17.0, 12.0, 23.0)
        assert rect.center == obj.point

    def test_non_positive_size_rejected(self):
        with pytest.raises(GeometryError):
            dual_rectangle(WeightedPoint(0, 0), width=0.0, height=1.0)

    def test_dual_rectangles_carry_weights(self):
        objs = [WeightedPoint(0, 0, 1.0), WeightedPoint(5, 5, 3.0)]
        pairs = dual_rectangles(objs, 2.0, 2.0)
        assert [w for _, w in pairs] == [1.0, 3.0]

    def test_event_records_two_per_object(self):
        objs = [WeightedPoint(0, 0), WeightedPoint(1, 1)]
        records = objects_to_event_records(objs, 2.0, 2.0)
        assert len(records) == 4
        kinds = sorted(r[1] for r in records)
        assert kinds == [EVENT_TOP, EVENT_TOP, EVENT_BOTTOM, EVENT_BOTTOM]

    def test_event_records_geometry(self):
        records = objects_to_event_records([WeightedPoint(10.0, 20.0, 5.0)], 4.0, 6.0)
        bottom = next(r for r in records if r[1] == EVENT_BOTTOM)
        top = next(r for r in records if r[1] == EVENT_TOP)
        assert bottom == (17.0, EVENT_BOTTOM, 8.0, 12.0, 5.0)
        assert top == (23.0, EVENT_TOP, 8.0, 12.0, 5.0)

    def test_column_events_equal_object_records_bit_for_bit(self, make_objects):
        from repro.core.transform import columns_to_event_array

        objs = make_objects(300, seed=5, extent=1e6)
        xs, ys, ws = (np.array([getattr(o, field) for o in objs])
                      for field in ("x", "y", "weight"))
        for width, height in ((3.7, 1.1), (0.1, 12345.678)):
            events = columns_to_event_array(xs, ys, ws, width, height)
            expected = np.array(objects_to_event_records(objs, width, height))
            assert events.dtype == np.float64
            assert np.array_equal(events.view(np.int64),
                                  expected.view(np.int64))
        assert columns_to_event_array(xs[:0], ys[:0], ws[:0], 1.0, 1.0
                                      ).shape == (0, 5)
        with pytest.raises(GeometryError):
            columns_to_event_array(xs, ys, ws, 0.0, 1.0)


class TestFileTransforms:
    def test_write_objects_file_roundtrip(self, tiny_ctx, make_objects):
        objs = make_objects(50, seed=1)
        file = write_objects_file(tiny_ctx, objs)
        assert len(file) == 50
        restored = [tuple(r) for r in file.read_all()]
        assert restored == [(o.x, o.y, o.weight) for o in objs]

    def test_build_event_file_counts(self, tiny_ctx, make_objects):
        objs = make_objects(30, seed=2)
        events = build_event_file(tiny_ctx, objs, 5.0, 5.0)
        assert len(events) == 60

    def test_objects_file_to_event_file_matches_in_memory(self, tiny_ctx, make_objects):
        objs = make_objects(40, seed=3)
        objects_file = write_objects_file(tiny_ctx, objs)
        event_file = objects_file_to_event_file(tiny_ctx, objects_file, 3.0, 7.0)
        from_file = sorted(tuple(r) for r in event_file.read_all())
        in_memory = sorted(objects_to_event_records(objs, 3.0, 7.0))
        assert from_file == in_memory

    def test_transform_charges_linear_io(self, tiny_ctx, make_objects):
        objs = make_objects(200, seed=4)
        objects_file = write_objects_file(tiny_ctx, objs)
        tiny_ctx.clear_cache()
        tiny_ctx.reset_io()
        event_file = objects_file_to_event_file(tiny_ctx, objects_file, 3.0, 3.0)
        tiny_ctx.pool.flush()
        expected_reads = objects_file.num_blocks
        expected_writes = event_file.num_blocks
        assert tiny_ctx.stats.block_reads == expected_reads
        assert tiny_ctx.stats.block_writes == expected_writes

    def test_invalid_size_rejected(self, tiny_ctx, make_objects):
        objects_file = write_objects_file(tiny_ctx, make_objects(5))
        with pytest.raises(GeometryError):
            objects_file_to_event_file(tiny_ctx, objects_file, -1.0, 1.0)
        with pytest.raises(GeometryError):
            build_event_file(tiny_ctx, [], 1.0, 0.0)

    @pytest.mark.parametrize("count", [0, 1, 20, 171, 400])
    def test_block_transform_matches_the_record_loop(self, make_objects,
                                                     count):
        objs = make_objects(count, seed=count, extent=1e6)
        objs += [WeightedPoint(math.inf, 3.0, 1.0),
                 WeightedPoint(-0.0, -0.0, 0.0)]

        def transform(to_events):
            ctx = EMContext(EMConfig(block_size=512, buffer_size=4 * 512))
            objects_file = write_objects_file(ctx, objs)
            written = [ctx.device.peek(b) for b in objects_file.block_ids]
            ctx.clear_cache()
            events = to_events(ctx, objects_file, 3.7, 0.1)
            return (written, len(events),
                    [ctx.device.peek(b) for b in events.block_ids],
                    pool_state(ctx))

        rows = transform(objects_file_to_event_file)
        expected = transform(record_passes.objects_file_to_event_file)
        assert rows == expected
        assert rows[1] == 2 * len(objs)
