"""Unit tests for :mod:`repro.core.slab` (division phase)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import record_passes
from external_cases import pool_state
from record_passes import spanned_slab_range
from repro.core import Slab, choose_boundaries, collect_edge_xs, make_subslabs, \
    partition_event_file
from repro.core import slab as slab_module
from repro.core.transform import build_event_file
from repro.em import EVENT_BOTTOM, EVENT_CODEC, EVENT_TOP, EMConfig, EMContext
from repro.errors import AlgorithmError
from repro.geometry import WeightedPoint


class TestSlab:
    def test_root_slab_is_unbounded(self):
        root = Slab.root()
        assert root.lo == -math.inf and root.hi == math.inf

    def test_x_range(self):
        slab = Slab(index=1, lo=2.0, hi=5.0)
        assert slab.x_range.lo == 2.0 and slab.x_range.hi == 5.0


class TestBoundaries:
    def test_choose_boundaries_quantiles(self):
        edges = [float(i) for i in range(100)]
        boundaries = choose_boundaries(edges, fanout=4)
        assert boundaries == [25.0, 50.0, 75.0]

    def test_choose_boundaries_unsorted_input(self):
        edges = [5.0, 1.0, 3.0, 2.0, 4.0, 0.0, 6.0, 7.0]
        boundaries = choose_boundaries(edges, fanout=2)
        assert boundaries == [4.0]

    def test_duplicate_edges_collapse(self):
        edges = [1.0] * 50
        assert choose_boundaries(edges, fanout=4) == []

    def test_empty_edges(self):
        assert choose_boundaries([], fanout=4) == []

    def test_fanout_below_two_rejected(self):
        with pytest.raises(AlgorithmError):
            choose_boundaries([1.0, 2.0], fanout=1)

    def test_make_subslabs(self):
        slabs = make_subslabs(Slab.root(), [0.0, 10.0])
        assert len(slabs) == 3
        assert slabs[0].lo == -math.inf and slabs[0].hi == 0.0
        assert slabs[1].lo == 0.0 and slabs[1].hi == 10.0
        assert slabs[2].lo == 10.0 and slabs[2].hi == math.inf
        assert [s.index for s in slabs] == [0, 1, 2]

    def test_make_subslabs_rejects_non_increasing(self):
        with pytest.raises(AlgorithmError):
            make_subslabs(Slab(0, 0.0, 10.0), [5.0, 5.0])


class TestCollectEdges:
    def test_collects_both_edges_inside_slab(self, tiny_ctx):
        objs = [WeightedPoint(5.0, 0.0), WeightedPoint(7.0, 1.0)]
        events = build_event_file(tiny_ctx, objs, 2.0, 2.0)
        edges = collect_edge_xs(events.read_blocks(), Slab.root())
        # Each object contributes 2 edges x 2 events = 4 entries.
        assert sorted(set(edges)) == [4.0, 6.0, 8.0]
        assert len(edges) == 8

    def test_edges_outside_slab_excluded(self, tiny_ctx):
        objs = [WeightedPoint(5.0, 0.0)]
        events = build_event_file(tiny_ctx, objs, 2.0, 2.0)
        edges = collect_edge_xs(events.read_blocks(), Slab(0, 4.5, 100.0))
        assert set(edges) == {6.0}

    def test_edges_on_boundary_excluded(self, tiny_ctx):
        objs = [WeightedPoint(5.0, 0.0)]
        events = build_event_file(tiny_ctx, objs, 2.0, 2.0)
        edges = collect_edge_xs(events.read_blocks(), Slab(0, 4.0, 6.0))
        assert list(edges) == []


class TestPartition:
    def _partition(self, ctx, objs, boundaries, width=2.0, height=2.0):
        events = build_event_file(ctx, objs, width, height)
        return partition_event_file(ctx, events, events.read_blocks(),
                                    Slab.root(), boundaries)

    def test_requires_boundaries(self, tiny_ctx):
        events = build_event_file(tiny_ctx, [WeightedPoint(0, 0)], 1.0, 1.0)
        with pytest.raises(AlgorithmError):
            partition_event_file(tiny_ctx, events, events.read_blocks(),
                                 Slab.root(), [])

    def test_requires_the_blocks_of_its_file(self, tiny_ctx, make_objects):
        events = build_event_file(tiny_ctx, make_objects(30, seed=2),
                                  2.0, 2.0)
        other = build_event_file(tiny_ctx, make_objects(29, seed=2),
                                 2.0, 2.0)
        assert events.num_blocks == other.num_blocks
        for blocks in (events.read_blocks()[1:], other.read_blocks()):
            with pytest.raises(AlgorithmError):
                partition_event_file(tiny_ctx, events, blocks, Slab.root(),
                                     [10.0])

    def test_non_spanning_rectangles_go_to_their_slab(self, tiny_ctx):
        objs = [WeightedPoint(2.0, 0.0), WeightedPoint(20.0, 0.0)]
        subs, spanning, slabs = self._partition(tiny_ctx, objs, [10.0])
        assert len(slabs) == 2
        assert len(subs[0]) == 2   # both events of the first object
        assert len(subs[1]) == 2
        assert len(spanning) == 0

    def test_rectangle_crossing_boundary_is_split(self, tiny_ctx):
        objs = [WeightedPoint(10.0, 0.0)]   # dual rect [9, 11] crosses x=10
        subs, spanning, _ = self._partition(tiny_ctx, objs, [10.0])
        assert len(subs[0]) == 2 and len(subs[1]) == 2
        assert len(spanning) == 0
        left = subs[0].read_all()
        right = subs[1].read_all()
        assert all(r[2] == 9.0 and r[3] == 10.0 for r in left)
        assert all(r[2] == 10.0 and r[3] == 11.0 for r in right)

    def test_wide_rectangle_produces_spanning_piece(self, tiny_ctx):
        # Dual rect [0, 30] spans the middle slab [10, 20] entirely.
        objs = [WeightedPoint(15.0, 0.0)]
        subs, spanning, slabs = self._partition(tiny_ctx, objs, [10.0, 20.0],
                                                width=30.0, height=2.0)
        assert len(subs[0]) == 2 and len(subs[2]) == 2
        assert len(subs[1]) == 0
        assert len(spanning) == 2
        for record in spanning.read_all():
            assert record[2] == 10.0 and record[3] == 20.0

    def test_spanning_weight_preserved(self, tiny_ctx):
        objs = [WeightedPoint(15.0, 0.0, 2.5)]
        _, spanning, _ = self._partition(tiny_ctx, objs, [10.0, 20.0],
                                         width=30.0, height=2.0)
        assert all(record[4] == 2.5 for record in spanning.read_all())

    def test_outputs_remain_sorted_by_y(self, tiny_ctx, make_objects):
        objs = make_objects(80, seed=9, extent=50.0)
        events = build_event_file(tiny_ctx, objs, 6.0, 6.0)
        from repro.em import EVENT_CODEC
        from repro.em.external_sort import external_sort
        sorted_events = external_sort(tiny_ctx, events, EVENT_CODEC, delete_input=True)
        subs, spanning, _ = partition_event_file(
            tiny_ctx, sorted_events, sorted_events.read_blocks(), Slab.root(),
            [15.0, 30.0])
        for file in (*subs, spanning):
            ys = [record[0] for record in file.read_all()]
            assert ys == sorted(ys)

    def test_event_kind_preserved_through_split(self, tiny_ctx):
        objs = [WeightedPoint(10.0, 0.0)]
        subs, _, _ = self._partition(tiny_ctx, objs, [10.0])
        kinds = sorted(record[1] for record in subs[0].read_all())
        assert kinds == [EVENT_TOP, EVENT_BOTTOM]


class TestSpannedRange:
    def test_full_middle_slab(self):
        slabs = make_subslabs(Slab(0, 0.0, 30.0), [10.0, 20.0])
        assert spanned_slab_range(slabs, 10.0, 20.0) == (1, 1)

    def test_multiple_slabs(self):
        slabs = make_subslabs(Slab(0, 0.0, 40.0), [10.0, 20.0, 30.0])
        assert spanned_slab_range(slabs, 0.0, 30.0) == (0, 2)

    def test_no_slab_fully_covered(self):
        slabs = make_subslabs(Slab(0, 0.0, 30.0), [10.0, 20.0])
        first, last = spanned_slab_range(slabs, 12.0, 18.0)
        assert first > last


# ---------------------------------------------------------------------- #
# The block-array division against the record-at-a-time reference
# ---------------------------------------------------------------------- #
_XS = (-math.inf, -3.0, -0.0, 0.0, 1.0, 2.5, 4.0, 7.0, 10.0, 1e300, math.inf)


@st.composite
def _division_inputs(draw):
    """y-sorted events with edges on and off the boundaries, signed zeros
    and infinite or huge x; a slab and boundaries inside it."""
    count = draw(st.integers(0, 120))
    events = []
    for _ in range(count):
        x1, x2 = sorted((draw(st.sampled_from(_XS)), draw(st.sampled_from(_XS))))
        events.append((float(draw(st.integers(0, 30))),
                       draw(st.sampled_from((EVENT_BOTTOM, EVENT_TOP))),
                       x1, x2, draw(st.sampled_from((0.0, 1.0, 2.5)))))
    events.sort()
    slab = draw(st.sampled_from((Slab.root(), Slab(2, -3.0, 7.0),
                                 Slab(1, 0.0, 10.0))))
    inside = sorted({x for x in (-0.0, 1.0, 2.5, 4.0) if slab.lo < x < slab.hi})
    boundaries = draw(st.lists(st.sampled_from(inside), min_size=1,
                               unique=True).map(sorted)) if inside else [4.0]
    return events, slab, boundaries


def _divide_once(events, slab, boundaries, warm, pool_blocks=8,
                 passes=slab_module):
    """Scan and partition with ``passes`` (the program's division or
    ``record_passes``) on a fresh pool of ``pool_blocks`` 256 B blocks
    (cleared between the two unless ``warm``, so the partition may or may
    not hit the scan's blocks): (files' bytes and counts, edges, pool
    state)."""
    ctx = EMContext(EMConfig(block_size=256, buffer_size=pool_blocks * 256))
    event_file = ctx.create_file(EVENT_CODEC).write_all(events)
    ctx.clear_cache()
    blocks = event_file.read_blocks()
    edges = [float(x).hex() for x in passes.collect_edge_xs(blocks, slab)]
    if not warm:
        ctx.clear_cache()
    subs, spanning, _ = passes.partition_event_file(ctx, event_file, blocks,
                                                    slab, boundaries)
    files = [(len(f), [ctx.device.peek(b) for b in f.block_ids])
             for f in (*subs, spanning)]
    return files, edges, pool_state(ctx)


class TestBlockDivision:
    @settings(max_examples=150, deadline=None)
    @given(_division_inputs(), st.booleans(), st.sampled_from((2, 3, 8)),
           st.sampled_from((None, 1, 2, 3)))
    def test_same_files_and_io_as_the_record_loops(self, inputs, warm,
                                                   pool_blocks, chunk):
        # Pools smaller than the file, and chunks of 1-3 input blocks:
        # neither may change a byte or a pool call.
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(slab_module, "_CHUNK_BLOCKS", chunk)
            rows = _divide_once(*inputs, warm, pool_blocks)
        expected = _divide_once(*inputs, warm, pool_blocks, record_passes)
        assert rows == expected

    def test_partition_rereads_hit_the_pool(self, tiny_ctx):
        # The edge scan leaves the file's last blocks resident; the
        # partition's reads of them are hits on both paths.
        events = sorted((float(y), EVENT_BOTTOM, float(y % 7), y % 7 + 3.0, 1.0)
                        for y in range(40))
        rows = _divide_once(events, Slab.root(), [2.0, 5.0], True)
        expected = _divide_once(events, Slab.root(), [2.0, 5.0], True,
                                passes=record_passes)
        assert rows == expected
        assert rows[2][2] > 0    # pool hits

    def test_blocks_one_input_block_completes_go_out_in_file_order(self):
        # 256 B blocks hold 6 events; the input takes blocks 0-3, so the
        # partition's writes get ids 4, 5, ...  Input block 0 completes a
        # block of sub-slab 1, block 1 one of sub-slab 0, and block 3 one
        # of each: sub-slab 1's first (record 18), sub-slab 0's last
        # (record 23).  The block path writes those two in file order, the
        # record loop in record order.
        right, left = (6.0, 7.0), (1.0, 2.0)
        xs = ([right] * 6 + [left] * 6 + [right] * 5 + [left]
              + [right] + [left] * 5)
        events = [(float(y), EVENT_BOTTOM, *x, 1.0) for y, x in enumerate(xs)]

        def ids(partition):
            ctx = EMContext(EMConfig(block_size=256, buffer_size=8 * 256))
            event_file = ctx.create_file(EVENT_CODEC).write_all(events)
            subs, spanning, _ = partition(
                ctx, event_file, event_file.read_blocks(), Slab.root(), [5.0])
            assert event_file.block_ids == [0, 1, 2, 3]
            assert len(spanning) == 0
            return [f.block_ids for f in subs]

        assert ids(partition_event_file) == [[5, 6], [4, 7]]
        assert ids(record_passes.partition_event_file) == [[5, 7], [4, 6]]

    def test_clipped_away_event_keeps_its_hline_in_the_spanning_file(
            self, tiny_ctx):
        # x = +-inf: the dual rectangle's x-range clips away to nothing.
        # It spans no sub-slab, but MergeSweep must still see its y.
        events = [(1.0, EVENT_BOTTOM, -math.inf, -math.inf, 1.0),
                  (2.0, EVENT_BOTTOM, 3.0, 6.0, 1.0),
                  (4.0, EVENT_TOP, math.inf, math.inf, 1.0)]
        event_file = tiny_ctx.create_file(EVENT_CODEC).write_all(events)
        subs, spanning, slabs = partition_event_file(
            tiny_ctx, event_file, event_file.read_blocks(), Slab.root(), [5.0])
        assert spanning.read_all() == [
            (1.0, EVENT_BOTTOM, -math.inf, -math.inf, 1.0),
            (4.0, EVENT_TOP, math.inf, math.inf, 1.0)]
        for record in spanning.read_all():
            assert spanned_slab_range(slabs, record[2], record[3]) == (1, 0)
        assert [len(f) for f in subs] == [1, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from((-0.0, 0.0, -2.0, 1.0, 2.5)), max_size=60),
           st.integers(2, 9), st.booleans())
    @example([0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -0.0, 3.0], 4, False)
    def test_choose_boundaries_picks_as_sorted_does(self, edges, fanout,
                                                    as_array):
        # Of equal edges, sorted() keeps the input order, and so the sign
        # of a zero boundary.
        given_edges = np.asarray(edges) if as_array else edges
        picks = choose_boundaries(given_edges, fanout)
        expected = record_passes.choose_boundaries(edges, fanout)
        assert [math.copysign(1.0, b) for b in picks] == \
            [math.copysign(1.0, b) for b in expected]
        assert picks == expected
        assert all(type(b) is float for b in picks)
