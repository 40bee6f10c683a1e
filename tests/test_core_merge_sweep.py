"""Unit tests for :mod:`repro.core.merge_sweep` (Algorithm 1).

The most important property -- that dividing, conquering and merging yields
the same slab-file semantics as sweeping everything at once -- is exercised
here directly: events are partitioned with the real division code, each slab
is solved by the in-memory sweep, and the merged result is compared against a
single global sweep.
"""

import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExactMaxRS,
    Slab,
    choose_boundaries,
    collect_edge_xs,
    merge_sweep,
    partition_event_file,
    solve_in_memory,
    sweep_events,
    validate_slab_file_records,
    write_slab_file,
)
from repro.core.merge_sweep import heap_merge_sweep
from repro.core.transform import build_event_file
from repro.em import EVENT_CODEC, EMConfig, EMContext
from repro.em.external_sort import external_sort
from repro.errors import AlgorithmError
from repro.geometry import WeightedPoint


def _divide_and_merge(ctx, objs, width, height, fanout):
    """Run one full divide / conquer / merge round and return (file, best)."""
    events = build_event_file(ctx, objs, width, height)
    sorted_events = external_sort(ctx, events, EVENT_CODEC, delete_input=True)
    edges = collect_edge_xs(sorted_events, Slab.root())
    boundaries = choose_boundaries(edges, fanout)
    if not boundaries:
        pytest.skip("degenerate instance: no usable boundaries")
    subs, spanning, slabs = partition_event_file(
        ctx, sorted_events, Slab.root(), boundaries)
    slab_files = []
    for sub, slab in zip(subs, slabs):
        tuples, _ = sweep_events(sub.read_all(), slab.x_range)
        slab_files.append(write_slab_file(ctx, tuples))
    return merge_sweep(ctx, slabs, slab_files, spanning)


class TestMergeSweepAgainstGlobalSweep:
    @pytest.mark.parametrize("seed,fanout", [(0, 2), (1, 3), (2, 4), (3, 5), (4, 3)])
    def test_merged_optimum_matches_global_sweep(self, tiny_ctx, seed, fanout):
        rng = random.Random(seed)
        objs = [WeightedPoint(rng.uniform(0, 40), rng.uniform(0, 40),
                              rng.choice([1.0, 2.0]))
                for _ in range(rng.randint(20, 80))]
        width, height = rng.uniform(3, 15), rng.uniform(3, 15)
        merged, best = _divide_and_merge(tiny_ctx, objs, width, height, fanout)
        from repro.core.transform import objects_to_event_records
        _, expected = sweep_events(objects_to_event_records(objs, width, height))
        assert best.weight == pytest.approx(expected.weight)

    def test_merged_output_is_valid_slab_file(self, tiny_ctx):
        rng = random.Random(9)
        objs = [WeightedPoint(rng.uniform(0, 30), rng.uniform(0, 30))
                for _ in range(50)]
        merged, _ = _divide_and_merge(tiny_ctx, objs, 8.0, 8.0, 3)
        records = merged.read_all()
        assert records
        validate_slab_file_records(records)

    def test_spanning_rectangles_contribute_via_upsum(self, tiny_ctx):
        # A single wide rectangle spanning the middle slab plus a narrow one
        # inside it: the optimum (2) is only found if the spanning weight is
        # added back during the merge.
        wide = WeightedPoint(15.0, 0.0, 1.0)    # dual rect [0, 30] with width 30
        narrow = WeightedPoint(15.0, 0.5, 1.0)  # overlaps the wide one vertically
        events = build_event_file(tiny_ctx, [wide], 30.0, 4.0)
        events2 = build_event_file(tiny_ctx, [narrow], 2.0, 4.0)
        all_records = sorted(events.read_all() + events2.read_all())
        combined = tiny_ctx.create_file(EVENT_CODEC)
        combined.write_all(all_records)
        boundaries = [10.0, 20.0]
        subs, spanning, slabs = partition_event_file(
            tiny_ctx, combined, Slab.root(), boundaries)
        assert len(spanning) == 2    # the wide rectangle's two edges
        slab_files = []
        for sub, slab in zip(subs, slabs):
            tuples, _ = sweep_events(sub.read_all(), slab.x_range)
            slab_files.append(write_slab_file(tiny_ctx, tuples))
        _, best = merge_sweep(tiny_ctx, slabs, slab_files, spanning)
        assert best.weight == pytest.approx(2.0)

    def test_adjacent_equal_intervals_are_merged(self, tiny_ctx):
        # One rectangle split exactly at a boundary: the two halves tie and
        # touch, so GetMaxInterval should stitch them back together.
        objs = [WeightedPoint(10.0, 0.0)]
        events = build_event_file(tiny_ctx, objs, 4.0, 4.0)
        subs, spanning, slabs = partition_event_file(
            tiny_ctx, events, Slab.root(), [10.0])
        slab_files = []
        for sub, slab in zip(subs, slabs):
            tuples, _ = sweep_events(sub.read_all(), slab.x_range)
            slab_files.append(write_slab_file(tiny_ctx, tuples))
        merged, best = merge_sweep(tiny_ctx, slabs, slab_files, spanning)
        assert best.weight == 1.0
        assert best.x1 == pytest.approx(8.0)
        assert best.x2 == pytest.approx(12.0)


class TestMergeSweepValidation:
    def test_requires_at_least_one_slab(self, tiny_ctx):
        spanning = tiny_ctx.create_file(EVENT_CODEC)
        with pytest.raises(AlgorithmError):
            merge_sweep(tiny_ctx, [], [], spanning)

    def test_slab_file_count_must_match(self, tiny_ctx):
        spanning = tiny_ctx.create_file(EVENT_CODEC)
        slab_file = write_slab_file(tiny_ctx, [])
        with pytest.raises(AlgorithmError):
            merge_sweep(tiny_ctx, [Slab(0, 0.0, 1.0), Slab(1, 1.0, 2.0)],
                        [slab_file], spanning)

    def test_empty_inputs_give_zero_answer(self, tiny_ctx):
        spanning = tiny_ctx.create_file(EVENT_CODEC)
        slabs = [Slab(0, 0.0, 5.0), Slab(1, 5.0, 10.0)]
        files = [write_slab_file(tiny_ctx, []), write_slab_file(tiny_ctx, [])]
        merged, best = merge_sweep(tiny_ctx, slabs, files, spanning)
        assert best.weight == 0.0
        assert merged.read_all() == []


# ---------------------------------------------------------------------- #
# The block-batched merge against the heap merge
# ---------------------------------------------------------------------- #
# ``repro.core.merge_sweep`` is also the name of the function the package
# exports, so reach the module itself through importlib.
merge_module = importlib.import_module("repro.core.merge_sweep")

#: The block-batched merge runs only where numpy imports.
needs_numpy = pytest.mark.skipif(merge_module.np is None,
                                 reason="the block-batched merge needs numpy")

#: Integer and binary-fraction weights: every sum is exact, so both merges
#: must agree bit for bit.
_EXACT_WEIGHTS = (1.0, 2.0, 3.0, 0.5, 0.25, 1.5)


def _merge_inputs(ctx, objs, width, height, fanout):
    """Divide with the real code and sweep each sub-slab: merge inputs."""
    events = build_event_file(ctx, objs, width, height)
    sorted_events = external_sort(ctx, events, EVENT_CODEC, delete_input=True)
    boundaries = choose_boundaries(
        collect_edge_xs(sorted_events, Slab.root()), fanout)
    if not boundaries:
        return None
    subs, spanning, slabs = partition_event_file(
        ctx, sorted_events, Slab.root(), boundaries)
    slab_files = []
    for sub, slab in zip(subs, slabs):
        tuples, _ = sweep_events(sub.read_all(), slab.x_range)
        slab_files.append(write_slab_file(ctx, tuples))
    return slabs, slab_files, spanning


def _run_merge(merge, ctx, inputs):
    """One merge from a cold pool: (block bytes, records, best, (r, w))."""
    ctx.clear_cache()
    start = ctx.stats.snapshot()
    output, best = merge(ctx, *inputs)
    io = ctx.io_since(start)
    blocks = [ctx.device.peek(block_id) for block_id in output.block_ids]
    records = output.read_all()
    output.delete()
    return blocks, records, best, (io.block_reads, io.block_writes)


def _assert_same_merge(ctx, inputs):
    """The block-batched merge writes what the heap merge writes."""
    expected = _run_merge(heap_merge_sweep, ctx, inputs)
    actual = _run_merge(merge_sweep, ctx, inputs)
    assert actual[1] == expected[1]      # records
    assert actual[0] == expected[0]      # the very bytes of every block
    assert actual[2] == expected[2]      # best strip
    assert actual[3] == expected[3]      # block reads and writes
    return expected


def _spanning_file(ctx, events):
    spanning = ctx.create_file(EVENT_CODEC)
    spanning.write_all(events)
    return spanning


@st.composite
def _lattice_instances(draw):
    """Points on a lattice, so h-lines coincide across streams and
    max-intervals touch at sub-slab borders; wide rectangles span
    sub-slabs."""
    count = draw(st.integers(0, 70))
    cells = draw(st.integers(4, 40))
    objs = [WeightedPoint(float(draw(st.integers(0, cells))),
                          float(draw(st.integers(0, cells))),
                          draw(st.sampled_from(_EXACT_WEIGHTS)))
            for _ in range(count)]
    width = float(draw(st.integers(1, 24)))
    height = float(draw(st.integers(1, 12)))
    block_size = draw(st.sampled_from((256, 512, 1024)))
    fanout = draw(st.integers(2, 16))
    return objs, width, height, block_size, fanout


@needs_numpy
class TestBlockMergeMatchesHeapMerge:
    @settings(max_examples=120, deadline=None)
    @given(_lattice_instances())
    def test_differential_through_the_division_code(self, instance):
        objs, width, height, block_size, fanout = instance
        ctx = EMContext(EMConfig(block_size=block_size,
                                 buffer_size=8 * block_size))
        inputs = _merge_inputs(ctx, objs, width, height, fanout)
        if inputs is None:
            return
        _assert_same_merge(ctx, inputs)

    def test_hline_straddles_a_block_boundary(self, tiny_ctx):
        # Twelve spanning edges at y = 5 fill the spanning file's first
        # block (B = 12 at 512 B) and spill into the second, so the h-line
        # at y = 5 is read across a block boundary of that stream.
        slabs = [Slab(0, -math.inf, 10.0), Slab(1, 10.0, 20.0),
                 Slab(2, 20.0, math.inf)]
        files = [write_slab_file(tiny_ctx, [(1.0, 2.0, 4.0, 1.0),
                                            (5.0, 2.0, 4.0, 2.0),
                                            (9.0, 2.0, 4.0, 0.0)]),
                 write_slab_file(tiny_ctx, [(5.0, 12.0, 14.0, 1.0)]),
                 write_slab_file(tiny_ctx, [])]
        edges = [(float(y), 1.0, 10.0, 20.0, 1.0) for y in (2, 3, 4)]
        edges += [(5.0, 1.0, 10.0, 20.0, 0.5)] * 12
        edges += [(8.0, -1.0, 10.0, 20.0, 1.0)] * 3
        spanning = _spanning_file(tiny_ctx, edges)
        assert spanning.read_block_records(0)[-1][0] == 5.0
        assert spanning.read_block_records(1)[0][0] == 5.0
        _, records, best, _ = _assert_same_merge(
            tiny_ctx, (slabs, files, spanning))
        assert [r[0] for r in records] == [1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 9.0]
        assert best.weight == 10.0   # 3 + 12 * 0.5 + 1 at y = 5

    def test_one_stream_ends_while_others_continue(self, tiny_ctx):
        slabs = [Slab(0, -math.inf, 0.0), Slab(1, 0.0, 1.0),
                 Slab(2, 1.0, math.inf)]
        short = [(0.5, -3.0, -1.0, 1.0)]
        long_a = [(float(y), 0.2, 0.8, float(y % 5)) for y in range(60)]
        long_b = [(y + 0.25, 1.5, 2.0, float(y % 7)) for y in range(45)]
        files = [write_slab_file(tiny_ctx, short),
                 write_slab_file(tiny_ctx, long_a),
                 write_slab_file(tiny_ctx, long_b)]
        assert files[0].num_blocks == 1 and files[1].num_blocks > 3
        _assert_same_merge(
            tiny_ctx, (slabs, files, tiny_ctx.create_file(EVENT_CODEC)))

    def test_empty_slab_files_among_full_ones(self, tiny_ctx):
        slabs = [Slab(i, float(i), float(i + 1)) for i in range(5)]
        files = [write_slab_file(tiny_ctx, []),
                 write_slab_file(tiny_ctx, [(float(y), 1.2, 1.7, 1.0)
                                            for y in range(30)]),
                 write_slab_file(tiny_ctx, []),
                 write_slab_file(tiny_ctx, [(y + 0.5, 3.0, 4.0, 2.0)
                                            for y in range(20)]),
                 write_slab_file(tiny_ctx, [])]
        _assert_same_merge(
            tiny_ctx, (slabs, files, tiny_ctx.create_file(EVENT_CODEC)))

    def test_single_sub_slab(self, tiny_ctx):
        slabs = [Slab(0, -math.inf, math.inf)]
        tuples = [(float(y), -1.0, 1.0, float(y % 4)) for y in range(30)]
        edges = [(2.5, 1.0, -math.inf, math.inf, 2.0),
                 (20.5, -1.0, -math.inf, math.inf, 2.0)]
        _, records, best, _ = _assert_same_merge(
            tiny_ctx, ([slabs[0]], [write_slab_file(tiny_ctx, tuples)],
                       _spanning_file(tiny_ctx, edges)))
        assert len(records) == 32 and best.weight == 5.0

    def test_every_input_empty(self, tiny_ctx):
        slabs = [Slab(0, 0.0, 5.0), Slab(1, 5.0, 10.0)]
        files = [write_slab_file(tiny_ctx, []), write_slab_file(tiny_ctx, [])]
        _, records, best, io = _assert_same_merge(
            tiny_ctx, (slabs, files, tiny_ctx.create_file(EVENT_CODEC)))
        assert records == [] and io == (0, 0)
        assert best.weight == 0.0

    def test_spanning_edges_only(self, tiny_ctx):
        slabs = [Slab(i, float(10 * i), float(10 * i + 10)) for i in range(4)]
        files = [write_slab_file(tiny_ctx, []) for _ in slabs]
        edges = []
        for y in range(25):
            first = y % 4
            edges.append((float(y), 1.0, 10.0 * first, 40.0, 1.0 + y % 3))
            edges.append((y + 0.5, -1.0, 10.0 * first, 40.0, 1.0 + y % 3))
        edges.append((30.0, 1.0, 12.0, 18.0, 5.0))  # spans no sub-slab
        _, records, best, _ = _assert_same_merge(
            tiny_ctx, (slabs, files, _spanning_file(tiny_ctx, edges)))
        assert len(records) == 51
        # Sub-slabs without tuples keep their whole extent, so the first
        # weight-3 rectangle's two spanned sub-slabs report one interval.
        assert (best.weight, best.x1, best.x2) == (3.0, 20.0, 40.0)

    def test_spanning_edges_that_span_no_sub_slab(self, tiny_ctx):
        # Every spanning edge of the batch spans nothing (x in [1, 2] lies
        # inside sub-slab 0): the edges only add their h-lines.  upSum's
        # difference matrix is then built from no edge at all.
        slabs = [Slab(0, -math.inf, 5.0), Slab(1, 5.0, math.inf)]
        files = [write_slab_file(tiny_ctx, [(0.0, 1.0, 3.0, 2.0)]),
                 write_slab_file(tiny_ctx, [])]
        spanning = _spanning_file(tiny_ctx, [(1.0, 1.0, 1.0, 2.0, 1.0),
                                             (3.0, -1.0, 1.0, 2.0, 1.0)])
        _, records, best, _ = _assert_same_merge(
            tiny_ctx, (slabs, files, spanning))
        assert records == [(0.0, 1.0, 3.0, 2.0), (1.0, 1.0, 3.0, 2.0),
                           (3.0, 1.0, 3.0, 2.0)]
        assert (best.weight, best.y1, best.y2) == (2.0, 0.0, 1.0)

    def test_get_max_interval_chains(self, tiny_ctx, monkeypatch):
        # At y = 0 twelve sub-slabs touch and tie: the winner (the leftmost
        # maximum, sub-slab 0) extends across all of them, further than
        # the window around it, so the pass over every sub-slab runs.  At
        # y = 1 sub-slab 5 wins and the run takes three sub-slabs on each
        # side: 2-4 tie within the tolerance (one ulp-scale step below
        # 3), 6-8 tie exactly; 2 and 8 end inside their sub-slabs.
        m = 12
        almost = 3.0 - 2.0 ** -44
        slabs = [Slab(i, float(i), float(i + 1)) for i in range(m)]
        files = []
        for i in range(m):
            tuples = [(0.0, float(i), float(i + 1), 2.0)]
            if i == 2:
                tuples.append((1.0, 2.5, 3.0, almost))
            elif i in (3, 4):
                tuples.append((1.0, float(i), float(i + 1), almost))
            elif i in (5, 6, 7):
                tuples.append((1.0, float(i), float(i + 1), 3.0))
            elif i == 8:
                tuples.append((1.0, 8.0, 8.5, 3.0))
            files.append(write_slab_file(tiny_ctx, tuples))
        widths = []
        real_runs = merge_module._runs

        def spy(index, effective, x1s, x2s, winner, value, hline, start,
                width):
            widths.append(width)
            return real_runs(index, effective, x1s, x2s, winner, value,
                             hline, start, width)

        monkeypatch.setattr(merge_module, "_runs", spy)
        _, records, _, _ = _assert_same_merge(
            tiny_ctx, (slabs, files, tiny_ctx.create_file(EVENT_CODEC)))
        assert records[0][1:] == (0.0, 12.0, 2.0)     # all twelve
        assert records[1][1:] == (2.5, 8.5, 3.0)      # three either side
        assert m in widths                             # the wide pass ran

    def test_tile_boundary_inside_a_batch(self, tiny_ctx, monkeypatch):
        # Three h-lines per tile: every batch of this merge spans tiles.
        monkeypatch.setattr(merge_module, "_TILE_CELLS", 3 * 4)
        tiles = []
        batches = []
        real_tile = merge_module._TileSweep._tile
        real_apply = merge_module._TileSweep.apply

        def spy_tile(self, hlines, *args):
            tiles.append(len(hlines))
            return real_tile(self, hlines, *args)

        def spy_apply(self, batch):
            before = len(tiles)
            real_apply(self, batch)
            batches.append(len(tiles) - before)

        monkeypatch.setattr(merge_module._TileSweep, "_tile", spy_tile)
        monkeypatch.setattr(merge_module._TileSweep, "apply", spy_apply)
        rng = random.Random(5)
        objs = [WeightedPoint(float(rng.randint(0, 30)),
                              float(rng.randint(0, 30)),
                              rng.choice(_EXACT_WEIGHTS)) for _ in range(60)]
        inputs = _merge_inputs(tiny_ctx, objs, 9.0, 5.0, 4)
        _assert_same_merge(tiny_ctx, inputs)
        assert max(tiles) == 3
        assert max(batches) > 1   # some batch ran as several tiles

    def test_upsum_carried_across_tiles(self, tiny_ctx, monkeypatch):
        # Wide rectangles open in one tile and close tiles later, so the
        # carried upSum must survive the tile (and batch) boundaries.
        monkeypatch.setattr(merge_module, "_TILE_CELLS", 2 * 3)
        carried = []
        real_upsum = merge_module._TileSweep._upsum

        def spy(self, rows, spans, span_row):
            carried.append(bool(self.upsum.any()))
            return real_upsum(self, rows, spans, span_row)

        monkeypatch.setattr(merge_module._TileSweep, "_upsum", spy)
        slabs = [Slab(0, -math.inf, 10.0), Slab(1, 10.0, 20.0),
                 Slab(2, 20.0, math.inf)]
        left = [(float(y), 1.0, 2.0, float(y % 3)) for y in range(0, 40, 2)]
        middle = [(y + 1.0, 11.0, 12.0, 1.0) for y in range(0, 40, 4)]
        right = [(y + 0.5, 21.0, 25.0, 2.0) for y in range(0, 40, 5)]
        files = [write_slab_file(tiny_ctx, tuples)
                 for tuples in (left, middle, right)]
        edges = []
        for y in range(0, 30, 3):
            edges.append((y + 0.25, 1.0, 10.0, 20.0, 1.0))
            edges.append((y + 10.75, -1.0, 10.0, 20.0, 1.0))
        edges.sort()
        _assert_same_merge(
            tiny_ctx, (slabs, files, _spanning_file(tiny_ctx, edges)))
        assert any(carried)

    def test_records_at_infinite_y(self, tiny_ctx):
        # Edges of an object at y = +inf fill the spanning file's first
        # block and spill into the next: a stream whose unread block
        # starts at +inf still has to be read.
        slabs = [Slab(0, -math.inf, 0.0), Slab(1, 0.0, 5.0),
                 Slab(2, 5.0, math.inf)]
        left = [(float(y), -2.0, -1.0, 1.0) for y in range(10)]
        right = [(y + 0.5, 6.0, 7.0, 1.5) for y in range(20)]
        right.append((math.inf, 6.0, 7.0, 0.0))
        files = [write_slab_file(tiny_ctx, tuples)
                 for tuples in (left, [], right)]
        edges = [(3.0, 1.0, 0.0, 5.0, 1.0)]
        edges += [(math.inf, 1.0, 0.0, 5.0, 1.0)] * 8
        edges += [(math.inf, -1.0, 0.0, 5.0, 1.0)] * 9
        spanning = _spanning_file(tiny_ctx, edges)
        assert spanning.num_blocks > 1
        assert spanning.read_block_records(0)[-1][0] == math.inf
        _, records, best, _ = _assert_same_merge(
            tiny_ctx, (slabs, files, spanning))
        assert records[-1][0] == math.inf
        assert best.weight == 1.5


@needs_numpy
class TestExternalSolverBitIdentical:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60),
                              st.integers(1, 4)), max_size=120),
           st.integers(1, 20), st.integers(1, 20), st.integers(2, 8),
           st.sampled_from((256, 512)))
    def test_exact_maxrs_equals_in_memory_sweep(self, points, width, height,
                                               fanout, block_size):
        # Integer weights: every answer must be bit-identical -- the check
        # the benchmark makes on each solve.
        objs = [WeightedPoint(float(x), float(y), float(w))
                for x, y, w in points]
        ctx = EMContext(EMConfig(block_size=block_size,
                                 buffer_size=4 * block_size))
        result = ExactMaxRS(ctx, float(width), float(height), fanout=fanout,
                            memory_records=16).solve(objs)
        reference = solve_in_memory(objs, float(width), float(height))
        assert (result.region, result.total_weight) == \
            (reference.region, reference.total_weight)

