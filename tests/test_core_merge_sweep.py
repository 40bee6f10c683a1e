"""Unit tests for :mod:`repro.core.merge_sweep` (Algorithm 1).

The most important property -- that dividing, conquering and merging yields
the same slab-file semantics as sweeping everything at once -- is exercised
here directly: events are partitioned with the real division code, each slab
is solved by the in-memory sweep, and the merged result is compared against a
single global sweep.
"""

import contextlib
import importlib
import itertools
import math
import random
from bisect import bisect_left, bisect_right

import numpy as np
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
from repro.core.beststrip import BestStripTracker
from repro.core.transform import build_event_file
from repro.em import EVENT_BOTTOM, EVENT_CODEC, EMConfig, EMContext
from repro.em.external_sort import external_sort
from repro.errors import AlgorithmError
from repro.geometry import WeightedPoint
import record_passes
from external_cases import pool_state


def _divide_and_merge(ctx, objs, width, height, fanout):
    """Run one full divide / conquer / merge round and return (file, best)."""
    events = build_event_file(ctx, objs, width, height)
    sorted_events = external_sort(ctx, events, EVENT_CODEC, delete_input=True)
    blocks = sorted_events.read_blocks()
    edges = collect_edge_xs(blocks, Slab.root())
    boundaries = choose_boundaries(edges, fanout)
    if not boundaries:
        pytest.skip("degenerate instance: no usable boundaries")
    subs, spanning, slabs = partition_event_file(
        ctx, sorted_events, blocks, Slab.root(), boundaries)
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
            tiny_ctx, combined, combined.read_blocks(), Slab.root(),
            boundaries)
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
            tiny_ctx, events, events.read_blocks(), Slab.root(), [10.0])
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

#: Integer and binary-fraction weights: every sum is exact, so both merges
#: must agree bit for bit.
_EXACT_WEIGHTS = (1.0, 2.0, 3.0, 0.5, 0.25, 1.5)


def _merge_inputs(ctx, objs, width, height, fanout, infinite=None):
    """Divide with the real code and sweep each sub-slab: merge inputs.

    Events of weight ``infinite`` get weight ``+inf`` (no object may have
    it)."""
    events = build_event_file(ctx, objs, width, height)
    if infinite is not None:
        rows = events.read_rows()
        rows[rows[:, 4] == infinite, 4] = math.inf
        events.delete()
        events = ctx.create_file(EVENT_CODEC).write_all(rows)
    sorted_events = external_sort(ctx, events, EVENT_CODEC, delete_input=True)
    blocks = sorted_events.read_blocks()
    boundaries = choose_boundaries(collect_edge_xs(blocks, Slab.root()),
                                   fanout)
    if not boundaries:
        return None
    subs, spanning, slabs = partition_event_file(
        ctx, sorted_events, blocks, Slab.root(), boundaries)
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


@contextlib.contextmanager
def _step_hlines(hlines):
    """Cap the block-batched merge's h-lines per step (and the records read
    between two applies) at ``hlines`` (``None``: the default) inside the
    block."""
    with pytest.MonkeyPatch.context() as patch:
        if hlines is not None:
            patch.setattr(merge_module, "_STEP_HLINES", hlines)
        yield


def _assert_same_merge(ctx, inputs):
    """The block-batched merge writes what the heap merge writes, with the
    default steps and with steps of one and three h-lines."""
    expected = _run_merge(record_passes.merge_sweep, ctx, inputs)
    for hlines in (None, 1, 3):
        with _step_hlines(hlines):
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
def _lattice_instances(draw, weights=_EXACT_WEIGHTS):
    """Points on a lattice, so h-lines coincide across streams and
    max-intervals touch at sub-slab borders; wide rectangles span
    sub-slabs."""
    count = draw(st.integers(0, 70))
    cells = draw(st.integers(4, 40))
    objs = [WeightedPoint(float(draw(st.integers(0, cells))),
                          float(draw(st.integers(0, cells))),
                          draw(st.sampled_from(weights)))
            for _ in range(count)]
    width = float(draw(st.integers(1, 24)))
    height = float(draw(st.integers(1, 12)))
    block_size = draw(st.sampled_from((256, 512, 1024)))
    fanout = draw(st.integers(2, 16))
    return objs, width, height, block_size, fanout


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

        def spy(pieces, winner, value, row, start, width):
            widths.append(width)
            return real_runs(pieces, winner, value, row, start, width)

        monkeypatch.setattr(merge_module, "_runs", spy)
        _, records, _, _ = _assert_same_merge(
            tiny_ctx, (slabs, files, tiny_ctx.create_file(EVENT_CODEC)))
        assert records[0][1:] == (0.0, 12.0, 2.0)     # all twelve
        assert records[1][1:] == (2.5, 8.5, 3.0)      # three either side
        # The window and the pass over every sub-slab ran.
        assert {2 * merge_module._CHAIN_REACH + 1, m} <= set(widths)

    def test_tile_boundary_inside_a_batch(self, tiny_ctx, monkeypatch):
        # Three h-lines per step: an apply runs once three records are
        # read, and the h-lines due by then span several steps.
        monkeypatch.setattr(merge_module, "_STEP_HLINES", 3)
        steps = []
        applies = []
        real_step = merge_module._StepSweep._step
        real_apply = merge_module._StepSweep.apply

        def spy_step(self, hlines, *args):
            steps.append(len(hlines))
            return real_step(self, hlines, *args)

        def spy_apply(self, batch):
            before = len(steps)
            real_apply(self, batch)
            applies.append(len(steps) - before)

        monkeypatch.setattr(merge_module._StepSweep, "_step", spy_step)
        monkeypatch.setattr(merge_module._StepSweep, "apply", spy_apply)
        rng = random.Random(5)
        objs = [WeightedPoint(float(rng.randint(0, 30)),
                              float(rng.randint(0, 30)),
                              rng.choice(_EXACT_WEIGHTS)) for _ in range(60)]
        inputs = _merge_inputs(tiny_ctx, objs, 9.0, 5.0, 4)
        _assert_same_merge(tiny_ctx, inputs)
        assert max(steps) == 3
        assert max(applies) > 1   # some apply ran as several steps
        assert len(applies) > 1   # applies wait for three records each

    def test_upsum_carried_across_tiles(self, tiny_ctx, monkeypatch):
        # Wide rectangles open in one step and close steps later, so the
        # carried upSum must survive the step (and apply) boundaries.
        monkeypatch.setattr(merge_module, "_STEP_HLINES", 2)
        carried = []
        real_step = merge_module._StepSweep._step

        def spy(self, hlines, *args):
            carried.append(bool(self.upsum.any()))
            return real_step(self, hlines, *args)

        monkeypatch.setattr(merge_module._StepSweep, "_step", spy)
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


def _reference_rows(sub_slabs, slab_files, spanning_file):
    """The merge rule, h-line by h-line, over the records of the inputs.

    ``upSum`` is each sub-slab's running sum of its edges' signed weights;
    the winner is ``np.argmax`` of base + ``upSum`` (the leftmost maximum,
    NaN first); ``GetMaxInterval`` extends it over touching neighbours that
    tie (``math.isclose``, as the heap merge's ``tie``).  Returns the
    slab-file rows as an ``(h, 4)`` array.
    """
    m = len(sub_slabs)
    los = [s.lo for s in sub_slabs]
    his = [s.hi for s in sub_slabs]
    base, upsum = np.zeros(m), np.zeros(m)
    x1, x2 = list(los), list(his)
    records = sorted(
        [(r[0], i, r) for i, f in enumerate(slab_files) for r in f.read_all()]
        + [(r[0], m, r) for r in spanning_file.read_all()],
        key=lambda item: item[0])
    rows = []
    with np.errstate(invalid="ignore", over="ignore"):
        for y, group in itertools.groupby(records, key=lambda item: item[0]):
            for _, stream, record in group:
                if stream < m:
                    _, x1[stream], x2[stream], base[stream] = record
                    continue
                _, kind, left, right, weight = record
                spanned = slice(bisect_left(los, left),
                                bisect_right(his, right))
                upsum[spanned] += weight if kind == EVENT_BOTTOM else -weight
            effective = base + upsum
            winner = int(np.argmax(effective))
            value = effective[winner]
            lo, hi = x1[winner], x2[winner]
            j = winner - 1
            while j >= 0 and x2[j] == lo and record_passes.tie(
                    float(effective[j]), float(value)):
                lo, j = x1[j], j - 1
            j = winner + 1
            while j < m and x1[j] == hi and record_passes.tie(
                    float(effective[j]), float(value)):
                hi, j = x2[j], j + 1
            rows.append((y, lo, hi, value))
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


def _assert_merge_follows_the_rule(ctx, inputs):
    """The block-batched merge writes the reference's rows, bit for bit,
    and picks its best strip as :class:`BestStripTracker` does, with the
    default steps and with steps of one and three h-lines."""
    expected = _reference_rows(*inputs)
    tracker = BestStripTracker()
    for row in expected.tolist():
        tracker.observe(*row)
    tracker.finish()
    for hlines in (None, 1, 3):
        with _step_hlines(hlines):
            output, best = merge_sweep(ctx, *inputs)
        assert output.read_rows().tobytes() == expected.tobytes()
        assert repr(best) == repr(tracker.best)   # NaN-safe
        output.delete()
    return expected


class TestMergeRule:
    """The block-batched merge against the merge rule itself, where the
    heap merge is no reference: once an infinite weight meets its opposite
    edge, the segment tree's nodes hold NaN and pick by their position."""

    def test_infinite_weights_follow_the_argmax_rule(self, tiny_ctx):
        # An infinite-weight rectangle spans sub-slabs 1-2 over y in
        # [2.5, 5.5): their sums are +inf there (their intervals touch at
        # x = 20 and tie, so one run), a tuple arriving keeps them +inf, and
        # after the top edge inf - inf leaves NaN, which np.argmax ranks
        # first.  The finite rectangle over every sub-slab must not turn
        # the sub-slabs the infinite one misses into NaN.
        slabs = [Slab(i, float(10 * i), float(10 * i + 10)) for i in range(4)]
        spans = [(1.0, 2.0), (11.0, 20.0), (20.0, 22.0), (31.0, 32.0)]
        files = [write_slab_file(tiny_ctx, [(float(y), *spans[i],
                                             float((y + i) % 3))
                                            for y in range(8)])
                 for i in range(4)]
        edges = [(1.5, 1.0, 0.0, 40.0, 2.0), (2.5, 1.0, 10.0, 30.0, math.inf),
                 (5.5, -1.0, 10.0, 30.0, math.inf),
                 (6.5, -1.0, 0.0, 40.0, 2.0)]
        rows = _assert_merge_follows_the_rule(
            tiny_ctx, (slabs, files, _spanning_file(tiny_ctx, edges)))
        by_y = {row[0]: tuple(row[1:]) for row in rows.tolist()}
        assert by_y[2.5] == (11.0, 22.0, math.inf)
        assert by_y[3.0][2] == math.inf
        assert math.isnan(by_y[5.5][2]) and math.isnan(by_y[7.0][2])
        assert not math.isnan(by_y[2.0][2])

    def test_nan_sums_win_and_tie_nothing(self, tiny_ctx):
        # At y = 2 sub-slab 0 sums to +inf and sub-slab 1 to NaN: NaN ranks
        # first, as np.argmax has it, and ties with nothing, so its run is
        # sub-slab 1 alone.  Before, zero sums tie and touch across the
        # sub-slabs (a -0.0 sum plus the carried upSum is 0.0).
        slabs = [Slab(i, float(i), float(i + 1)) for i in range(3)]
        files = [write_slab_file(tiny_ctx, [(0.0, 0.0, 1.0, -0.0),
                                            (2.0, 0.0, 1.0, math.inf)]),
                 write_slab_file(tiny_ctx, [(0.0, 1.0, 2.0, 0.0),
                                            (2.0, 1.0, 2.0, math.nan)]),
                 write_slab_file(tiny_ctx, [(1.0, 2.0, 2.5, -1.0)])]
        rows = _assert_merge_follows_the_rule(
            tiny_ctx, (slabs, files, tiny_ctx.create_file(EVENT_CODEC)))
        assert rows[:2].tolist() == [[0.0, 0.0, 3.0, 0.0],
                                     [1.0, 0.0, 2.0, 0.0]]
        assert rows[2, :3].tolist() == [2.0, 1.0, 2.0]
        assert math.isnan(rows[2, 3])

    @settings(max_examples=60, deadline=None)
    @given(_lattice_instances(weights=_EXACT_WEIGHTS + (7.0,)))
    def test_differential_with_infinite_weights(self, instance):
        objs, width, height, block_size, fanout = instance
        ctx = EMContext(EMConfig(block_size=block_size,
                                 buffer_size=8 * block_size))
        inputs = _merge_inputs(ctx, objs, width, height, fanout,
                               infinite=7.0)
        if inputs is None:
            return
        _assert_merge_follows_the_rule(ctx, inputs)

    def test_warm_full_pool_keeps_its_state(self):
        # Deferred applies move output writes past later reads.  From a
        # pool filled with other blocks, both merges must leave the same
        # reads, writes, hits and LRU order, and so must re-reading the
        # blocks that were resident before the merge.
        ctx = EMContext(EMConfig(block_size=512, buffer_size=32 * 512))
        rng = random.Random(11)
        objs = [WeightedPoint(float(rng.randint(0, 40)),
                              float(rng.randint(0, 40)),
                              rng.choice(_EXACT_WEIGHTS)) for _ in range(80)]
        inputs = _merge_inputs(ctx, objs, 12.0, 6.0, 5)
        warm = ctx.create_file(EVENT_CODEC)
        warm.write_all([(float(i), 1.0, 0.0, 1.0, 1.0)
                        for i in range(4 * ctx.pool.capacity_blocks
                                       * warm.records_per_block)])

        def merge_from_warm_pool(merge):
            ctx.clear_cache()
            for index in range(warm.num_blocks):
                warm.read_block_array(index)
            resident = list(ctx.pool._frames)
            assert len(resident) == ctx.pool.capacity_blocks
            before = pool_state(ctx)
            output, _ = merge(ctx, *inputs)
            after_merge = pool_state(ctx)
            for block_id in reversed(resident):   # newest first
                ctx.pool.get(block_id)
            after = pool_state(ctx)
            output.delete()
            # Counter deltas and the resident blocks, after the merge and
            # after the re-reads.
            return [tuple(b - a for a, b in zip(before[:3], state[:3]))
                    + state[3:] for state in (after_merge, after)]

        expected = merge_from_warm_pool(record_passes.merge_sweep)
        assert expected[0][2] == 0                 # the merge hits nothing
        # Some, not all, of the re-reads hit.
        assert 0 < expected[1][2] < ctx.pool.capacity_blocks
        for hlines in (None, 1, 3):
            with _step_hlines(hlines):
                assert merge_from_warm_pool(merge_sweep) == expected


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

