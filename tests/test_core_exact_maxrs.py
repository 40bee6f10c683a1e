"""Unit and integration tests for :mod:`repro.core.exact_maxrs` (Algorithm 2)."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from external_cases import (IO_PINS, SPECIAL_XS, check_against_in_memory,
                            measure_io, pool_state, use_record_paths)
from repro.baselines import brute_force_maxrs
from repro.core import ExactMaxRS, solve_in_memory
from repro.em import EMConfig, EMContext
from repro.errors import AlgorithmError, ConfigurationError
from repro.geometry import Rect, WeightedPoint, weight_in_rect


def _tiny_external_solver(ctx, width, height, memory_records=32, fanout=3):
    """A solver configured so even small datasets recurse externally."""
    return ExactMaxRS(ctx, width, height, fanout=fanout,
                      memory_records=memory_records)


class TestConfiguration:
    def test_invalid_rectangle_rejected(self, tiny_ctx):
        with pytest.raises(ConfigurationError):
            ExactMaxRS(tiny_ctx, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            ExactMaxRS(tiny_ctx, 1.0, -1.0)

    def test_fanout_below_two_rejected(self, tiny_ctx):
        with pytest.raises(ConfigurationError):
            ExactMaxRS(tiny_ctx, 1.0, 1.0, fanout=1)

    def test_memory_threshold_too_small_rejected(self, tiny_ctx):
        with pytest.raises(ConfigurationError):
            ExactMaxRS(tiny_ctx, 1.0, 1.0, memory_records=1)

    def test_defaults_derive_from_context(self, tiny_ctx):
        solver = ExactMaxRS(tiny_ctx, 1.0, 1.0)
        assert solver.fanout == tiny_ctx.merge_fanout()
        assert solver.memory_records == tiny_ctx.memory_capacity_records(40)


class TestCorrectness:
    def test_empty_dataset(self, tiny_ctx):
        result = _tiny_external_solver(tiny_ctx, 2.0, 2.0).solve([])
        assert result.total_weight == 0.0

    def test_single_object(self, tiny_ctx):
        result = _tiny_external_solver(tiny_ctx, 2.0, 2.0).solve([WeightedPoint(5, 5, 3.0)])
        assert result.total_weight == 3.0

    def test_in_memory_fast_path_used_for_small_inputs(self, tiny_ctx):
        solver = ExactMaxRS(tiny_ctx, 2.0, 2.0)   # default memory threshold
        result = solver.solve([WeightedPoint(0, 0), WeightedPoint(0.5, 0.5)])
        assert result.total_weight == 2.0
        assert result.recursion_levels == 0
        assert result.leaf_count == 1

    def test_in_memory_root_asks_for_the_best_strip_only(self, monkeypatch,
                                                          make_objects):
        # The root sweep of an input that fits in memory has no slab-file
        # to write, so it runs the best-only sweep solve_in_memory runs.
        from repro.core.backends import platform_backend

        backend_type = type(platform_backend())
        asked = []

        def spy(name):
            real = getattr(backend_type, name)

            def call(self, *args):
                asked.append(name)
                return real(self, *args)
            return call

        for name in ("sweep", "sweep_slabs"):
            monkeypatch.setattr(backend_type, name, spy(name))
        objs = make_objects(300, seed=12, extent=100.0)
        result = ExactMaxRS(EMContext(), 9.0, 6.0).solve(objs)
        assert asked == ["sweep"]
        assert (result.leaf_count, result.recursion_levels) == (1, 0)
        reference = solve_in_memory(objs, 9.0, 6.0)
        assert (result.region, result.total_weight) == \
            (reference.region, reference.total_weight)

    def test_forced_recursion_goes_deep(self, tiny_ctx, make_objects):
        objs = make_objects(300, seed=2, extent=200.0)
        solver = _tiny_external_solver(tiny_ctx, 20.0, 20.0)
        result = solver.solve(objs)
        assert result.recursion_levels >= 2
        assert result.leaf_count > 1
        assert result.total_weight == pytest.approx(
            solve_in_memory(objs, 20.0, 20.0).total_weight)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_in_memory_sweep_on_random_instances(self, seed):
        rng = random.Random(seed)
        objs = [WeightedPoint(rng.uniform(0, 100), rng.uniform(0, 100),
                              rng.choice([1.0, 2.0, 3.0]))
                for _ in range(rng.randint(50, 250))]
        width, height = rng.uniform(3, 25), rng.uniform(3, 25)
        ctx = EMContext(EMConfig(block_size=512, buffer_size=4096))
        result = _tiny_external_solver(ctx, width, height,
                                       memory_records=rng.choice([16, 48, 128]),
                                       fanout=rng.choice([2, 3, 5])).solve(objs)
        expected = solve_in_memory(objs, width, height).total_weight
        assert result.total_weight == pytest.approx(expected)

    def test_matches_brute_force(self, tiny_ctx):
        rng = random.Random(42)
        objs = [WeightedPoint(rng.uniform(0, 25), rng.uniform(0, 25))
                for _ in range(40)]
        result = _tiny_external_solver(tiny_ctx, 5.0, 5.0).solve(objs)
        _, expected = brute_force_maxrs(objs, 5.0, 5.0)
        assert result.total_weight == pytest.approx(expected)

    def test_reported_location_achieves_weight(self, tiny_ctx, make_objects):
        objs = make_objects(150, seed=5, extent=80.0)
        result = _tiny_external_solver(tiny_ctx, 10.0, 7.0).solve(objs)
        achieved = weight_in_rect(objs, Rect.centered_at(result.location, 10.0, 7.0))
        assert achieved == pytest.approx(result.total_weight)

    def test_weighted_objects(self, tiny_ctx):
        objs = [WeightedPoint(0.0, 0.0, 10.0),
                WeightedPoint(30.0, 30.0, 1.0), WeightedPoint(30.4, 30.4, 1.0),
                WeightedPoint(30.8, 30.8, 1.0)]
        result = _tiny_external_solver(tiny_ctx, 2.0, 2.0).solve(objs)
        assert result.total_weight == 10.0

    def test_duplicate_locations(self, tiny_ctx):
        objs = [WeightedPoint(5.0, 5.0)] * 40
        result = _tiny_external_solver(tiny_ctx, 1.0, 1.0).solve(objs)
        assert result.total_weight == 40.0

    def test_collinear_objects(self, tiny_ctx):
        objs = [WeightedPoint(float(i), 50.0) for i in range(60)]
        result = _tiny_external_solver(tiny_ctx, 10.0, 2.0).solve(objs)
        # An open 10-wide window centred between grid points covers 10 of the
        # unit-spaced points (e.g. (24.5, 34.5) contains 25..34).
        assert result.total_weight == 10.0


class TestAgreesWithInMemorySweep:
    """ExactMaxRS reports the in-memory sweep's region, bit for bit, also
    where an event's x-range clips away (its y stays an h-line)."""

    def test_object_at_infinite_x(self):
        objs = [WeightedPoint(-math.inf, 5, 1), WeightedPoint(15, 4, 2),
                WeightedPoint(12, 15, 2)]
        check_against_in_memory(objs, 1.0, 3.0, 256, 2, 4)
        result = ExactMaxRS(EMContext(EMConfig(block_size=256,
                                               buffer_size=2048)),
                            1.0, 3.0, fanout=2, memory_records=4).solve(objs)
        assert (result.region.y1, result.region.y2) == (2.5, 3.5)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
               st.one_of(st.integers(0, 20).map(float),
                         st.sampled_from(SPECIAL_XS)),
               st.integers(0, 20).map(float),
               st.sampled_from((0.0, 1.0, 2.0, 3.0))), min_size=1,
               max_size=40),
           st.integers(1, 8), st.integers(1, 8), st.sampled_from((256, 512)),
           st.integers(2, 5), st.sampled_from((4, 8, 16)))
    def test_lattice_and_special_xs(self, points, width, height, block_size,
                                    fanout, memory_records):
        objs = [WeightedPoint(x, y, w) for x, y, w in points]
        check_against_in_memory(objs, float(width), float(height),
                                block_size, fanout, memory_records)


class TestIOAccounting:
    def test_block_counts_are_pinned(self, monkeypatch):
        # The block-array passes charge what their record-at-a-time
        # references charge, for every pinned solver.
        assert measure_io() == IO_PINS
        use_record_paths(monkeypatch)
        assert measure_io() == IO_PINS

    def test_leaf_batches_stay_within_memory(self, monkeypatch):
        # Sibling leaves are swept in batches of at most memory_records
        # events (a lone leaf may be larger), and the pinned solves do
        # batch: the pins above hold with the slab-file writes deferred.
        import importlib

        exact_module = importlib.import_module("repro.core.exact_maxrs")
        real = exact_module.ExactMaxRS._sweep_slabs
        batches = []

        def spy(self, slabs):
            batches.append((self.memory_records,
                            [len(rows) for rows, _ in slabs]))
            return real(self, slabs)

        monkeypatch.setattr(exact_module.ExactMaxRS, "_sweep_slabs", spy)
        assert measure_io() == IO_PINS
        assert batches
        for memory, events in batches:
            assert sum(events) <= memory or len(events) == 1, (memory, events)
        assert any(len(events) > 1 for _, events in batches)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_passes_match_the_record_passes(self, seed):
        rng = random.Random(seed)
        objs = [WeightedPoint(float(rng.randint(0, 300)),
                              float(rng.randint(0, 300)),
                              rng.choice((1.0, 2.0, 0.5)))
                for _ in range(rng.randint(150, 400))]
        objs.append(WeightedPoint(math.inf, 7.0, 1.0))

        def solve():
            ctx = EMContext(EMConfig(block_size=256,
                                     buffer_size=rng.choice((4, 8)) * 256))
            result = ExactMaxRS(ctx, 20.0, 15.0, fanout=rng.randint(2, 6),
                                memory_records=rng.choice((16, 40))
                                ).solve(objs)
            return (result.region, result.total_weight, result.io,
                    result.leaf_count, result.recursion_levels,
                    pool_state(ctx)[:3])

        state = rng.getstate()
        rows = solve()
        rng.setstate(state)
        with pytest.MonkeyPatch.context() as patch:
            use_record_paths(patch)
            expected = solve()
        assert rows == expected
        assert rows[4] >= 2

    def test_io_is_reported_and_positive(self, tiny_ctx, make_objects):
        objs = make_objects(200, seed=6)
        result = _tiny_external_solver(tiny_ctx, 10.0, 10.0).solve(objs)
        assert result.io is not None
        assert result.io.block_reads > 0
        assert result.io.block_writes > 0

    def test_io_grows_roughly_linearly_with_cardinality(self):
        # Doubling the input should not blow up the I/O superlinearly (the
        # algorithm is O((N/B) log_{M/B}(N/B))).
        costs = {}
        for count in (200, 400):
            ctx = EMContext(EMConfig(block_size=512, buffer_size=4096))
            rng = random.Random(1)
            objs = [WeightedPoint(rng.uniform(0, 500), rng.uniform(0, 500))
                    for _ in range(count)]
            result = _tiny_external_solver(ctx, 20.0, 20.0).solve(objs)
            costs[count] = result.io.total
        assert costs[400] < 4 * costs[200]

    def test_temporary_files_are_released(self, tiny_ctx, make_objects):
        objs = make_objects(150, seed=8)
        solver = _tiny_external_solver(tiny_ctx, 8.0, 8.0)
        solver.solve(objs)
        # Everything the recursion allocated must have been freed again.
        assert tiny_ctx.device.num_allocated_blocks == 0


def _uniform_points(count, seed):
    rng = np.random.default_rng(seed)
    return [WeightedPoint(float(x), float(y), 1.0)
            for x, y in zip(rng.uniform(0.0, 1e6, count),
                            rng.uniform(0.0, 1e6, count))]


class TestDivisionAtTable3Sizes:
    """Table 3's EM sizes (4 KB blocks, a 1 MB buffer, 1K x 1K queries):
    the root divides a file larger than the buffer pool."""

    def test_partitions_match_the_record_loops(self, monkeypatch):
        objs = _uniform_points(15_000, seed=3)

        def solve():
            divisions = []
            divide = ExactMaxRS._divide

            def spy(self, event_file, slab, depth):
                divided = divide(self, event_file, slab, depth)
                subs, spanning, _ = divided
                files = [*subs, spanning]
                divisions.append((
                    event_file.num_blocks,
                    [(len(f), [self.ctx.device.peek(b) for b in f.block_ids])
                     for f in files],
                    sorted(b for f in files for b in f.block_ids),
                    pool_state(self.ctx)))
                return divided

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ExactMaxRS, "_divide", spy)
                ctx = EMContext()
                result = ExactMaxRS(ctx, 1000.0, 1000.0).solve(objs)
            return divisions, (result.region, result.total_weight, result.io,
                               pool_state(ctx)[:3])

        rows = solve()
        use_record_paths(monkeypatch)
        expected = solve()
        # The record loop writes the blocks one input block completes in
        # record order, the block path in file order: the same block ids,
        # given out in another order.
        assert rows == expected
        (blocks, *_), = rows[0]
        assert blocks > EMContext().pool.capacity_blocks

    def test_division_memory_stays_within_its_bound(self, monkeypatch):
        # The division holds the scanned blocks until the partition has
        # replayed them.  Its traced peak over the event file's bytes stays
        # at most 2.99, the peak when it kept the edge xs as a Python list
        # instead (freed before the partition).
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing")
        objs = _uniform_points(25_000, seed=7)
        ratios = []
        divide = ExactMaxRS._divide

        def traced(self, event_file, slab, depth):
            tracemalloc.start()
            try:
                return divide(self, event_file, slab, depth)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                ratios.append(peak / (len(event_file)
                                      * event_file.codec.record_size))

        monkeypatch.setattr(ExactMaxRS, "_divide", traced)
        ExactMaxRS(EMContext(), 1000.0, 1000.0).solve(objs)
        assert len(ratios) == 1 and ratios[0] <= 2.99, ratios


class TestTopK:
    def test_topk_returns_disjoint_strips_in_weight_order(self, tiny_ctx):
        objs = ([WeightedPoint(10.0, 10.0), WeightedPoint(10.3, 10.3),
                 WeightedPoint(10.6, 10.6)] +
                [WeightedPoint(50.0, 50.0), WeightedPoint(50.3, 50.3)] +
                [WeightedPoint(90.0, 90.0)])
        solver = _tiny_external_solver(tiny_ctx, 2.0, 2.0)
        results = solver.solve_topk(objs, k=3)
        assert len(results) >= 2
        weights = [r.total_weight for r in results]
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 3.0
        # Strips must not overlap vertically.
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                a, b = results[i].region, results[j].region
                assert a.y2 <= b.y1 or b.y2 <= a.y1

    def test_topk_k_must_be_positive(self, tiny_ctx):
        with pytest.raises(AlgorithmError):
            _tiny_external_solver(tiny_ctx, 1.0, 1.0).solve_topk([], k=0)

    def test_top1_matches_solve(self, tiny_ctx, make_objects):
        objs = make_objects(80, seed=10, extent=60.0)
        solver = _tiny_external_solver(tiny_ctx, 10.0, 10.0)
        top1 = solver.solve_topk(objs, k=1)
        full = solver.solve(objs)
        assert len(top1) == 1
        assert top1[0].total_weight == pytest.approx(full.total_weight)


class TestLayerSpans:
    """Every layer of a traced solve opens its span."""

    def test_sort_leaf_sweeps_and_merges_are_spans(self, monkeypatch,
                                                   make_objects):
        import importlib

        from repro import obs
        from repro.core.backends import platform_backend
        from repro.core.dispatch import solve_point_set

        exact_module = importlib.import_module("repro.core.exact_maxrs")
        merges = []
        real_merge = exact_module.merge_sweep

        def counting_merge(*args, **kwargs):
            merges.append(args[1])
            return real_merge(*args, **kwargs)

        monkeypatch.setattr(exact_module, "merge_sweep", counting_merge)

        # Counter deltas over each transform, division and leaf batch,
        # measured from outside the spans.
        io_deltas = {"exact_maxrs.transform": [], "exact_maxrs.divide": [],
                     "exact_maxrs.leaves": []}

        def measured(name, method):
            def wrapper(self, *args, **kwargs):
                start = self.ctx.stats.snapshot()
                result = method(self, *args, **kwargs)
                io = self.ctx.stats.since(start)
                io_deltas[name].append((io.block_reads, io.block_writes))
                return result
            return wrapper

        monkeypatch.setattr(exact_module.ExactMaxRS, "_transform", measured(
            "exact_maxrs.transform", exact_module.ExactMaxRS._transform))
        monkeypatch.setattr(exact_module.ExactMaxRS, "_divide", measured(
            "exact_maxrs.divide", exact_module.ExactMaxRS._divide))
        monkeypatch.setattr(exact_module.ExactMaxRS, "_sweep_leaves", measured(
            "exact_maxrs.leaves", exact_module.ExactMaxRS._sweep_leaves))
        recorder = obs.RingRecorder()
        tracer = obs.Tracer(recorder)
        objs = make_objects(300, seed=4)
        config = EMConfig(block_size=512, buffer_size=4 * 512)
        with tracer.trace("solve"):
            result = solve_point_set(objs, 6.0, 6.0, config=config,
                                     force_external=True)
        spans = list(recorder.last().root.iter_spans())
        by_id = {span.span_id: span for span in spans}

        # Leaves are swept in batches: one exact_maxrs.leaves span per
        # batch, holding its one backend.sweep.
        batches = [s for s in spans if s.name == "exact_maxrs.leaves"]
        assert sum(s.attributes["leaves"] for s in batches) == \
            result.leaf_count > 1
        leaf_sweeps = [s for s in spans if s.name == "backend.sweep"]
        assert sorted(by_id[s.parent_id].span_id for s in leaf_sweeps) == \
            sorted(s.span_id for s in batches)
        auto = platform_backend().name   # numpy wherever it imports
        for batch in batches:
            sweep = next(s for s in leaf_sweeps
                         if s.parent_id == batch.span_id)
            assert sweep.attributes["backend"] == auto
            assert sweep.attributes["slabs"] == batch.attributes["leaves"]
            assert sweep.attributes["events"] == \
                batch.attributes["events"] > 0
            assert batch.attributes["hlines"] > 0

        merge_spans = [s for s in spans if s.name == "exact_maxrs.merge"]
        assert len(merge_spans) == len(merges) >= 2   # one per internal node
        assert result.recursion_levels >= 3
        for span, sub_slabs in zip(merge_spans, merges):
            attrs = span.attributes
            assert attrs["sub_slabs"] == len(sub_slabs)
            assert attrs["records_in"] > 0 and attrs["hlines"] > 0
            assert attrs["block_reads"] > 0
            # Few records: one apply after the last read.
            assert attrs["applies"] == 1

        sorts = [s for s in spans if s.name == "exact_maxrs.sort"]
        assert len(sorts) == 1
        assert sorts[0].attributes["records"] == 2 * len(objs)

        transforms = [s for s in spans if s.name == "exact_maxrs.transform"]
        assert len(transforms) == 1
        assert transforms[0].attributes["records"] == len(objs)
        divides = [s for s in spans if s.name == "exact_maxrs.divide"]
        # One division per merge (divisions open before their children,
        # merges close after them, so compare as multisets).
        assert sorted(s.attributes["sub_slabs"] for s in divides) == \
            sorted(s.attributes["sub_slabs"] for s in merge_spans)
        assert all(s.attributes["records"] > 0 for s in divides)
        # The I/O attributes are the counters' deltas over each span.
        assert io_deltas["exact_maxrs.transform"] == [
            (s.attributes["block_reads"], s.attributes["block_writes"])
            for s in transforms]
        assert io_deltas["exact_maxrs.divide"] == [
            (s.attributes["block_reads"], s.attributes["block_writes"])
            for s in divides]
        assert all(reads > 0 and writes > 0
                   for reads, writes in io_deltas["exact_maxrs.divide"])
        assert io_deltas["exact_maxrs.leaves"] == [
            (s.attributes["block_reads"], s.attributes["block_writes"])
            for s in batches]
        assert all(reads > 0 and writes > 0
                   for reads, writes in io_deltas["exact_maxrs.leaves"])

        kernels = [s for s in spans if s.name in (
            "backend.sweep.prepare", "backend.sweep.kernel")]
        assert len(kernels) == 2 * len(leaf_sweeps)
        assert all(by_id[s.parent_id].name == "backend.sweep"
                   for s in kernels)
