"""Property-based tests (hypothesis) for the core data structures and invariants.

These complement the example-based tests with randomized invariants:

* the segment tree always agrees with a plain-list model;
* the external sort is a permutation-preserving sort under any key;
* record files round-trip arbitrary records;
* the in-memory plane sweep, the external ExactMaxRS and the brute-force
  oracle agree on arbitrary MaxRS instances, and the reported location always
  achieves the reported weight;
* ApproxMaxCRS never violates its (1/4) bound against the exact solver;
* slab partitioning conserves rectangle edges and spanning weight.
"""

import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_maxrs
from repro.circles import ApproxMaxCRS, exact_maxcrs
from repro.core import (
    ExactMaxRS,
    MaxAddSegmentTree,
    Slab,
    choose_boundaries,
    collect_edge_xs,
    partition_event_file,
    solve_in_memory,
    sweep_events,
    validate_slab_file_records,
)
from repro.core.transform import build_event_file, objects_to_event_records
from repro.em import EMConfig, EMContext, StructRecordCodec, external_sort
from repro.geometry import Circle, Rect, WeightedPoint, weight_in_circle, weight_in_rect

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------- #
# Strategies
# ---------------------------------------------------------------------- #
coordinates = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                        allow_infinity=False)
weights = st.sampled_from([0.5, 1.0, 2.0, 3.0])
objects_strategy = st.lists(
    st.builds(WeightedPoint, coordinates, coordinates, weights),
    min_size=0, max_size=40,
)
query_sizes = st.floats(min_value=0.5, max_value=30.0, allow_nan=False,
                        allow_infinity=False)


def _fresh_ctx():
    return EMContext(EMConfig(block_size=512, buffer_size=8 * 512))


# ---------------------------------------------------------------------- #
# Segment tree vs list model
# ---------------------------------------------------------------------- #
@_SETTINGS
@given(
    size=st.integers(min_value=1, max_value=40),
    operations=st.lists(
        st.tuples(st.integers(min_value=0, max_value=39),
                  st.integers(min_value=0, max_value=39),
                  st.sampled_from([-2.0, -1.0, 1.0, 2.5])),
        min_size=0, max_size=60),
)
def test_segment_tree_matches_list_model(size, operations):
    tree = MaxAddSegmentTree(size)
    model = [0.0] * size
    for lo, hi, delta in operations:
        lo, hi = lo % size, hi % size
        if lo > hi:
            lo, hi = hi, lo
        tree.range_add(lo, hi, delta)
        for index in range(lo, hi + 1):
            model[index] += delta
    assert math.isclose(tree.global_max(), max(model), abs_tol=1e-9)
    assert math.isclose(tree.global_min(), min(model), abs_tol=1e-9)
    argmax = tree.argmax_leftmost()
    assert math.isclose(model[argmax], max(model), abs_tol=1e-9)


# ---------------------------------------------------------------------- #
# External sort
# ---------------------------------------------------------------------- #
@_SETTINGS
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=0, max_size=400))
def test_external_sort_sorts_any_input(values):
    codec = StructRecordCodec("<d")
    ctx = _fresh_ctx()
    file = ctx.create_file(codec)
    file.write_all([(v,) for v in values])
    result = external_sort(ctx, file, codec)
    assert [v for (v,) in result.read_all()] == sorted(values)


@_SETTINGS
@given(records=st.lists(st.tuples(coordinates, coordinates, weights),
                        min_size=0, max_size=200))
def test_record_file_roundtrip(records):
    codec = StructRecordCodec("<ddd")
    ctx = _fresh_ctx()
    file = ctx.create_file(codec)
    file.write_all(records)
    assert file.read_all() == records
    assert len(file) == len(records)


# ---------------------------------------------------------------------- #
# MaxRS solvers agree and report achievable answers
# ---------------------------------------------------------------------- #
@_SETTINGS
@given(objects=objects_strategy, width=query_sizes, height=query_sizes)
# Two points 1e-12 short of one width apart: a fixed nudge off each
# rectangle edge steps past the thin class holding both.
@example(objects=[WeightedPoint(1.0, 0.0, 0.5), WeightedPoint(1e-12, 0.0, 0.5)],
         width=1.0, height=1.0)
def test_plane_sweep_matches_brute_force(objects, width, height):
    _, expected = brute_force_maxrs(objects, width, height)
    result = solve_in_memory(objects, width, height)
    assert math.isclose(result.total_weight, expected, abs_tol=1e-9)
    achieved = weight_in_rect(objects, Rect.centered_at(result.location, width, height))
    assert math.isclose(achieved, result.total_weight, abs_tol=1e-9)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(objects=objects_strategy, width=query_sizes, height=query_sizes,
       memory_records=st.sampled_from([8, 16, 64]),
       fanout=st.sampled_from([2, 3, 5]))
def test_external_solver_matches_in_memory(objects, width, height,
                                           memory_records, fanout):
    ctx = _fresh_ctx()
    solver = ExactMaxRS(ctx, width, height, fanout=fanout,
                        memory_records=memory_records)
    result = solver.solve(objects)
    expected = solve_in_memory(objects, width, height).total_weight
    assert math.isclose(result.total_weight, expected, abs_tol=1e-9)
    # The recursion must clean up every temporary block it allocated.
    assert ctx.device.num_allocated_blocks == 0


@_SETTINGS
@given(objects=objects_strategy, width=query_sizes, height=query_sizes)
def test_sweep_output_is_valid_slab_file(objects, width, height):
    records = objects_to_event_records(objects, width, height)
    tuples, best = sweep_events(records)
    validate_slab_file_records(tuples)
    if tuples:
        assert best.weight == max(t[3] for t in tuples)
    else:
        assert best.weight == 0.0


# ---------------------------------------------------------------------- #
# Division phase conservation laws
# ---------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(objects=st.lists(st.builds(WeightedPoint, coordinates, coordinates, weights),
                        min_size=2, max_size=40),
       width=query_sizes, height=query_sizes,
       fanout=st.sampled_from([2, 3, 4]))
def test_partition_conserves_events_and_weight(objects, width, height, fanout):
    ctx = _fresh_ctx()
    events = build_event_file(ctx, objects, width, height)
    blocks = events.read_blocks()
    boundaries = choose_boundaries(collect_edge_xs(blocks, Slab.root()),
                                   fanout)
    if not boundaries:
        return
    subs, spanning, slabs = partition_event_file(ctx, events, blocks,
                                                 Slab.root(), boundaries)
    # Every input event appears in at least one output file (it has at least
    # one piece), and per-y total weighted-width is conserved.
    input_records = events.read_all()
    output_records = [r for f in (*subs, spanning) for r in f.read_all()]

    def weighted_width(records):
        total = 0.0
        for y, kind, x1, x2, weight in records:
            total += kind * weight * (x2 - x1)
        return total

    assert math.isclose(weighted_width(input_records),
                        weighted_width(output_records), rel_tol=1e-9, abs_tol=1e-6)
    assert len(output_records) >= len(input_records)
    # Pieces never extend beyond their slab.
    for sub, slab in zip(subs, slabs):
        for _, _, x1, x2, _ in sub.read_all():
            assert x1 >= slab.lo - 1e-9 and x2 <= slab.hi + 1e-9


# ---------------------------------------------------------------------- #
# MaxCRS approximation bound
# ---------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(objects=st.lists(st.builds(WeightedPoint, coordinates, coordinates, weights),
                        min_size=1, max_size=30),
       diameter=st.floats(min_value=1.0, max_value=25.0, allow_nan=False))
def test_approx_maxcrs_respects_quarter_bound(objects, diameter):
    ctx = _fresh_ctx()
    approx = ApproxMaxCRS(ctx, diameter, memory_records=16, fanout=3).solve(objects)
    _, optimum = exact_maxcrs(objects, diameter)
    assert approx.total_weight >= optimum / 4.0 - 1e-9
    assert approx.total_weight <= optimum + 1e-9
    achieved = weight_in_circle(objects, Circle(approx.location, diameter))
    assert math.isclose(achieved, approx.total_weight, abs_tol=1e-9)
