"""The engine's stage contract: one instrumentation call per stage.

Every engine stage books itself once, and that one call feeds three
consumers that must agree: the ``engine.<stage>`` span of the query's
trace, the stage's timing histogram in ``stats()["stages"]``, and the
per-query cost ledger on ``result.cost``.  One cold query per query path,
on the default grid and on one with about four points per cell, pins all
three:

* the trace's ``engine.*`` spans are exactly the stages the path ran;
* the point counts and the certified gap the spans carry equal the
  ledger's;
* each stage's histogram counted the run and reports its percentiles.

Below the stages, every ``backend.sweep`` span splits into its event build,
its preparation (y sort, boundary compression) and its kernel, on either
sweep backend.
"""

import contextlib
import random

import pytest

from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

#: Query path -> (spec, the engine stages that path runs, in order).
PATHS = {
    "exact": (QuerySpec.maxrs(6.0, 6.0), ["approximate", "refine"]),
    "approximate": (QuerySpec.maxrs(7.0, 7.0, refine=False),
                    ["approximate"]),
    "bounded_certified": (QuerySpec.maxrs(60.0, 60.0, error_bound=5.0),
                          ["approximate", "descend"]),
    "bounded_fall_through": (QuerySpec.maxrs(5.0, 5.0, error_bound=1e-9),
                             ["approximate", "descend", "refine"]),
    "maxcrs": (QuerySpec.maxcrs(6.0), ["approximate", "refine"]),
    "maxkrs": (QuerySpec.maxkrs(8.0, 8.0, 2), ["maxkrs"]),
}


def _clustered(count=400, seed=5):
    """A dense hot spot over sparse background: every refining path in
    :data:`PATHS` prunes, so its refine span carries ``pruned=True``."""
    rng = random.Random(seed)
    points = [WeightedPoint(rng.uniform(0, 100), rng.uniform(0, 100),
                            rng.choice([1.0, 2.0])) for _ in range(count)]
    points += [WeightedPoint(50 + rng.uniform(-2, 2), 50 + rng.uniform(-2, 2))
               for _ in range(count // 2)]
    return points


@pytest.mark.parametrize("points_per_cell", [1, 4])
@pytest.mark.parametrize("path", sorted(PATHS))
def test_one_call_feeds_span_histogram_and_ledger(path, points_per_cell):
    spec, stages = PATHS[path]
    with MaxRSEngine(tracer="ring",
                     target_points_per_cell=points_per_cell) as engine:
        dataset = engine.register_dataset(_clustered())
        before = engine.stats()["stages"]
        result = engine.query(dataset, spec)
        after = engine.stats()["stages"]
        trace = engine.tracer.recorder.last()

    cost = (result[0] if isinstance(result, tuple) else result).cost
    assert cost["cache"] == "miss"
    if path.startswith("bounded"):
        assert cost["descent"]["certified"] is (path == "bounded_certified")

    spans = trace.find_all("engine.")
    assert spans[0] is trace.root and trace.root.name == "engine.query"
    assert [span.name for span in spans[1:]] == \
        [f"engine.{stage}" for stage in stages]

    by_stage = {span.name[len("engine."):]: span for span in spans[1:]}
    if "approximate" in by_stage:
        assert by_stage["approximate"].attributes["probe_points"] == \
            cost["probe_points"]
    if "refine" in by_stage:
        refine = by_stage["refine"].attributes
        assert refine["subset_points"] == cost["subset_points"]
        assert cost["subset_points"] < cost["dataset_points"]
        assert refine["pruned"] is True
    if "descend" in by_stage:
        assert by_stage["descend"].attributes.get("descent_gap") == \
            cost["descent"]["certified_gap"]

    ran = {name for name, summary in after.items()
           if summary["count"] != before.get(name, {}).get("count", 0)}
    assert ran == set(stages)
    for stage in stages:
        summary = after[stage]
        assert summary["count"] == before.get(stage, {}).get("count", 0) + 1
        assert 0.0 <= summary["p50_seconds"] <= summary["p99_seconds"]


def test_sweep_spans_split_into_events_prepare_and_kernel(pure_backend):
    # One query on the platform's backend and one on the reference: the
    # probe and the refine sweep both run on it, and each backend opens the
    # same three children.
    rng = random.Random(9)
    points = [WeightedPoint(rng.uniform(0, 100), rng.uniform(0, 100))
              for _ in range(4000)]
    for backend, forced in (("pure", pure_backend),
                            ("numpy", contextlib.nullcontext)):
        with forced(), MaxRSEngine(tracer="ring") as engine:
            dataset = engine.register_dataset(points)
            engine.query(dataset, QuerySpec.maxrs(10.0, 10.0))
            trace = engine.tracer.recorder.last()

        sweeps = [span for span in trace.find_all("backend.sweep")
                  if span.name == "backend.sweep"]
        assert [span.attributes["backend"] for span in sweeps] == \
            [backend, backend]
        for sweep in sweeps:
            children = sweep.children
            assert [child.name for child in children] == [
                "backend.sweep.events", "backend.sweep.prepare",
                "backend.sweep.kernel"]
            # In order, inside the parent (1 ms of slack for the wall clock
            # the start times come from).
            sweep_end = sweep.start_unix + sweep.duration_s
            previous_end = sweep.start_unix
            for child in children:
                assert child.start_unix >= previous_end - 1e-3
                previous_end = child.start_unix + child.duration_s
                assert previous_end <= sweep_end + 1e-3
            assert sum(child.duration_s for child in children) <= \
                sweep.duration_s
