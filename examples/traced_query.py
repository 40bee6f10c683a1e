#!/usr/bin/env python3
"""End-to-end query introspection: watch one query walk through the engine.

The observability subsystem (:mod:`repro.obs`) records each query as a tree
of timed spans -- admission, cache lookup, the grid probe and prune, the
plane sweep, blob I/O -- and renders it as an indented tree.  Each answer
also carries a **cost ledger**, and the engine can **explain** a query's
plan without running it.  This demo registers a dataset on a persistent
engine with an in-memory ring recorder, then prints, for each of three
queries --

* one **cold query** (cache miss, approximate probe, pruned exact refine,
  the backend sweep at the bottom),
* the **same query again** (two spans: the cache does all the work), and
* a **bounded-error query** (``error_bound=``: the probe is served when
  the grid's best window bound certifies a small enough gap) --

the EXPLAIN plan the engine predicted, the rendered trace tree, and the
cost ledger the answer actually accrued.  It finishes with the slow-query
log firing, the per-stage self-time profile folded from every retained
trace (:func:`repro.obs.profile`), and a taste of the Prometheus text
exposition.

Run with::

    python examples/traced_query.py
"""

from __future__ import annotations

import json
import tempfile

import numpy as np

from repro import MaxRSEngine, QuerySpec, obs
from repro.geometry import WeightedPoint


def make_city(seed: int = 17, count: int = 12_000) -> list[WeightedPoint]:
    """A synthetic city: uniform background plus three dense hot spots."""
    rng = np.random.default_rng(seed)
    domain = 100_000.0
    background = int(count * 0.85)
    xs = list(rng.uniform(0.0, domain, background))
    ys = list(rng.uniform(0.0, domain, background))
    centres = rng.uniform(0.25 * domain, 0.75 * domain, size=(3, 2))
    for index in range(count - background):
        cx, cy = centres[index % 3]
        xs.append(float(np.clip(rng.normal(cx, 1_200.0), 0.0, domain)))
        ys.append(float(np.clip(rng.normal(cy, 1_200.0), 0.0, domain)))
    weights = rng.choice([1.0, 2.0, 3.0], size=len(xs))
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(xs, ys, weights)]


def show_plan(plan: dict) -> None:
    """Print the interesting lines of an EXPLAIN plan."""
    print(f"  path: {plan['path']}  "
          f"(cache would_hit={plan['cache']['would_hit']}, "
          f"sweeps on {plan['backend']})")
    estimates = plan.get("estimates")
    if estimates:
        print(f"  estimates: probe~{estimates['probe_points']} pts, "
              f"subset~{estimates['subset_points']} pts, "
              f"pruned~{estimates['pruned_points']} of "
              f"{plan['dataset_points']}")


def show_cost(result) -> None:
    """Print the cost ledger an answer carried back."""
    cost = result[0].cost if isinstance(result, tuple) else result.cost
    print("  cost: " + json.dumps(cost, default=str))


def main() -> None:
    objects = make_city()
    spec = QuerySpec.maxrs(3_000.0, 3_000.0)
    bounded = QuerySpec.maxrs(3_000.0, 3_000.0, error_bound=0.05)
    slow_log: list[str] = []

    print("Traced query demo")
    print("-----------------")
    with tempfile.TemporaryDirectory(prefix="repro-obs-") as persist_dir:
        engine = MaxRSEngine(tracer="ring", persist_dir=persist_dir)
        # Anything slower than a millisecond lands in the slow-query log --
        # a deliberately hair-trigger threshold so the demo shows it firing.
        engine.tracer.slow_query_log(0.001, sink=slow_log.append)

        dataset = engine.register_dataset(objects, name="city")

        # EXPLAIN first: the predicted plan, without running anything.
        print("\n== EXPLAIN (before running anything)")
        show_plan(engine.explain(dataset, spec))

        cold = engine.query(dataset, spec)
        cached = engine.query(dataset, spec)
        assert cached == cold  # bit-identical answer, straight from cache
        assert cached.cost["cache"] == "hit"
        approx = engine.query(dataset, bounded)

        recorder = engine.tracer.recorder
        register_trace = next(t for t in recorder.traces()
                              if t.name == "engine.register")
        cold_trace, cached_trace, approx_trace = [
            t for t in recorder.traces() if t.name == "engine.query"]

        print(f"\n== registration "
              f"(trace {register_trace.trace_id}, "
              f"{len(register_trace.spans())} spans)")
        print(register_trace.render())

        print(f"\n== cold query "
              f"(trace {cold_trace.trace_id}, "
              f"{len(cold_trace.spans())} spans)")
        print(cold_trace.render())
        show_cost(cold)

        print(f"\n== cached query "
              f"(trace {cached_trace.trace_id}, "
              f"{len(cached_trace.spans())} spans)")
        print(cached_trace.render())
        show_cost(cached)

        print(f"\n== bounded-error query (error_bound=0.05, "
              f"trace {approx_trace.trace_id}, "
              f"{len(approx_trace.spans())} spans)")
        print("  -- the plan the engine predicted:")
        show_plan(engine.explain(dataset, bounded, result=approx))
        print(approx_trace.render())
        show_cost(approx)

        print(f"\n== slow-query log ({len(slow_log)} entr"
              f"{'y' if len(slow_log) == 1 else 'ies'}, threshold 1 ms)")
        if slow_log:
            print(slow_log[-1].splitlines()[0])

        print("\n== per-stage self-time profile (all retained traces)")
        profile = engine.trace_profile()
        print(obs.render_profile(profile["stages"]))

        print("\n== metrics exposition (first 12 lines)")
        for line in obs.metrics_text(engine.metrics).splitlines()[:12]:
            print(line)

        print(f"\nbest region: {cold.region}  weight {cold.total_weight}")
        engine.close()


if __name__ == "__main__":
    main()
