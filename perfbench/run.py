"""Run one benchmark workload and print its metrics as JSON.

Run from the repository root, which must hold ``src/repro`` and
``BENCHMARK.json``::

    python3 perfbench/run.py --workload uniform-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs the workload twice in one process -- untraced, then traced with the
layer wrappers of ``tracing.py`` -- and reports the per-layer metrics, the
workload-specific latencies of the untraced pass and the tracing overhead
(traced vs untraced throughput).  Metric names and units come from
``BENCHMARK.json``; METRICS.md explains each one.

The last stdout line is the result object; the line before it records the
run's resolved configuration, per-kind p50 latencies and any check
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

# The benchmark writes nothing into the checkout, bytecode caches included.
sys.dont_write_bytecode = True

WORKLOAD_NAMES = ("uniform-exact", "hotspot-serving", "paper-external")


def _self(name):
    return lambda base, traced, trace: trace.self_s.get(name, 0.0)


def _count(name):
    return lambda base, traced, trace: trace.counts.get(name, 0.0)


def _from_layer(name):
    return lambda base, traced, trace: traced.layer.get(name, 0.0)


def _p50(kind, scale=1.0):
    return lambda base, traced, trace: scale * _median(
        base.latencies.get(kind, []))


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _inclusive_gap(outer, inner):
    """Inclusive time of ``outer`` calls not spent inside ``inner`` calls."""
    def value(base, traced, trace):
        if not trace.total_s.get(outer):
            return 0.0
        return trace.total_s[outer] - trace.total_s.get(inner, 0.0)
    return value


def _ratio(numerator, denominator):
    def value(base, traced, trace):
        total = trace.counts.get(denominator, 0.0)
        return trace.counts.get(numerator, 0.0) / total if total else 0.0
    return value


def _sweep_share(base, traced, trace):
    """Event build plus sweep kernel, as a share of all operation time.

    The denominator sums every operation's latency, i.e. the wall time of
    each closed-loop client: concurrent clients' sweeps are not set
    against one wall clock.
    """
    seconds = sum(trace.self_s.get(layer, 0.0) for layer in (
        "core.transform.events", "core.backends.pure.sweep",
        "core.backends.numpy.sweep"))
    return seconds / sum(traced.latencies["all"])


def _throughput(outcome):
    """Median over the run's cycles of completed operations per second."""
    return _median([ops / seconds for ops, seconds in outcome.cycles])


END_TO_END = {
    "setup_s": lambda out: _median(out.setup_s),
    "throughput_qps": _throughput,
    "peak_rss_mb": lambda out: out.peak_rss_mb,
}

PER_LAYER = {
    "service.store.register_s": _self("service.store.register"),
    "service.store.subset_s": _self("service.store.subset"),
    "service.grid_index.build_s": _self("service.grid_index.build"),
    "service.grid_index.bounds_s": _self("service.grid_index.bounds"),
    "service.grid_index.gather_s": _self("service.grid_index.gather"),
    "service.grid_index.descend_s": _self("service.grid_index.descend"),
    "service.grid_index.certified_ratio":
        _from_layer("service.grid_index.certified_ratio"),
    "service.grid_index.swept_points":
        _from_layer("service.grid_index.swept_points"),
    "service.grid_index.prune_ratio":
        _from_layer("service.grid_index.prune_ratio"),
    "service.sharding.worker_s": _from_layer("service.sharding.worker_s"),
    "core.transform.events_s": _self("core.transform.events"),
    "core.backends.pure.sweep_s": _self("core.backends.pure.sweep"),
    "core.backends.numpy.sweep_s": _self("core.backends.numpy.sweep"),
    "core.backends.events": _count("core.backends.events"),
    "core.sweep_share": _sweep_share,
    "core.dispatch.topk_s": _self("core.dispatch.topk"),
    "circles.exact_maxcrs_s": _self("circles.exact_maxcrs"),
    "circles.exact_maxcrs_points": _count("circles.exact_maxcrs_points"),
    "service.cache.hit_ratio": _ratio("service.cache.hits",
                                      "service.cache.gets"),
    "service.cache.get_s": _self("service.cache.get"),
    "service.cache.invalidated": _count("service.cache.invalidated"),
    "service.engine.self_s": _self("service.engine.query"),
    "aio.engine.wait_s": _inclusive_gap("aio.engine.query",
                                        "service.engine.query"),
    "aio.engine.coalesce_ratio": _from_layer("aio.engine.coalesce_ratio"),
    "aio.protocol.codec_s": _self("aio.protocol.codec"),
    "aio.wire_s": _inclusive_gap("aio.client.query", "aio.engine.query"),
    "em.external_sort_s": _self("em.external_sort"),
    "core.merge_sweep.merge_s": _self("core.merge_sweep.merge"),
    "circles.coverage_s": _self("circles.coverage"),
    "em.block_reads": _from_layer("em.block_reads"),
    "em.block_writes": _from_layer("em.block_writes"),
    "core.exact_maxrs.recursion_levels":
        _from_layer("core.exact_maxrs.recursion_levels"),
    "core.exact_maxrs.leaf_count": _from_layer("core.exact_maxrs.leaf_count"),
    "cold_p50_s": _p50("cold"),
    "hit_p50_ms": _p50("hit", 1000.0),
    "bounded_p50_s": _p50("bounded"),
    "maxcrs_p50_s": _p50("maxcrs"),
    "maxkrs_p50_s": _p50("maxkrs"),
    "write_p50_s": _p50("write"),
    "exactmaxrs_s": _p50("exactmaxrs"),
    "approxmaxcrs_s": _p50("approxmaxcrs"),
    "exactmaxrs_io_blocks": _from_layer("exactmaxrs_io_blocks"),
    "approxmaxcrs_io_blocks": _from_layer("approxmaxcrs_io_blocks"),
    "trace.overhead_frac":
        lambda base, traced, trace: 1.0 - _throughput(traced)
        / _throughput(base),
}


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The program's shared-memory arenas start it; it would otherwise end
    only after this process, on the closed pipe.
    """
    from multiprocessing import resource_tracker
    resource_tracker._resource_tracker._stop()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, src)

    started = time.perf_counter()
    import workloads
    from tracing import LayerTrace
    import_s = time.perf_counter() - started

    run = workloads.WORKLOADS[args.workload]
    if args.trace:
        trace = LayerTrace()
        base = run(args.seed, args.seconds, setups=1)
        traced = run(args.seed, args.seconds, trace=trace, setups=1)
        outcomes = [base, traced]
        metrics = {spec["name"]: (PER_LAYER[spec["name"]](base, traced, trace),
                                  spec["unit"])
                   for spec in declared["per_layer"]}
    else:
        base = run(args.seed, args.seconds)
        outcomes = [base]
        metrics = {spec["name"]: (END_TO_END[spec["name"]](base), spec["unit"])
                   for spec in declared["end_to_end"]}
    _stop_resource_tracker()

    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "import_s": import_s, "config": base.config,
        "latency_p50_s": {kind: _median(values)
                          for kind, values in sorted(base.latencies.items())},
        "problems": [p for out in outcomes for p in out.problems],
    }))
    print(json.dumps({
        "correct": not any(out.failed for out in outcomes),
        "attempted": sum(out.attempted for out in outcomes),
        "failed": sum(out.failed for out in outcomes),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
