"""Concurrent-client throughput of the asyncio serving front-end.

When many clients hit one resident engine *concurrently*, what does the
async front-end (:mod:`repro.aio`) cost against the same workload issued as
naive sequential ``query()`` calls?  The front-end answers cache hits on its
event loop, coalesces identical in-flight queries, and solves every miss on
its one solver thread under bounded admission.

Two mixes bound the answer:

* **hot-key** -- 64 clients drawing from a few popular sizes, many of them
  in flight at the same moment.  Coalescing collapses the stampede: one
  solve per distinct size, everyone else awaits the shared future, and
  once an answer is cached it is served on the loop.
* **uniform-key** -- 64 clients each asking something different.  Nothing to
  coalesce or hit: every query is a cold solve, one at a time on the solver
  thread, so the ratio measures the front-end's overhead per solve.

Answers must stay **bit-identical** to the sequential sync engine's on every
query, and every hot-key query must be admitted, coalesced or a loop hit --
both asserted at every scale, on every host.  Each mix runs both sides in
``ROUNDS`` alternating rounds; the median round's speedup is recorded into
the artefact log and the ``BENCH_async_*.json`` entries, which
``make bench-gate`` compares.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

import numpy as np

from _bench_utils import write_bench_json
from repro.aio import AsyncMaxRSEngine
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

#: Paper-scale cardinality of the serving benchmark dataset.
PAPER_CARDINALITY = 50_000

#: The concurrent workload: how many clients, how many queries each.
CLIENTS = 64
QUERIES_PER_CLIENT = 4

_DOMAIN = 1_000_000.0


def _hotspot_dataset(cardinality: int, seed: int = 7) -> list[WeightedPoint]:
    """Uniform background (90%) plus five dense hot spots (10%)."""
    rng = np.random.default_rng(seed)
    background = int(cardinality * 0.9)
    hot = cardinality - background
    xs = list(rng.uniform(0.0, _DOMAIN, background))
    ys = list(rng.uniform(0.0, _DOMAIN, background))
    centres = rng.uniform(0.2 * _DOMAIN, 0.8 * _DOMAIN, size=(5, 2))
    sigma = 0.005 * _DOMAIN
    for index in range(hot):
        cx, cy = centres[index % 5]
        xs.append(float(np.clip(rng.normal(cx, sigma), 0.0, _DOMAIN)))
        ys.append(float(np.clip(rng.normal(cy, sigma), 0.0, _DOMAIN)))
    weights = rng.choice([1.0, 2.0, 3.0], size=cardinality)
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(xs, ys, weights)]


def _sizes(count: int, seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    return [(round(float(rng.uniform(0.002, 0.05) * _DOMAIN), 1),
             round(float(rng.uniform(0.002, 0.05) * _DOMAIN), 1))
            for _ in range(count)]


def _hot_key_workload(seed: int = 11) -> list[list[QuerySpec]]:
    """Per-client query streams drawn from 8 popular sizes (hot-key mix)."""
    sizes = _sizes(8, seed=3)
    rng = np.random.default_rng(seed)
    clients = []
    for _ in range(CLIENTS):
        # Zipf-flavoured popularity: half the traffic on the two hottest keys.
        picks = rng.choice(len(sizes), size=QUERIES_PER_CLIENT,
                           p=np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05,
                                       0.05]))
        clients.append([QuerySpec.maxrs(*sizes[int(p)]) for p in picks])
    return clients


#: The uniform mix issues fewer, smaller queries per client: every one is a
#: distinct cold solve (no cache, no coalescing), so the per-query cost --
#: not the query count -- is what exercises the admission path.
UNIFORM_QUERIES_PER_CLIENT = 2


def _uniform_key_workload(seed: int = 29) -> list[list[QuerySpec]]:
    """Per-client streams over distinct sizes (nothing to coalesce)."""
    rng = np.random.default_rng(seed)
    sizes = [(round(float(rng.uniform(0.002, 0.015) * _DOMAIN), 1),
              round(float(rng.uniform(0.002, 0.015) * _DOMAIN), 1))
             for _ in range(CLIENTS * UNIFORM_QUERIES_PER_CLIENT)]
    return [[QuerySpec.maxrs(*sizes[client * UNIFORM_QUERIES_PER_CLIENT + i])
             for i in range(UNIFORM_QUERIES_PER_CLIENT)]
            for client in range(CLIENTS)]


def _sequential_baseline(objects, clients):
    """Naive serving: every query issued back to back on one sync engine."""
    engine = MaxRSEngine()
    dataset = engine.register_dataset(objects)
    start = time.perf_counter()
    results = [[engine.query(dataset, spec) for spec in stream]
               for stream in clients]
    seconds = time.perf_counter() - start
    engine.close()
    return results, seconds


def _concurrent_async(objects, clients):
    """The same queries from concurrent client coroutines via repro.aio."""

    async def run():
        async with AsyncMaxRSEngine(max_inflight=max(4, os.cpu_count() or 1),
                                    overflow="wait") as front:
            dataset = await front.register_dataset(objects)

            async def one_client(stream):
                return [await front.query(dataset, spec) for spec in stream]

            start = time.perf_counter()
            results = await asyncio.gather(
                *(one_client(stream) for stream in clients))
            seconds = time.perf_counter() - start
            return results, seconds, front.stats()["aio"]

    return asyncio.run(run())


def _assert_bit_identical(async_results, sync_results):
    for async_stream, sync_stream in zip(async_results, sync_results):
        for got, want in zip(async_stream, sync_stream):
            assert got.total_weight == want.total_weight
            assert got.region == want.region
            assert got.location == want.location


#: Rounds per mix.  Each side of a round lasts 0.1-0.8 s at the fast
#: preset, inside the host's +-30% swings, so the sides alternate which runs
#: first and the median round's ratio is the recorded speedup.
ROUNDS = 5


def _run_mix(mix_name, clients, objects, report, artefact_dir, cardinality):
    """Time both sides over ``ROUNDS`` alternating rounds; returns the
    median speedup and each round's front-end stats."""
    sync_seconds, async_seconds, rounds = [], [], []
    for index in range(ROUNDS):
        if index % 2:
            async_results, seconds, aio = _concurrent_async(objects, clients)
            sync_results, baseline = _sequential_baseline(objects, clients)
        else:
            sync_results, baseline = _sequential_baseline(objects, clients)
            async_results, seconds, aio = _concurrent_async(objects, clients)
        _assert_bit_identical(async_results, sync_results)
        sync_seconds.append(baseline)
        async_seconds.append(seconds)
        rounds.append(aio)

    total = sum(len(stream) for stream in clients)
    ratios = [b / a for b, a in zip(sync_seconds, async_seconds)]
    speedup = statistics.median(ratios)
    sync_median = statistics.median(sync_seconds)
    async_median = statistics.median(async_seconds)
    cores = os.cpu_count() or 1
    aio = rounds[-1]
    latency = aio["latency"]["maxrs"]
    report(
        f"[service-async] {mix_name} mix "
        f"(|O|={cardinality}, {len(clients)} concurrent clients x "
        f"{len(clients[0])} queries, {cores} cores, medians of {ROUNDS} "
        f"alternating rounds):\n"
        f"  sequential sync query() x{total}:   {sync_median:8.3f} s "
        f"({total / sync_median:10.1f} queries/s)\n"
        f"  async concurrent clients:           {async_median:8.3f} s "
        f"({total / async_median:10.1f} queries/s)\n"
        f"  speedup: {speedup:5.2f}x (rounds: "
        f"{' '.join(f'{ratio:.2f}' for ratio in ratios)})\n"
        f"  last round: admitted: {aio['admitted']}   "
        f"coalesce hits: {aio['coalesce_hits']}   "
        f"loop hits: {aio['loop_hits']}   rejected: {aio['rejected']}\n"
        f"  latency p50/p95/p99: {latency['p50_seconds'] * 1e3:.2f} / "
        f"{latency['p95_seconds'] * 1e3:.2f} / "
        f"{latency['p99_seconds'] * 1e3:.2f} ms\n"
        f"  answers: bit-identical to the sequential sync engine on all "
        f"{total} queries of every round"
    )
    write_bench_json(
        f"async_{mix_name.replace('-', '_')}", artefact_dir,
        workload={"cardinality": cardinality, "clients": len(clients),
                  "queries": total, "mix": mix_name},
        config={"max_inflight": max(4, cores), "overflow": "wait",
                "cores": cores, "rounds": ROUNDS},
        seconds=async_median, baseline_seconds=sync_median,
        speedup=speedup,
        # Latency rides in extra (reported, not gated): under this
        # deliberately-overloaded workload (64 clients, max_inflight 4,
        # overflow="wait") the per-query p50 is queue-wait -- where a
        # coalescing follower lands inside the leader's solve window --
        # and swings ~30x run-to-run on identical code.  `speedup` stays
        # the tracked metric for this benchmark.
        extra={"round_speedups": ratios,
               "admitted": aio["admitted"],
               "coalesce_hits": aio["coalesce_hits"],
               "loop_hits": aio["loop_hits"],
               "rejected": aio["rejected"],
               "latency": aio["latency"]})
    return speedup, rounds


def test_async_hot_key_throughput(scale, report, artefact_dir):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _hotspot_dataset(cardinality)
    clients = _hot_key_workload()
    speedup, rounds = _run_mix("hot-key", clients, objects, report,
                               artefact_dir, cardinality)
    # The stampede must actually coalesce: 256 queries over 8 distinct specs
    # from 64 concurrent clients cannot all be admitted individually.  Every
    # query is admitted, coalesced, or a cache hit answered on the loop, in
    # every round.
    for aio in rounds:
        assert aio["coalesce_hits"] > 0
        assert aio["admitted"] + aio["coalesce_hits"] + aio["loop_hits"] == \
            CLIENTS * QUERIES_PER_CLIENT


def test_async_uniform_key_throughput(scale, report, artefact_dir):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _hotspot_dataset(cardinality, seed=13)
    clients = _uniform_key_workload()
    _run_mix("uniform-key", clients, objects, report, artefact_dir,
             cardinality)
