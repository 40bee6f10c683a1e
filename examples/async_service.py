#!/usr/bin/env python3
"""Serving concurrent network traffic: the asyncio front-end in action.

The resident engine (``examples/query_service.py``) answers one caller at a
time.  A real serving deployment has many clients hammering one hot dataset
over the network, often asking the *same* popular questions at the same
moment.  :mod:`repro.aio` is built for exactly that:

* a :class:`~repro.aio.server.MaxRSServer` speaks a JSON-lines TCP protocol,
  so one resident process (one ingest, one grid index, one cache) serves any
  number of network clients;
* a cached answer is served on the event loop, without admission; every
  miss is solved on the front-end's one solver thread;
* concurrent identical queries **coalesce** onto one computation -- the
  thundering herd on a hot key costs one solve, not N;
* **admission control** bounds the admitted solves (``max_inflight``: one
  runs, the rest wait on the solver thread) and queue depth
  (``max_queue``); overflow is shed with a typed ``ServiceOverloadError``
  that clients can catch and retry;
* every answer is **bit-identical** to the blocking engine's.

Run with::

    python examples/async_service.py
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.aio import AsyncMaxRSEngine, AsyncQueryClient, serve
from repro.errors import ServiceOverloadError
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

CLIENTS = 8
QUERIES_PER_CLIENT = 12


def make_city(seed: int = 7, background: int = 4_000,
              hotspots: int = 5, per_spot: int = 300) -> list[WeightedPoint]:
    """A synthetic city: sparse background plus a few dense hot spots."""
    rng = np.random.default_rng(seed)
    domain = 100_000.0
    xs = list(rng.uniform(0.0, domain, background))
    ys = list(rng.uniform(0.0, domain, background))
    centres = rng.uniform(0.2 * domain, 0.8 * domain, size=(hotspots, 2))
    for index in range(hotspots * per_spot):
        cx, cy = centres[index % hotspots]
        xs.append(float(np.clip(rng.normal(cx, 1_500.0), 0.0, domain)))
        ys.append(float(np.clip(rng.normal(cy, 1_500.0), 0.0, domain)))
    weights = rng.choice([1.0, 2.0, 3.0], size=len(xs))
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(xs, ys, weights)]


#: The "popular sizes" every client keeps asking about -- a hot-key workload.
HOT_SIZES = [(2_000.0, 2_000.0), (5_000.0, 5_000.0), (8_000.0, 4_000.0)]


async def run_client(index: int, port: int) -> tuple[list, int]:
    """One network client: a burst of hot-key queries over its own socket."""
    rng = np.random.default_rng(100 + index)
    answered, shed = [], 0
    async with await AsyncQueryClient.connect("127.0.0.1", port) as client:
        for _ in range(QUERIES_PER_CLIENT):
            width, height = HOT_SIZES[int(rng.integers(len(HOT_SIZES)))]
            spec = QuerySpec.maxrs(width, height)
            try:
                answered.append((spec, await client.query("city", spec)))
            except ServiceOverloadError:
                shed += 1  # a real client would back off and retry here
    return answered, shed


async def main() -> None:
    objects = make_city()
    print("Async serving demo: one resident engine, many network clients")
    print("-------------------------------------------------------------")
    print(f"dataset               : {len(objects)} weighted points")
    print(f"traffic               : {CLIENTS} concurrent TCP clients x "
          f"{QUERIES_PER_CLIENT} hot-key queries")

    front = AsyncMaxRSEngine(max_inflight=4, max_queue=64)
    await front.register_dataset(objects, name="city")
    server = await serve(front)
    print(f"server                : listening on 127.0.0.1:{server.port}")

    start = time.perf_counter()
    per_client = await asyncio.gather(
        *(run_client(i, server.port) for i in range(CLIENTS)))
    elapsed = time.perf_counter() - start
    answered = sum(len(pairs) for pairs, _ in per_client)
    shed = sum(s for _, s in per_client)
    print(f"served                : {answered} answers "
          f"({shed} shed) in {elapsed:.3f} s "
          f"({answered / elapsed:,.0f} queries/s end-to-end over TCP)")

    # Same answers as the blocking engine, bit for bit -- every single one.
    sync_engine = MaxRSEngine()
    handle = sync_engine.register_dataset(objects)
    for pairs, _ in per_client:
        for spec, result in pairs:
            want = sync_engine.query(handle, spec)
            assert result.total_weight == want.total_weight
            assert result.region == want.region
    print("answers               : bit-identical to the blocking engine")

    stats = front.stats()
    aio = stats["aio"]
    print(f"admission             : {aio['loop_hits']} cache hits on the "
          f"loop / {aio['admitted']} admitted / "
          f"{aio['coalesce_hits']} coalesced / {aio['rejected']} rejected "
          f"(queue high-water {aio['queue_high_water']})")
    hot = aio["latency"].get("maxrs", {})
    if hot:
        print(f"latency (end-to-end)  : p50 {hot['p50_seconds'] * 1e3:.2f} ms, "
              f"p95 {hot['p95_seconds'] * 1e3:.2f} ms, "
              f"p99 {hot['p99_seconds'] * 1e3:.2f} ms "
              f"over {hot['count']} queries")
    print(f"cache                 : {stats['cache']['hits']} hits / "
          f"{stats['cache']['misses']} misses")

    await server.stop()
    await front.close()
    sync_engine.close()
    print("shutdown              : drained gracefully")


if __name__ == "__main__":
    asyncio.run(main())
