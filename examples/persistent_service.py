#!/usr/bin/env python3
"""Durable serving: register a dataset, "restart", warm-start from snapshots.

A resident engine used to lose every registered dataset on restart and pay
ingestion again.  With ``MaxRSEngine(persist_dir=...)`` registration writes
the dataset's packed columns through to a :mod:`repro.persist` snapshot
store, ``engine.checkpoint()`` spills the hot refined answers, and a freshly
constructed engine pointed at the same directory restores the catalog and
the warm cache -- rebuilding each grid index from the verified columns --
and re-serves immediately with bit-identical refined answers.

Every byte of snapshot traffic flows through the simulated external-memory
substrate (:mod:`repro.em`), so the demo can report persistence cost the way
the paper reports everything: in transferred blocks.

Run with::

    python examples/persistent_service.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro import MaxRSEngine, QuerySpec
from repro.api import MaxRSSolver
from repro.geometry import WeightedPoint
from repro.persist import open_catalog


def make_city(seed: int = 11, background: int = 18_000,
              hotspots: int = 6, per_spot: int = 1_000) -> list[WeightedPoint]:
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


def main() -> None:
    objects = make_city()
    spec = QuerySpec.maxrs(4_000.0, 4_000.0)

    print("Durable serving demo")
    print("--------------------")
    with tempfile.TemporaryDirectory(prefix="repro-persist-") as persist_dir:
        # --- Day 1: a persistent engine ingests and serves. ------------- #
        engine = MaxRSEngine(persist_dir=persist_dir)
        start = time.perf_counter()
        handle = engine.register_dataset(objects, name="city")
        ingest_seconds = time.perf_counter() - start
        before = engine.query(handle, spec)
        engine.checkpoint()  # spill the hot refined answers too
        io = engine.stats()["persist"]["io"]
        print(f"dataset                : {len(objects)} weighted points")
        print(f"register + write-through: {ingest_seconds:6.3f} s "
              f"({io['block_writes']} block writes)")
        print(f"answer                 : weight {before.total_weight:.0f} "
              f"at {before.location}")

        # The catalog is plain, versioned metadata -- inspectable offline.
        catalog = open_catalog(persist_dir)
        manifest = catalog.get("city")
        print(f"catalog                : {len(catalog)} dataset(s); 'city' -> "
              f"{manifest.count} points, fingerprint "
              f"{manifest.fingerprint[:12]}...")

        # --- The process "restarts": all resident state is gone. -------- #
        del engine

        # --- Day 2: a new engine warm-starts from the snapshots. -------- #
        start = time.perf_counter()
        engine = MaxRSEngine(persist_dir=persist_dir)
        restore_seconds = time.perf_counter() - start
        after = engine.query("city", spec)  # served from the restored cache
        stats = engine.stats()["persist"]
        print(f"warm-start restore     : {restore_seconds:6.3f} s "
              f"({stats['io']['block_reads']} block reads, "
              f"{stats['datasets_restored']} dataset(s), "
              f"{stats['results_restored']} hot result(s))")
        print(f"re-served answer       : weight {after.total_weight:.0f} "
              f"at {after.location}")
        identical = (after.total_weight == before.total_weight
                     and after.region == before.region)
        print(f"bit-identical to day 1 : {'yes' if identical else 'NO'}")

        # One-shot callers can read the same snapshot without an engine.
        solver = MaxRSSolver.from_snapshot(persist_dir, "city",
                                           width=spec.width, height=spec.height)
        oneshot = solver.solve()
        print(f"MaxRSSolver.from_snapshot agrees: "
              f"{'yes' if oneshot.total_weight == after.total_weight else 'NO'}")


if __name__ == "__main__":
    main()
