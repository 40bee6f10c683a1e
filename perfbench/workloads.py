"""The benchmark's three workloads: inputs, set-up, measured phase, checks.

Every workload is a closed loop driven from this one process, sized for a
2-core host, with its inputs drawn from the ``--seed``.  A workload run:

1. draws its inputs from the seed and builds the program's point objects
   from them (not timed);
2. sets up ``setups`` times -- from those points to the first servable
   query: engine/server start, dataset registration, worker-pool spawn and
   first-use imports -- and keeps the last set-up (``setup_s`` is the
   median).  Each set-up starts from a collected heap, so garbage left by
   the one before is not charged to it.  paper-external starts no engine:
   its set-up is building the point objects;
3. measures for ``seconds`` in whole *cycles* -- one query on
   uniform-exact, one ExactMaxRS + ApproxMaxCRS pair on paper-external, one
   fixed mix of reads and writes on hotspot-serving.  Each client sends its
   next operation when the previous one has returned, and the cycle
   running at the deadline runs to completion.  Throughput is the median
   over cycles, so a stall of the host shifts one cycle, not the figure;
4. tears down, then checks every answer (outside every timed window).

The program runs in its default configuration (``MaxRSEngine()``: auto
shards and executor, size-based sweep backend choice).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import os
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import MaxCRSSolver, MaxRSEngine, QuerySpec
from repro.aio.client import AsyncQueryClient
from repro.aio.engine import AsyncMaxRSEngine
from repro.aio.server import MaxRSServer
from repro.core.backends import auto_crossover, available_backends, get_backend
from repro.core.dispatch import solve_point_set
from repro.core.plane_sweep import solve_in_memory
from repro.em.config import EMConfig
from repro.geometry import WeightedPoint
from repro.service.sharding import effective_cpu_count

#: Side of the paper's square data space (Section 7.1: [0, 1M]^2).
DOMAIN = 1_000_000.0

#: Set-ups per run; ``setup_s`` reports their median.  hotspot-serving's
#: set-up registers 200k points over the wire (most of a second), the
#: others' take a tenth of that.
SETUP_REPEATS = 9
HOTSPOT_SETUP_REPEATS = 5

UNIFORM_POINTS = 200_000
#: uniform-exact windows: 0.5-5% of the side, drawn per query (distinct).
UNIFORM_WINDOW = (0.005, 0.05)

CUSTOMERS = 200_000
POIS = 2_000
#: Fixed city layout of hotspot-serving: the seed draws the points around
#: these centres, so every seed has the same hot spots (and pruning power).
CITY_CENTRES = np.random.default_rng(20120801).uniform(
    0.15 * DOMAIN, 0.85 * DOMAIN, size=(10, 2))
CUSTOMER_SPREAD = 0.05 * DOMAIN
POI_SPREAD = 0.03 * DOMAIN
#: Operations per client in one hotspot-serving cycle.
CYCLE_OPS = 500
#: Client 0 re-registers the POIs first thing in every block of this many
#: of its operations: 10 writes a cycle, 1% of all operations.
WRITE_EVERY = 50
#: Zipf exponent of the customer reads over the customer specs.
ZIPF_S = 3.0


def _maxrs(frac: float, error_bound: Optional[float] = None) -> QuerySpec:
    side = frac * DOMAIN
    return QuerySpec.maxrs(side, side, error_bound=error_bound)


#: hotspot-serving catalogue on the customers, most popular first.
CUSTOMER_SPECS: Tuple[QuerySpec, ...] = (
    _maxrs(0.10),
    _maxrs(0.05),
    _maxrs(0.20, 0.2),
    _maxrs(0.15),
    _maxrs(0.10, 0.05),
    _maxrs(0.20),
    _maxrs(0.20, 0.05),
    _maxrs(0.10, 0.2),
)
#: The POI specs, each asked once a cycle by client 0 after a write, so
#: each is a miss (the write invalidated it).
POI_SPECS: Tuple[QuerySpec, ...] = (
    QuerySpec.maxkrs(0.03 * DOMAIN, 0.03 * DOMAIN, 3),
    QuerySpec.maxkrs(0.05 * DOMAIN, 0.05 * DOMAIN, 2),
    QuerySpec.maxcrs(0.01 * DOMAIN),
)

#: Table 3 fixes 250k points; 25k keeps its block size, buffer and query
#: extents and the same recursion (2 levels, 254 leaves) at an eighth of
#: the time per solve, so a run measures about ten pairs, not one.
PAPER_POINTS = 25_000
#: Table 3 defaults: 1K x 1K query rectangle and circle diameter d = 1K.
PAPER_EXTENT = 1_000.0

Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


# ---------------------------------------------------------------------- #
# Outcome of one workload run
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one run measured and what its checks found."""

    setup_s: List[float] = field(default_factory=list)
    #: (completed operations, wall seconds) of each measured cycle.
    cycles: List[Tuple[int, float]] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    config: Dict[str, object] = field(default_factory=dict)
    #: Per-layer figures read off answers (cost ledgers, block counts).
    layer: Dict[str, float] = field(default_factory=dict)

    def record(self, kind: str, seconds: float) -> None:
        self.latencies[kind].append(seconds)
        self.latencies["all"].append(seconds)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def completed(self) -> int:
        return len(self.latencies["all"])


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def host_config() -> Dict[str, object]:
    return {"cores": effective_cpu_count(), "numpy": np.__version__,
            "sweep_crossover_events": auto_crossover()}


def engine_config(engine: MaxRSEngine) -> Dict[str, object]:
    sharding = engine.stats()["sharding"]
    return {"shards": sharding["effective_shards"],
            "executor": sharding["resolved_executor"]}


def as_points(columns: Columns) -> List[WeightedPoint]:
    xs, ys, ws = columns
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(xs, ys, ws)]


def _set_thread_affinity(cpus) -> None:
    for name in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(name), cpus)
        except OSError:  # the thread ended meanwhile
            pass


@contextlib.contextmanager
def one_cpu():
    """Run this process's threads on one CPU; its worker processes stay free.

    The aio front-end hands every request between the event-loop thread and
    the engine's executor threads.  Spread over two CPUs, the GIL passes
    between CPUs on each hand-off, and how costly that is depends on where
    the scheduler has put the threads: hotspot-serving's cycle rate moved
    between two levels 40% apart for seconds at a time.  On one CPU it
    stays within a few percent.  Yields the CPU, or None where the platform
    cannot pin threads.
    """
    if not (hasattr(os, "sched_setaffinity")
            and os.path.isdir("/proc/self/task")):
        yield None
        return
    allowed = os.sched_getaffinity(0)
    cpu = min(allowed)
    _set_thread_affinity({cpu})
    try:
        yield cpu
    finally:
        _set_thread_affinity(allowed)


def warm_sweep_backends() -> None:
    """Load every sweep backend now: the program imports them on first use."""
    for name in available_backends():
        get_backend(name)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def uniform_columns(rng: np.random.Generator, count: int) -> Columns:
    xs = rng.uniform(0.0, DOMAIN, count)
    ys = rng.uniform(0.0, DOMAIN, count)
    return xs, ys, np.ones(count)


def city_columns(rng: np.random.Generator, count: int, spread: float,
                 weighted: bool) -> Columns:
    centre = CITY_CENTRES[rng.integers(0, len(CITY_CENTRES), count)]
    xs = np.clip(centre[:, 0] + rng.normal(0.0, spread, count), 0.0, DOMAIN)
    ys = np.clip(centre[:, 1] + rng.normal(0.0, spread, count), 0.0, DOMAIN)
    ws = (rng.integers(1, 5, count).astype(np.float64) if weighted
          else np.ones(count))
    return xs, ys, ws


def perturbed(columns: Columns, rng: np.random.Generator) -> Columns:
    """A POI re-registration: 5% of the POIs move by about 2 km."""
    xs, ys, ws = (column.copy() for column in columns)
    moved = rng.random(len(xs)) < 0.05
    xs[moved] = np.clip(xs[moved] + rng.normal(0.0, 2_000.0, moved.sum()),
                        0.0, DOMAIN)
    ys[moved] = np.clip(ys[moved] + rng.normal(0.0, 2_000.0, moved.sum()),
                        0.0, DOMAIN)
    return xs, ys, ws


# ---------------------------------------------------------------------- #
# Answer checks
# ---------------------------------------------------------------------- #
def covered_weight(columns: Columns, cx: float, cy: float, width: float,
                   height: float) -> float:
    """Weight inside the ``width x height`` rectangle centred at (cx, cy)."""
    xs, ys, ws = columns
    inside = (np.abs(xs - cx) < width / 2.0) & (np.abs(ys - cy) < height / 2.0)
    return float(ws[inside].sum())


def recount_matches(columns: Columns, spec: QuerySpec, result) -> bool:
    """Whether a MaxRS answer's placement covers exactly its total_weight."""
    location = result.location
    return covered_weight(columns, location.x, location.y, spec.width,
                          spec.height) == result.total_weight


def circle_weight(columns: Columns, cx: float, cy: float,
                  diameter: float) -> float:
    """Weight strictly inside the circle of ``diameter`` centred at (cx, cy)."""
    xs, ys, ws = columns
    dx = xs - cx
    dy = ys - cy
    return float(ws[dx * dx + dy * dy < (diameter / 2.0) ** 2].sum())


def layer_from_costs(out: Outcome, misses: List[Tuple[QuerySpec, dict]]) -> None:
    """Per-layer figures from the cost ledgers of distinct computed answers."""
    rect = [cost for spec, cost in misses if spec.kind == "maxrs"]
    exact = [cost for spec, cost in misses
             if spec.kind == "maxrs" and spec.error_bound is None]
    bounded = [cost for spec, cost in misses
               if spec.kind == "maxrs" and spec.error_bound is not None]
    if rect:
        out.layer["service.grid_index.swept_points"] = float(
            np.mean([cost["swept_points"] for cost in rect]))
    if exact:
        out.layer["service.grid_index.prune_ratio"] = float(np.mean(
            [cost["pruned_points"] / cost["dataset_points"] for cost in exact]))
    if bounded:
        out.layer["service.grid_index.certified_ratio"] = float(np.mean(
            [bool((cost.get("descent") or {}).get("certified"))
             for cost in bounded]))
    out.layer["service.sharding.worker_s"] = float(
        sum(cost.get("worker_seconds", 0.0) for _, cost in misses))


# ---------------------------------------------------------------------- #
# uniform-exact
# ---------------------------------------------------------------------- #
def uniform_exact(seed: int, seconds: float, trace=None,
                  setups: int = SETUP_REPEATS) -> Outcome:
    """Distinct exact MaxRS queries over 200k uniform points, in-process."""
    out = Outcome(config=host_config())
    columns = uniform_columns(np.random.default_rng([seed, 0]), UNIFORM_POINTS)
    points = as_points(columns)
    query_rng = np.random.default_rng([seed, 1])
    engine = None
    if trace is not None:
        trace.install()
    try:
        for _ in range(setups):
            if engine is not None:
                engine.close()
                engine = None
            gc.collect()
            start = time.perf_counter()
            engine = MaxRSEngine()
            handle = engine.register_dataset(points)
            warm_sweep_backends()
            engine.explain(handle, _maxrs(UNIFORM_WINDOW[1]))
            out.setup_s.append(time.perf_counter() - start)
        points = None  # the engine holds what it needs
        answers = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            width, height = query_rng.uniform(*UNIFORM_WINDOW, 2) * DOMAIN
            spec = QuerySpec.maxrs(float(width), float(height))
            out.attempted += 1
            sent = time.perf_counter()
            try:
                result = engine.query(handle, spec)
            except Exception as exc:  # a failed query is counted, not fatal
                out.fail(f"query {spec}: {exc!r}")
                continue
            elapsed = time.perf_counter() - sent
            out.record("cold", elapsed)
            out.cycles.append((1, elapsed))
            answers.append((spec, result))
        out.config.update(engine_config(engine))
    finally:
        if trace is not None:
            trace.restore()
        if engine is not None:
            engine.close()
    out.peak_rss_mb = peak_rss_mb()

    for spec, result in answers:
        if not recount_matches(columns, spec, result):
            out.fail(f"recount differs from total_weight for {spec}")
    if answers:
        spec, result = answers[int(query_rng.integers(len(answers)))]
        if solve_in_memory(as_points(columns), spec.width,
                           spec.height) != result:
            out.fail(f"engine answer differs from full in-memory solve {spec}")
    layer_from_costs(out, [(spec, result.cost) for spec, result in answers])
    return out


# ---------------------------------------------------------------------- #
# hotspot-serving
# ---------------------------------------------------------------------- #
@dataclass
class PoiVersion:
    columns: Columns
    sent: float
    done: Optional[float] = None


@dataclass
class WireAnswer:
    spec: QuerySpec
    result: object
    sent: float
    received: float


@dataclass
class HotspotLog:
    """What the hotspot-serving checks need from the measured phase.

    Each distinct customer answer is kept once with its count: keeping
    every hit would grow the heap the collector's full passes scan inside
    the timed window.
    """

    versions: List[PoiVersion]
    #: Distinct (spec, answer) pairs on the customers -> operations.
    customers: Dict[tuple, int] = field(
        default_factory=lambda: defaultdict(int))
    pois: List[WireAnswer] = field(default_factory=list)
    #: Cost ledger of each computed answer.
    misses: Dict[tuple, tuple] = field(default_factory=dict)


class ServingStack:
    """Engine, async front-end, TCP server and two client connections."""

    def __init__(self) -> None:
        self.front = AsyncMaxRSEngine()
        self.server = MaxRSServer(self.front)
        self.clients: List[AsyncQueryClient] = []
        self.ids: Dict[str, str] = {}

    async def start(self, customers: List[WeightedPoint],
                    pois: List[WeightedPoint]) -> None:
        await self.server.start()
        for _ in range(2):
            self.clients.append(await AsyncQueryClient.connect(
                "127.0.0.1", self.server.port))
        self.ids = {
            "customers": await self.clients[0].register(customers,
                                                        name="customers"),
            "pois": await self.clients[0].register(pois, name="pois"),
        }
        warm_sweep_backends()
        await self.clients[0].explain(self.ids["customers"], CUSTOMER_SPECS[0])

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.stop()
        await self.front.close()


def _latency_kind(spec: QuerySpec, cost: dict) -> str:
    if cost.get("cache") == "hit":
        return "hit"
    if spec.kind == "maxrs":
        return "cold" if spec.error_bound is None else "bounded"
    return spec.kind


#: A POI re-registration in a cycle script.
WRITE = "write"


def zipf_counts(total: int, count: int, s: float) -> np.ndarray:
    """``total`` reads over ``count`` specs in Zipf proportion, each >= 1."""
    weights = 1.0 / np.arange(1, count + 1) ** s
    counts = 1 + np.floor((total - count) * weights / weights.sum()).astype(int)
    counts[0] += total - counts.sum()
    return counts


def cycle_script(rng: np.random.Generator, index: int) -> list:
    """One client's operations in one cycle: a fixed mix in seeded order.

    Every cycle asks each customer spec in Zipf proportion, and client 0
    writes first in each block of ``WRITE_EVERY`` operations and asks each
    POI spec once, after the cycle's first write.  So every cycle does the
    same work: the POI answers miss (a write invalidated them) and, after
    the first cycle's first touches, the customer answers hit.  A random
    mix would vary the number of costly misses from run to run.
    """
    writes = CYCLE_OPS // WRITE_EVERY if index == 0 else 0
    reads = [("pois", spec) for spec in POI_SPECS] if index == 0 else []
    counts = zipf_counts(CYCLE_OPS - writes - len(reads), len(CUSTOMER_SPECS),
                         ZIPF_S)
    for spec, count in zip(CUSTOMER_SPECS, counts):
        reads.extend([("customers", spec)] * int(count))
    reads = [reads[i] for i in rng.permutation(len(reads))]
    if not writes:
        return reads
    block = WRITE_EVERY - 1
    script = []
    for start in range(0, len(reads), block):
        script.append(WRITE)
        script.extend(reads[start:start + block])
    return script


async def _hotspot_run(seed: int, seconds: float, trace, setups: int,
                       customers: Columns, poi_base: Columns, out: Outcome,
                       log: HotspotLog) -> None:
    customer_points = as_points(customers)
    poi_points = as_points(poi_base)
    stack = None

    async def write(client, version: PoiVersion,
                    points: List[WeightedPoint]) -> None:
        log.versions.append(version)
        out.attempted += 1
        version.sent = time.perf_counter()
        try:
            await client.register(points, name="pois", replace=True)
        except Exception as exc:  # a failed write is counted, not fatal
            out.fail(f"poi re-registration: {exc!r}")
            return
        finally:
            version.done = time.perf_counter()
        out.record("write", version.done - version.sent)

    async def read(client, dataset: str, spec: QuerySpec) -> None:
        out.attempted += 1
        sent = time.perf_counter()
        try:
            result = await client.query(stack.ids[dataset], spec)
        except Exception as exc:  # a failed or refused query is counted
            out.fail(f"query {dataset} {spec}: {exc!r}")
            return
        received = time.perf_counter()
        cost = (result[0] if isinstance(result, tuple) else result).cost or {}
        out.record(_latency_kind(spec, cost), received - sent)
        if dataset == "pois":
            log.pois.append(WireAnswer(spec, result, sent, received))
        else:
            log.customers[(spec, result)] += 1
        if cost.get("cache") == "miss":
            # Coalesced followers carry their leader's ledger: keep it once.
            log.misses[(dataset, spec, cost.get("wall_seconds"))] = (spec,
                                                                    cost)

    async def run_script(index: int, script: list, prepared: list) -> None:
        client = stack.clients[index]
        for op in script:
            # Only client 0 writes, so POI versions apply in send order.
            if op == WRITE:
                await write(client, *prepared.pop(0))
            else:
                await read(client, *op)

    if trace is not None:
        trace.install()
    try:
        for _ in range(setups):
            if stack is not None:
                await stack.close()
                stack = None
            gc.collect()
            start = time.perf_counter()
            stack = ServingStack()
            await stack.start(customer_points, poi_points)
            out.setup_s.append(time.perf_counter() - start)
        # The server holds its own copy; the collector need not scan these.
        customer_points = None
        metrics = stack.front.engine.metrics
        before = (metrics.counter("aio_coalesce_hits"),
                  metrics.counter("aio_queries"))
        rngs = [np.random.default_rng([seed, 2, index])
                for index in range(len(stack.clients))]
        with one_cpu() as cpu:
            out.config["serving_cpu"] = cpu
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                scripts = [cycle_script(rng, index)
                           for index, rng in enumerate(rngs)]
                # The cycle's POI versions, built before its clock starts.
                prepared = []
                for _ in range(scripts[0].count(WRITE)):
                    columns = perturbed(poi_base, rngs[0])
                    prepared.append((PoiVersion(columns, sent=math.nan),
                                     as_points(columns)))
                completed = out.completed
                start = time.perf_counter()
                await asyncio.gather(*(
                    run_script(index, script, prepared)
                    for index, script in enumerate(scripts)))
                out.cycles.append((out.completed - completed,
                                   time.perf_counter() - start))
        hits = metrics.counter("aio_coalesce_hits") - before[0]
        queries = metrics.counter("aio_queries") - before[1]
        out.layer["aio.engine.coalesce_ratio"] = hits / max(1, queries)
        out.config.update(engine_config(stack.front.engine))
    finally:
        if trace is not None:
            trace.restore()
        if stack is not None:
            await stack.close()


def _candidate_versions(versions: List[PoiVersion],
                        answer: WireAnswer) -> List[int]:
    """POI versions an answer may have been computed on.

    Version ``k`` is live from (at the earliest) its write's send until
    (at the latest) the next write's completion.
    """
    candidates = []
    for k, version in enumerate(versions):
        successor = versions[k + 1] if k + 1 < len(versions) else None
        if version.sent <= answer.received and (
                successor is None or successor.done is None
                or successor.done >= answer.sent):
            candidates.append(k)
    return candidates


def hotspot_serving(seed: int, seconds: float, trace=None,
                    setups: int = HOTSPOT_SETUP_REPEATS) -> Outcome:
    """Two TCP clients, Zipf-skewed mixed queries plus POI re-registrations."""
    out = Outcome(config=host_config())
    customers = city_columns(np.random.default_rng([seed, 0]), CUSTOMERS,
                             CUSTOMER_SPREAD, weighted=False)
    # The POI base layout is part of the fixed city, like CITY_CENTRES: the
    # exact MaxCRS re-misses it drives take a third of the run, and a
    # per-seed layout would move their cost by a quarter from seed to seed.
    # The seed still draws every re-registration's perturbation.
    poi_base = city_columns(np.random.default_rng(20120802), POIS,
                            POI_SPREAD, weighted=True)
    log = HotspotLog(versions=[PoiVersion(poi_base, sent=-math.inf,
                                          done=-math.inf)])
    asyncio.run(_hotspot_run(seed, seconds, trace, setups, customers,
                             poi_base, out, log))
    out.peak_rss_mb = peak_rss_mb()
    _check_hotspot(seed, out, log, customers)
    return out


def _check_hotspot(seed: int, out: Outcome, log: HotspotLog,
                   customers: Columns) -> None:
    check_rng = np.random.default_rng([seed, 3])
    versions = log.versions
    by_spec: Dict[QuerySpec, List] = defaultdict(list)
    for (spec, result), ops in log.customers.items():
        by_spec[spec].append((result, ops))

    exact_optimum: Dict[float, float] = {}
    for spec, results in by_spec.items():
        if len(results) > 1:
            out.fail(f"{len(results)} different answers for {spec}",
                     sum(ops for _, ops in results))
        if spec.error_bound is None:
            result, ops = results[0]
            exact_optimum[spec.width] = result.total_weight
            if not recount_matches(customers, spec, result):
                out.fail(f"recount differs from total_weight for {spec}", ops)
    for spec, results in by_spec.items():
        if spec.error_bound is None:
            continue
        for result, ops in results:
            location = result.location
            covered = covered_weight(customers, location.x, location.y,
                                     spec.width, spec.height)
            optimum = exact_optimum.get(spec.width)
            if result.gap is None or result.gap > spec.error_bound:
                out.fail(f"gap {result.gap} outside bound for {spec}", ops)
            elif covered < result.total_weight:
                out.fail(f"bounded placement covers {covered} < "
                         f"{result.total_weight} for {spec}", ops)
            elif optimum is not None and optimum > result.total_weight * (
                    1.0 + result.gap) * (1.0 + 1e-12):
                out.fail(f"optimum {optimum} beyond the certified gap "
                         f"for {spec}", ops)

    poi_unambiguous: Dict[tuple, object] = {}
    for answer in log.pois:
        candidates = _candidate_versions(versions, answer)
        if answer.spec.kind == "maxkrs" and not any(
                all(recount_matches(versions[k].columns, answer.spec, strip)
                    for strip in answer.result)
                for k in candidates):
            out.fail(f"maxkrs strip recount differs on every live POI "
                     f"version for {answer.spec}")
        if len(candidates) == 1:
            poi_unambiguous[(answer.spec, candidates[0])] = answer.result

    # Wire answers against a fresh in-process engine, on a seeded sample.
    customer_points = as_points(customers)
    sync = MaxRSEngine()
    try:
        customer_handle = sync.register_dataset(customer_points)
        specs = sorted(by_spec, key=str)
        for index in check_rng.permutation(len(specs))[:3]:
            spec = specs[index]
            expected = sync.query(customer_handle, spec)
            for result, ops in by_spec[spec]:
                if result != expected:
                    out.fail(f"wire answer differs from the engine's for "
                             f"{spec}", ops)
        keys = sorted(poi_unambiguous, key=str)
        for index in check_rng.permutation(len(keys))[:3]:
            spec, k = keys[index]
            handle = sync.register_dataset(as_points(versions[k].columns))
            if sync.query(handle, spec) != poi_unambiguous[(spec, k)]:
                out.fail(f"wire answer differs from the engine's for "
                         f"{spec} on POI version {k}")
    finally:
        sync.close()
    exact_specs = sorted((spec for spec in by_spec if spec.error_bound is None),
                         key=str)
    if exact_specs:
        spec = exact_specs[int(check_rng.integers(len(exact_specs)))]
        reference = solve_in_memory(customer_points, spec.width, spec.height)
        for result, ops in by_spec[spec]:
            if result != reference:
                out.fail(f"wire answer differs from full in-memory solve "
                         f"{spec}", ops)
    layer_from_costs(out, list(log.misses.values()))


# ---------------------------------------------------------------------- #
# paper-external
# ---------------------------------------------------------------------- #
def paper_external(seed: int, seconds: float, trace=None,
                   setups: int = SETUP_REPEATS) -> Outcome:
    """ExactMaxRS and ApproxMaxCRS one-shot at Table 3's EM and query sizes."""
    out = Outcome(config=host_config())
    columns = uniform_columns(np.random.default_rng([seed, 0]), PAPER_POINTS)
    config = EMConfig()  # 4 KB blocks, 1024 KB buffer
    out.config.update(block_size=config.block_size,
                      buffer_size=config.buffer_size)
    if trace is not None:
        trace.install()
    exact: List = []
    approx: List = []
    points = None
    try:
        for _ in range(setups):
            # The algorithms are one-shot, so the program has no set-up of
            # its own: set-up is building its input objects.
            points = None
            gc.collect()
            start = time.perf_counter()
            points = as_points(columns)
            circle_solver = MaxCRSSolver(PAPER_EXTENT, config=config)
            warm_sweep_backends()
            out.setup_s.append(time.perf_counter() - start)
        solvers = (
            ("exactmaxrs", exact, lambda: solve_point_set(
                points, PAPER_EXTENT, PAPER_EXTENT, config=config,
                force_external=True)),
            ("approxmaxcrs", approx, lambda: circle_solver.solve(points)),
        )
        deadline = time.perf_counter() + seconds
        # Whole (ExactMaxRS, ApproxMaxCRS) pairs, so the medians weigh the
        # two alike.
        while time.perf_counter() < deadline:
            completed = out.completed
            start = time.perf_counter()
            for kind, results, solve in solvers:
                out.attempted += 1
                sent = time.perf_counter()
                try:
                    result = solve()
                except Exception as exc:  # a failed solve is counted
                    out.fail(f"{kind}: {exc!r}")
                    continue
                out.record(kind, time.perf_counter() - sent)
                results.append(result)
            out.cycles.append((out.completed - completed,
                               time.perf_counter() - start))
    finally:
        if trace is not None:
            trace.restore()
    out.latencies["cold"] = list(out.latencies["exactmaxrs"])
    out.peak_rss_mb = peak_rss_mb()

    reference = solve_in_memory(points, PAPER_EXTENT, PAPER_EXTENT)
    for result in exact:
        if (result.region, result.total_weight) != (reference.region,
                                                    reference.total_weight):
            out.fail("ExactMaxRS differs from the in-memory sweep")
    for result in approx:
        location = result.location
        if result.total_weight < 0.25 * reference.total_weight:
            out.fail(f"ApproxMaxCRS {result.total_weight} below 1/4 of the "
                     f"d x d MaxRS optimum {reference.total_weight}")
        if circle_weight(columns, location.x, location.y,
                         PAPER_EXTENT) != result.total_weight:
            out.fail("ApproxMaxCRS circle recount differs from total_weight")
    for name, results in (("exactmaxrs", exact), ("approxmaxcrs", approx)):
        blocks = {(r.io.block_reads, r.io.block_writes) for r in results}
        if len(blocks) > 1:
            out.fail(f"{name} block counts vary across identical solves",
                     len(results))
        if results:
            reads, writes = results[0].io.block_reads, results[0].io.block_writes
            out.layer[f"{name}_io_blocks"] = float(reads + writes)
            if name == "exactmaxrs":
                out.layer["em.block_reads"] = float(reads)
                out.layer["em.block_writes"] = float(writes)
                out.layer["core.exact_maxrs.recursion_levels"] = float(
                    results[0].recursion_levels)
                out.layer["core.exact_maxrs.leaf_count"] = float(
                    results[0].leaf_count)
    return out


WORKLOADS = {
    "uniform-exact": uniform_exact,
    "hotspot-serving": hotspot_serving,
    "paper-external": paper_external,
}
