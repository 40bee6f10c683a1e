"""Asyncio-native front-end for the resident MaxRS engine.

:class:`AsyncMaxRSEngine` turns the blocking :class:`~repro.service.engine.
MaxRSEngine` into a serving tier that can hold heavy concurrent traffic from
one event loop.  These mechanisms do the work:

* **Cache hits on the loop** -- a cached answer is served on the event-loop
  thread by :meth:`~repro.service.engine.MaxRSEngine.query_cached`, which
  never computes; it is neither coalesced nor admitted (``loop_hits``);
* **One solver thread** -- every other blocking engine call runs on one
  thread the front-end owns (``loop.run_in_executor``), so the loop never
  blocks on a sweep and solves never contend with each other;
* **In-flight request coalescing** -- concurrent identical queries (same
  dataset fingerprint, same :class:`~repro.service.engine.QuerySpec`) await
  one shared future instead of recomputing: the async analogue of
  ``query_batch``'s dedup, but across *independent* callers.  The LRU result
  cache already makes repeats cheap once the first answer lands; coalescing
  closes the window while it is still being computed, which is exactly when
  a hot key stampedes;
* **Bounded admission with backpressure** -- at most ``max_inflight``
  leaders are admitted at once (one of them solves, the rest wait in order
  on the solver thread); up to ``max_queue`` more wait their turn in FIFO
  order.  Overflow is shed with a typed
  :class:`~repro.errors.ServiceOverloadError` (``overflow="reject"``, the
  default) or queued without bound (``overflow="wait"``), per policy.
* **Degraded serving under overload** (opt-in) -- with
  ``degraded_error_bound=`` set, a request the admission gate would shed is
  instead answered approximately: the engine serves its probe answer when
  the grid's best window bound certifies that relative optimality gap, and
  the answer's ``result.gap`` carries the certificate.  Degraded serves
  skip admission but still queue on the solver thread.  Queries that cannot
  express a certified gap (MaxkRS, ``refine=False``) raise
  :class:`~repro.errors.ServiceDegradedError` so callers can tell "retry
  later" from "cannot degrade".  Degraded serves are recorded against the
  ``"degraded"`` SLO kind -- they consume a latency objective of their own,
  not the exact-path error budget.

Dataset mutation (:meth:`~AsyncMaxRSEngine.register_dataset` /
:meth:`~AsyncMaxRSEngine.unregister_dataset`) is serialized against queries
by a writer-preferring read/write gate: a mutation waits for in-flight
queries to drain, blocks new ones (cache hits included) for its duration,
and runs on the solver thread -- the loop stays responsive throughout.

Answers are **bit-identical** to the sync engine's: the front-end never
computes anything itself, it only schedules the same
:meth:`~repro.service.engine.MaxRSEngine.query` calls and serves their cached
answers.  Everything is observable through :meth:`AsyncMaxRSEngine.stats` --
admission and coalescing counters plus per-kind latency histograms land in
``stats()["aio"]``.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Callable, Deque, Dict, Hashable, List, Optional, Sequence, \
    Tuple, Union

from repro import obs
from repro.errors import ConfigurationError, ServiceDegradedError, \
    ServiceError, ServiceOverloadError
from repro.geometry import WeightedPoint, is_positive_finite
from repro.service.engine import MaxRSEngine, QueryResult, QuerySpec
from repro.service.store import DatasetHandle

__all__ = ["AsyncMaxRSEngine"]

#: The admission policies :class:`AsyncMaxRSEngine` accepts.
_OVERFLOW_POLICIES = ("reject", "wait")


class _LeaderAbandoned(Exception):
    """Internal signal: the coalescing leader was cancelled; retry the query."""


class _ReadWriteGate:
    """Writer-preferring async read/write gate (event-loop confined).

    Queries hold the gate in read mode (many at once); dataset mutations hold
    it in write mode (exclusive).  A waiting writer closes the turnstile so
    new readers queue behind it -- ingestion cannot be starved by a steady
    query stream.  All state is touched only from the owning event loop, so
    no locks are needed; the ``while`` re-checks make the event wakeups safe
    against competing writers.
    """

    def __init__(self) -> None:
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._turnstile = asyncio.Event()  # set: readers may enter
        self._turnstile.set()
        self._drained = asyncio.Event()    # set: no readers, no writer
        self._drained.set()

    async def acquire_read(self) -> None:
        while not self._turnstile.is_set():
            await self._turnstile.wait()
        self._readers += 1
        self._drained.clear()

    def release_read(self) -> None:
        self._readers -= 1
        if self._readers == 0 and not self._writer:
            self._drained.set()

    async def acquire_write(self) -> None:
        self._writers_waiting += 1
        self._turnstile.clear()
        acquired = False
        try:
            while self._readers or self._writer:
                self._drained.clear()
                await self._drained.wait()
            self._writer = True
            self._drained.clear()
            acquired = True
        finally:
            self._writers_waiting -= 1
            if not acquired and self._writers_waiting == 0 \
                    and not self._writer:
                # A cancelled waiter must not leave the turnstile closed.
                self._turnstile.set()
                if self._readers == 0:
                    self._drained.set()

    def release_write(self) -> None:
        self._writer = False
        if self._writers_waiting == 0:
            self._turnstile.set()
        self._drained.set()


class _AdmissionGate:
    """FIFO slot gate implementing ``max_inflight`` / ``max_queue``.

    ``acquire`` either takes a free slot, joins the FIFO wait queue, or --
    with the ``reject`` policy and a full queue -- raises
    :class:`ServiceOverloadError` without consuming anything.  ``release``
    hands the freed slot directly to the oldest live waiter, so admission
    order is arrival order.  Event-loop confined, like the gate above.
    """

    def __init__(self, max_inflight: int, max_queue: int,
                 overflow: str) -> None:
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.overflow = overflow
        self._slots = max_inflight
        self._waiters: Deque[asyncio.Future] = deque()
        self.queue_high_water = 0

    @property
    def inflight(self) -> int:
        """Queries currently holding a slot."""
        return self.max_inflight - self._slots

    @property
    def queue_depth(self) -> int:
        """Queries currently waiting for a slot."""
        return len(self._waiters)

    async def acquire(self) -> None:
        if self._slots > 0 and not self._waiters:
            self._slots -= 1
            return
        if self.overflow == "reject" and len(self._waiters) >= self.max_queue:
            raise ServiceOverloadError(
                f"engine at max_inflight={self.max_inflight} with "
                f"max_queue={self.max_queue} requests already waiting; "
                "back off and retry (or configure overflow='wait')"
            )
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        self._waiters.append(waiter)
        self.queue_high_water = max(self.queue_high_water, len(self._waiters))
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                self.release()  # the slot arrived as we were cancelled
            else:
                try:
                    self._waiters.remove(waiter)
                except ValueError:
                    pass  # already skipped by release()
            raise

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)  # the slot transfers, FIFO
                return
        self._slots += 1


class AsyncMaxRSEngine:
    """Asyncio serving front-end over a :class:`MaxRSEngine`.

    Parameters
    ----------
    engine:
        The sync engine to serve.  ``None`` (default) constructs one from
        ``engine_kwargs`` and owns it: :meth:`close` then closes it too.  A
        caller-supplied engine is borrowed -- sharing one engine between a
        sync path and this front-end is supported (all engine state is
        thread-safe), and :meth:`close` leaves it open.
    max_inflight:
        Maximum admitted queries at once: one solves on the solver thread,
        the rest wait there in order.  Cache hits answered on the loop and
        coalesced duplicates do not consume slots -- only the leader
        computes.
    max_queue:
        Maximum queries waiting for a slot before overflow policy applies.
    overflow:
        ``"reject"`` (default) sheds overflow with
        :class:`~repro.errors.ServiceOverloadError`; ``"wait"`` queues
        without bound (``max_queue`` still reported in :meth:`stats`).
    degraded_error_bound:
        ``None`` (default) sheds overflow per the ``overflow`` policy.  A
        positive relative gap (e.g. ``0.05``) switches the front-end to
        degraded serving: a request that would have been shed is answered
        via the engine's bounded-error path with this certified gap,
        bypassing admission (the work it replaces was about to be refused
        outright, and a certified answer costs only the probe).
        Requests that already carry their own ``error_bound`` are shed
        normally (there is nothing softer to serve); MaxkRS and
        ``refine=False`` requests raise
        :class:`~repro.errors.ServiceDegradedError`.
    engine_kwargs:
        Passed through to :class:`MaxRSEngine` when ``engine`` is ``None``
        (``cache_size=``, ``persist_dir=``, ...).

    Examples
    --------
    >>> async def serve():
    ...     async with AsyncMaxRSEngine(max_inflight=4) as engine:
    ...         ds = await engine.register_dataset(points)
    ...         return await engine.query(ds, QuerySpec.maxrs(10.0, 10.0))
    """

    def __init__(self, engine: Optional[MaxRSEngine] = None, *,
                 max_inflight: int = 8, max_queue: int = 64,
                 overflow: str = "reject",
                 degraded_error_bound: Optional[float] = None,
                 **engine_kwargs) -> None:
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be at least 1, got {max_inflight}")
        if max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {max_queue}")
        if overflow not in _OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown overflow policy {overflow!r}; expected one of "
                f"{_OVERFLOW_POLICIES}")
        if degraded_error_bound is not None and not is_positive_finite(
                degraded_error_bound):
            raise ConfigurationError(
                "degraded_error_bound must be a positive finite relative "
                f"gap, got {degraded_error_bound!r}")
        self._degraded_error_bound = degraded_error_bound
        self._owns_engine = engine is None
        self._engine = engine if engine is not None \
            else MaxRSEngine(**engine_kwargs)
        self._admission = _AdmissionGate(max_inflight, max_queue, overflow)
        # The front-end's admission state rides the engine's resource
        # sampler, so scrapes see queue pressure next to the engine gauges.
        self._engine.sampler.add_source(self._admission_gauge_source)
        self._gate = _ReadWriteGate()
        #: In-flight coalescing table: query identity -> the leader's future.
        self._coalescing: Dict[Tuple[Hashable, ...], asyncio.Future] = {}
        #: The one thread every blocking engine call runs on (made by _run).
        self._solver: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> MaxRSEngine:
        """The wrapped sync engine (shared state: cache, store, metrics)."""
        return self._engine

    @property
    def closed(self) -> bool:
        return self._closed

    async def drain(self) -> None:
        """Wait until every admitted query and mutation has completed.

        New work submitted while draining still runs (drain is a barrier,
        not a shutdown); :meth:`close` combines the two.
        """
        await self._gate.acquire_write()
        self._gate.release_write()

    async def close(self) -> None:
        """Stop admitting, drain gracefully, then shut the solver thread down.

        Idempotent.  Queries already admitted (or waiting on the admission
        queue) run to completion -- closing never drops accepted work; only
        *new* calls fail, with :class:`~repro.errors.ServiceError`.  The
        front-end's gauge source leaves the engine's sampler, and an owned
        engine is closed; a borrowed engine is left open for its other users.
        """
        if self._closed:
            return
        self._closed = True
        await self.drain()
        self._engine.sampler.remove_source(self._admission_gauge_source)
        solver, self._solver = self._solver, None
        if solver is not None:  # queued work (trace_profile) still runs first
            solver.shutdown(wait=False)
        if self._owns_engine:
            self._engine.close()

    async def __aenter__(self) -> "AsyncMaxRSEngine":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("the async engine is closed")

    async def _run(self, fn: Callable):
        """Run a blocking engine call on the solver thread, in call order.

        The thread is created on first use.  The call is wrapped in a
        context snapshot: ``run_in_executor`` is a plain ``executor.submit``
        and does *not* carry ``contextvars`` across the thread hand-off,
        which would detach the engine's trace spans (:mod:`repro.obs`) from
        the request's ambient span.
        """
        if self._solver is None:
            self._solver = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-solver")
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        return await loop.run_in_executor(self._solver,
                                          lambda: context.run(fn))

    # ------------------------------------------------------------------ #
    # Dataset lifecycle (serialized against queries)
    # ------------------------------------------------------------------ #
    async def register_dataset(self, objects: Sequence[WeightedPoint], *,
                               name: Optional[str] = None,
                               persist: Optional[bool] = None,
                               replace: bool = False) -> DatasetHandle:
        """Snapshot, fingerprint and index a dataset without blocking the loop.

        Ingestion is exclusive: it waits for in-flight queries to finish and
        holds new ones back until the dataset (and its grid index) is fully
        registered, so no query can observe a half-built index -- then runs
        on the solver thread, so the event loop keeps serving coroutines.
        Semantics (dedup, ``replace=``, ``persist=``) are exactly
        :meth:`MaxRSEngine.register_dataset`'s.
        """
        self._check_open()
        objects = list(objects)
        await self._gate.acquire_write()
        try:
            return await self._run(lambda: self._engine.register_dataset(
                objects, name=name, persist=persist, replace=replace))
        finally:
            self._gate.release_write()

    async def unregister_dataset(self, dataset: Union[str, DatasetHandle], *,
                                 keep_snapshot: bool = False) -> None:
        """Forget a dataset (exclusive, like :meth:`register_dataset`)."""
        self._check_open()
        await self._gate.acquire_write()
        try:
            await self._run(lambda: self._engine.unregister_dataset(
                dataset, keep_snapshot=keep_snapshot))
        finally:
            self._gate.release_write()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def _coalesce_key(self, dataset: Union[str, DatasetHandle],
                      spec: QuerySpec) -> Tuple[Hashable, ...]:
        """The in-flight identity of a query: data fingerprint + parameters.

        Exactly the engine's :meth:`MaxRSEngine.cache_key` (keyed by
        *fingerprint*, not dataset id), so a name rebound to different data
        mid-flight can never coalesce onto the old data's computation, two
        names holding byte-identical data share one, and coalescing stays in
        lockstep with result-cache identity by construction.
        """
        dataset_id = dataset.dataset_id \
            if isinstance(dataset, DatasetHandle) else dataset
        entry = self._engine.store.get(dataset_id)
        return MaxRSEngine.cache_key(entry.handle.fingerprint, spec)

    async def query(self, dataset: Union[str, DatasetHandle],
                    spec: QuerySpec, *,
                    client_id: Optional[str] = None) -> QueryResult:
        """Answer one query: a cache hit on the loop, else coalesce or lead.

        The whole attempt -- cache check, key resolution, coalescing,
        admission, execution -- runs under the read gate, so the fingerprint
        the key was derived from cannot be rebound by a concurrent
        ``replace=True`` registration mid-flight (writers wait for the
        attempt to finish; a query behind a writer sees its data).
        Within the gate the coalescing check-and-claim is synchronous (no
        ``await`` between looking up the table and publishing the leader's
        future), so any two overlapping identical queries deterministically
        share one computation: the follower's wait is counted as a
        ``coalesce_hit`` and costs no admission slot.  Leaders pass
        admission control (``max_inflight`` / ``max_queue`` / overflow
        policy) and run the sync engine's :meth:`~MaxRSEngine.query` --
        answers are bit-identical to calling it directly.  Errors propagate
        to every coalesced waiter.

        ``client_id`` flows through to the sync engine's per-client
        accounting.  Only the coalescing *leader* executes (and therefore
        attributes) the computation: each ``engine.query`` call is booked to
        exactly one client, keeping per-client totals reconciled with the
        global counters; a follower rides the leader's answer for free, and
        a loop hit is booked like any engine hit.
        """
        metrics = self._engine.metrics
        metrics.increment("aio_queries")
        arrival = time.perf_counter()
        with self._engine.tracer.trace("aio.query", kind=spec.kind):
            while True:
                self._check_open()
                await self._gate.acquire_read()
                try:
                    result = await self._attempt(dataset, spec, client_id)
                except _LeaderAbandoned:
                    # The in-flight leader this attempt coalesced onto was
                    # cancelled.  Retry from scratch -- outside the read
                    # gate, or a waiting writer would deadlock against our
                    # held read.
                    metrics.increment("aio_coalesce_retries")
                    continue
                finally:
                    self._gate.release_read()
                metrics.observe_latency(f"aio_{spec.kind}",
                                        time.perf_counter() - arrival)
                return result

    async def _attempt(self, dataset: Union[str, DatasetHandle],
                       spec: QuerySpec,
                       client_id: Optional[str] = None) -> QueryResult:
        """One hit, coalesce or lead attempt, run under the read gate."""
        metrics = self._engine.metrics
        cached = self._engine.query_cached(dataset, spec, client_id=client_id)
        if cached is not None:
            metrics.increment("aio_loop_hits")
            return cached
        key = self._coalesce_key(dataset, spec)
        shared = self._coalescing.get(key)
        if shared is not None and shared.cancelled():
            shared = None  # stale: externally cancelled; lead a fresh solve
        if shared is not None:
            metrics.increment("aio_coalesce_hits")
            try:
                # Shielded: cancelling THIS follower (e.g. a wait_for
                # timeout) must cancel only its own wait, never the shared
                # future the leader will complete and other followers await.
                with obs.span("aio.coalesce"):
                    return await asyncio.shield(shared)
            except asyncio.CancelledError:
                # Distinguish "the leader was cancelled" (its abandonment is
                # published on the shared future) from "this follower was
                # cancelled" (the shared future is untouched): an abandoned
                # leader must not take its innocent followers down -- the
                # first to wake retries and becomes the new leader, the rest
                # coalesce onto it.  A genuinely cancelled follower
                # re-raises.
                abandoned = shared.cancelled() or (
                    shared.done()
                    and isinstance(shared.exception(), asyncio.CancelledError))
                if not abandoned:
                    raise
                raise _LeaderAbandoned() from None
        future = asyncio.get_running_loop().create_future()
        self._coalescing[key] = future
        try:
            result = await self._execute(dataset, spec, client_id)
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                future.exception()  # mark retrieved: followers may be absent
            raise
        else:
            if not future.cancelled():
                future.set_result(result)
            return result
        finally:
            del self._coalescing[key]

    async def _execute(self, dataset: Union[str, DatasetHandle],
                       spec: QuerySpec,
                       client_id: Optional[str] = None) -> QueryResult:
        """Admission-controlled execution of one leader query."""
        metrics = self._engine.metrics
        try:
            with obs.span("aio.admission",
                          queue_depth=self._admission.queue_depth):
                await self._admission.acquire()
        except ServiceOverloadError:
            if self._degraded_error_bound is not None \
                    and spec.error_bound is None:
                return await self._execute_degraded(dataset, spec, client_id)
            metrics.increment("aio_rejected")
            raise
        try:
            metrics.increment("aio_admitted")
            return await self._run(
                lambda: self._engine.query(dataset, spec,
                                           client_id=client_id))
        finally:
            self._admission.release()

    async def _execute_degraded(self, dataset: Union[str, DatasetHandle],
                                spec: QuerySpec,
                                client_id: Optional[str] = None
                                ) -> QueryResult:
        """Serve an overloaded request approximately instead of shedding it.

        The spec is re-issued with the front-end's ``degraded_error_bound``,
        so the engine serves its probe whenever the grid's best window bound
        certifies that gap -- the answer's ``result.gap`` carries the
        certificate.  Runs
        *outside* admission control: the request was just refused a slot, and
        the whole point is to answer it anyway with bounded cheap work.  It
        still queues on the solver thread behind the admitted solves.
        Recorded against the ``"degraded"`` SLO kind (a latency objective of
        its own), never the exact path's error budget.
        """
        metrics = self._engine.metrics
        if spec.kind == "maxkrs" or not spec.refine:
            metrics.increment("aio_degrade_refused")
            raise ServiceDegradedError(
                f"engine overloaded and a {spec.kind} query with "
                f"refine={spec.refine} cannot carry a certified error "
                "bound; back off and retry")
        metrics.increment("aio_degraded")
        metrics.increment("degraded_served")
        degraded = replace(spec, error_bound=self._degraded_error_bound)
        start = time.perf_counter()
        with obs.span("aio.degraded",
                      error_bound=self._degraded_error_bound):
            result = await self._run(
                lambda: self._engine.query(dataset, degraded,
                                           client_id=client_id))
        if self._engine.slo is not None:
            self._engine.slo.record("degraded",
                                    time.perf_counter() - start)
        return result

    async def query_batch(self, dataset: Union[str, DatasetHandle],
                          specs: Sequence[QuerySpec], *,
                          client_id: Optional[str] = None
                          ) -> List[QueryResult]:
        """Answer many queries concurrently; results align with ``specs``.

        Cached specs are served on the loop, duplicates coalesce (within the
        batch and with any other in-flight caller), and distinct misses pass
        admission and solve in turn.  The first failure propagates -- with
        the ``reject`` policy a batch wider than ``max_inflight + max_queue``
        can overload its own admission, so size batches accordingly or use
        ``overflow="wait"``.
        """
        self._check_open()
        self._engine.metrics.increment("aio_batch_queries", len(specs))
        return list(await asyncio.gather(
            *(self.query(dataset, spec, client_id=client_id)
              for spec in specs)))

    async def explain(self, dataset: Union[str, DatasetHandle],
                      spec: QuerySpec, *,
                      result: Optional[QueryResult] = None
                      ) -> Dict[str, object]:
        """The sync engine's :meth:`~MaxRSEngine.explain`, loop-safely.

        Runs under the read gate (so a concurrent ``replace=True``
        registration cannot swap the dataset out from under the plan) and on
        the solver thread (the grid window sums are real array work).  Like
        the sync call, it never sweeps and never mutates: explaining has
        zero effect on subsequent answers.
        """
        self._check_open()
        await self._gate.acquire_read()
        try:
            return await self._run(
                lambda: self._engine.explain(dataset, spec, result=result))
        finally:
            self._gate.release_read()

    async def trace_profile(self, trace_id: Optional[str] = None
                            ) -> Dict[str, object]:
        """The sync engine's :meth:`~MaxRSEngine.trace_profile`, off-loop."""
        self._check_open()
        return await self._run(
            lambda: self._engine.trace_profile(trace_id))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """The sync engine's :meth:`~MaxRSEngine.stats` plus an ``"aio"`` view.

        ``stats()["aio"]`` reports the front-end's admission state (current
        in-flight and queue depth, high-water mark, admitted / rejected /
        coalesce-hit / loop-hit counts) and per-query-kind end-to-end latency
        histograms (p50/p95/p99 of admission wait + execution).
        """
        stats = self._engine.stats()
        counters = stats["counters"]
        prefix = "aio_"
        latency = {name[len(prefix):]: summary
                   for name, summary in stats["latency"].items()
                   if name.startswith(prefix)}
        stats["aio"] = {
            "max_inflight": self._admission.max_inflight,
            "max_queue": self._admission.max_queue,
            "overflow": self._admission.overflow,
            "inflight": self._admission.inflight,
            "queue_depth": self._admission.queue_depth,
            "queue_high_water": self._admission.queue_high_water,
            "coalescing_now": len(self._coalescing),
            "queries": counters.get("aio_queries", 0),
            "admitted": counters.get("aio_admitted", 0),
            "rejected": counters.get("aio_rejected", 0),
            "degraded_error_bound": self._degraded_error_bound,
            "degraded": counters.get("aio_degraded", 0),
            "degrade_refused": counters.get("aio_degrade_refused", 0),
            "coalesce_hits": counters.get("aio_coalesce_hits", 0),
            "loop_hits": counters.get("aio_loop_hits", 0),
            "coalesce_retries": counters.get("aio_coalesce_retries", 0),
            "batch_queries": counters.get("aio_batch_queries", 0),
            "latency": latency,
            "closed": self._closed,
        }
        return stats

    def _admission_gauge_source(self, metrics) -> None:
        """Gauge source: live admission-gate pressure."""
        metrics.set_gauge("admission_inflight", self._admission.inflight)
        metrics.set_gauge("admission_queue_depth", self._admission.queue_depth)

    def healthz(self) -> Dict[str, object]:
        """The sync engine's liveness verdict (the wrapper adds nothing: a
        closed front-end is a *readiness* condition, not a liveness one)."""
        return self._engine.healthz()

    def readyz(self) -> Dict[str, object]:
        """The sync engine's readiness verdict plus the front-end's own
        ``aio`` check: a closed async engine is not ready even when it
        borrowed a still-open sync engine."""
        verdict = self._engine.readyz()
        checks = dict(verdict["checks"])
        if self._closed:
            checks["aio"] = {"status": "failing",
                             "detail": "async engine closed"}
            verdict["status"] = "failing"
            verdict["ready"] = False
        else:
            checks["aio"] = {"status": "ok", "detail": "admitting queries"}
        verdict["checks"] = checks
        return verdict

    def clear_cache(self) -> None:
        """Drop every cached result (delegates to the sync engine)."""
        self._engine.clear_cache()
