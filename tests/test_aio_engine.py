"""Tests for the asyncio serving front-end (:mod:`repro.aio.engine`).

The central contracts:

* **bit-identity** -- answers served through :class:`AsyncMaxRSEngine` equal
  the sync engine's, for every query kind, under arbitrary concurrency (a
  hypothesis property fires shuffled duplicate-heavy workloads);
* **coalescing** -- concurrent identical queries share one computation:
  ``admitted`` equals the number of distinct queries, deterministically,
  because the check-and-claim happens before the first suspension point;
  each duplicate coalesces onto its leader or, once the leader's answer is
  cached, is a loop hit;
* **backpressure** -- ``max_inflight`` / ``max_queue`` bound concurrent work,
  overflow is shed with the typed :class:`ServiceOverloadError` (or queued
  under ``overflow="wait"``), and coalesced duplicates never consume slots;
* **mutation serialization** -- registration drains in-flight queries, blocks
  new ones for its duration, and never blocks the event loop thread;
* **one solver thread, hits on the loop** -- every miss is solved on the
  front-end's one solver thread, never two at once; a cached answer is
  served on the loop without admission, counted under ``loop_hits``, and
  every query costs the result cache exactly one counted lookup;
* **graceful close** -- accepted work always completes; only new calls fail.

No pytest-asyncio dependency: every test drives its own ``asyncio.run``.
"""

import asyncio
import gc
import threading
import time
import weakref

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aio import AsyncMaxRSEngine
from repro.errors import ConfigurationError, ServiceError, ServiceOverloadError
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

coordinates = st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                        allow_infinity=False)
weights = st.sampled_from([0.5, 1.0, 2.0, 3.0])
objects_strategy = st.lists(
    st.builds(WeightedPoint, coordinates, coordinates, weights),
    min_size=1, max_size=30,
)

#: A broad spec pool covering all three kinds, both refinement modes.
SPEC_POOL = (
    QuerySpec.maxrs(10.0, 10.0),
    QuerySpec.maxrs(25.0, 5.0),
    QuerySpec.maxrs(10.0, 10.0, refine=False),
    QuerySpec.maxkrs(10.0, 10.0, 2),
    QuerySpec.maxkrs(15.0, 15.0, 3),
    QuerySpec.maxcrs(12.0),
    QuerySpec.maxcrs(12.0, refine=False),
)


def grid(n: int = 25) -> list:
    return [WeightedPoint(float(i % 5) * 3.0, float(i // 5) * 3.0, 1.0 + i % 3)
            for i in range(n)]


def assert_same_answer(got, want):
    """Bit-identical equality for any engine answer (incl. MaxkRS tuples)."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_answer(g, w)
        return
    assert got.total_weight == want.total_weight
    assert got.location == want.location
    if hasattr(want, "region"):
        assert got.region == want.region


class _BlockingEngine(MaxRSEngine):
    """A sync engine whose queries block until the test releases them.

    Lets tests hold queries in-flight deterministically: the admission slot
    is taken on the event loop before the executor thread ever runs, so
    queue/overflow decisions for later arrivals are fully determined.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.release = threading.Event()
        self.started = threading.Event()
        self.calls = 0

    def query(self, dataset, spec, **kwargs):
        self.calls += 1
        self.started.set()
        assert self.release.wait(timeout=30.0), "test never released the gate"
        return super().query(dataset, spec, **kwargs)


# ---------------------------------------------------------------------- #
# Bit-identity and coalescing
# ---------------------------------------------------------------------- #
class TestBitIdentity:
    def test_all_kinds_match_sync_engine(self):
        objects = grid()
        sync = MaxRSEngine()
        handle = sync.register_dataset(objects)
        want = [sync.query(handle, spec) for spec in SPEC_POOL]

        async def run():
            async with AsyncMaxRSEngine() as engine:
                ds = await engine.register_dataset(objects)
                return await asyncio.gather(
                    *(engine.query(ds, spec) for spec in SPEC_POOL))

        got = asyncio.run(run())
        for g, w in zip(got, want):
            assert_same_answer(g, w)

    @_SETTINGS
    @given(objects=objects_strategy,
           picks=st.lists(st.integers(min_value=0,
                                      max_value=len(SPEC_POOL) - 1),
                          min_size=1, max_size=24))
    def test_concurrent_duplicate_mix_is_bit_identical_and_coalesced(
            self, objects, picks):
        """The satellite property: K concurrent duplicate + distinct queries
        across MaxRS/MaxkRS/MaxCRS return bit-identical answers and coalesce
        every duplicate."""
        specs = [SPEC_POOL[i] for i in picks]
        sync = MaxRSEngine()
        handle = sync.register_dataset(objects)
        want = [sync.query(handle, spec) for spec in specs]

        async def run():
            async with AsyncMaxRSEngine(max_inflight=3,
                                        overflow="wait") as engine:
                ds = await engine.register_dataset(objects)
                results = await asyncio.gather(
                    *(engine.query(ds, spec) for spec in specs))
                return results, engine.stats()["aio"]

        got, aio = asyncio.run(run())
        for g, w in zip(got, want):
            assert_same_answer(g, w)
        # Every duplicate of a concurrently-fired identical query shares its
        # leader's computation: it coalesces while the leader runs, or is a
        # loop hit once the answer is cached (the solver thread may finish
        # before the loop reaches a duplicate's cache check).
        assert aio["coalesce_hits"] + aio["loop_hits"] == \
            len(specs) - len(set(specs))
        assert aio["admitted"] == len(set(specs))
        assert aio["rejected"] == 0

    def test_coalescing_is_keyed_by_fingerprint_not_name(self):
        objects = grid()
        spec = QuerySpec.maxrs(6.0, 6.0)

        async def run():
            engine = AsyncMaxRSEngine()
            await engine.register_dataset(objects, name="a")
            await engine.register_dataset(objects, name="b")
            await asyncio.gather(engine.query("a", spec),
                                 engine.query("b", spec))
            stats = engine.stats()["aio"]
            await engine.close()
            return stats

        stats = asyncio.run(run())
        # Byte-identical datasets share one computation (coalesced, or a
        # loop hit if the answer was cached first).
        assert stats["coalesce_hits"] + stats["loop_hits"] == 1
        assert stats["admitted"] == 1

    def test_errors_propagate_to_every_coalesced_waiter(self):
        objects = grid(100)

        async def run():
            # A tiny exact budget makes every maxcrs query fail typed.
            async with AsyncMaxRSEngine(maxcrs_exact_limit=1) as engine:
                ds = await engine.register_dataset(objects)
                return await asyncio.gather(
                    *(engine.query(ds, QuerySpec.maxcrs(50.0))
                      for _ in range(4)),
                    return_exceptions=True)

        outcomes = asyncio.run(run())
        assert len(outcomes) == 4
        assert all(isinstance(o, ServiceError) for o in outcomes)

    def test_cancelled_leader_promotes_a_follower(self):
        """A cancelled leader must not take coalesced followers down: one
        follower retries as the new leader and everyone still gets the
        answer."""
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())
        spec = QuerySpec.maxrs(6.0, 6.0)

        async def run():
            front = AsyncMaxRSEngine(engine)
            leader = asyncio.ensure_future(front.query(handle, spec))
            await asyncio.sleep(0)  # leader claims the coalescing slot
            followers = [asyncio.ensure_future(front.query(handle, spec))
                         for _ in range(3)]
            await asyncio.sleep(0)  # followers coalesce onto the leader
            leader.cancel()
            engine.release.set()
            results = await asyncio.gather(*followers)
            with pytest.raises(asyncio.CancelledError):
                await leader
            stats = front.stats()["aio"]
            await front.close()
            return results, stats

        results, stats = asyncio.run(run())
        assert len(results) == 3
        assert all(r.total_weight == results[0].total_weight
                   and r.region == results[0].region for r in results)
        assert stats["coalesce_retries"] >= 1

    def test_failed_query_does_not_poison_future_coalescing(self):
        objects = grid()

        async def run():
            async with AsyncMaxRSEngine() as engine:
                ds = await engine.register_dataset(objects)
                with pytest.raises(ServiceError):
                    await engine.query("no-such-dataset",
                                       QuerySpec.maxrs(5.0, 5.0))
                return await engine.query(ds, QuerySpec.maxrs(5.0, 5.0))

        assert asyncio.run(run()).total_weight > 0


# ---------------------------------------------------------------------- #
# Admission control and backpressure
# ---------------------------------------------------------------------- #
class TestBackpressure:
    def test_overflow_rejects_with_typed_error(self):
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())
        distinct = [QuerySpec.maxrs(5.0 + i, 5.0) for i in range(3)]

        async def run():
            front = AsyncMaxRSEngine(engine, max_inflight=1, max_queue=1)
            tasks = [asyncio.ensure_future(front.query(handle, spec))
                     for spec in distinct]
            await asyncio.sleep(0)  # let every task reach admission
            engine.release.set()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            stats = front.stats()["aio"]
            await front.close()
            return outcomes, stats

        outcomes, stats = asyncio.run(run())
        # First admitted, second queued, third shed -- deterministically.
        assert not isinstance(outcomes[0], Exception)
        assert not isinstance(outcomes[1], Exception)
        assert isinstance(outcomes[2], ServiceOverloadError)
        assert stats["admitted"] == 2
        assert stats["rejected"] == 1
        assert stats["queue_high_water"] == 1
        assert stats["inflight"] == 0 and stats["queue_depth"] == 0
        engine.close()

    def test_coalesced_duplicates_never_consume_slots(self):
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())
        spec = QuerySpec.maxrs(5.0, 5.0)

        async def run():
            # Room for exactly one running query and zero waiters...
            front = AsyncMaxRSEngine(engine, max_inflight=1, max_queue=0)
            tasks = [asyncio.ensure_future(front.query(handle, spec))
                     for _ in range(6)]
            await asyncio.sleep(0)
            engine.release.set()
            results = await asyncio.gather(*tasks)
            stats = front.stats()["aio"]
            await front.close()
            return results, stats

        results, stats = asyncio.run(run())
        # ...yet six identical queries all succeed: one admission, five
        # coalesce hits, nothing shed.
        assert stats["admitted"] == 1
        assert stats["coalesce_hits"] == 5
        assert stats["rejected"] == 0
        assert all(r.total_weight == results[0].total_weight for r in results)
        engine.close()

    def test_wait_policy_queues_instead_of_shedding(self):
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())
        distinct = [QuerySpec.maxrs(5.0 + i, 5.0) for i in range(4)]

        async def run():
            front = AsyncMaxRSEngine(engine, max_inflight=1, max_queue=0,
                                     overflow="wait")
            tasks = [asyncio.ensure_future(front.query(handle, spec))
                     for spec in distinct]
            await asyncio.sleep(0)
            engine.release.set()
            results = await asyncio.gather(*tasks)
            stats = front.stats()["aio"]
            await front.close()
            return results, stats

        results, stats = asyncio.run(run())
        assert len(results) == 4
        assert stats["admitted"] == 4
        assert stats["rejected"] == 0
        assert stats["queue_high_water"] == 3
        engine.close()

    def test_rejected_queries_do_not_pollute_latency_histograms(self):
        """Shed requests must not land near-zero samples in the served-
        latency histogram -- it reports what completed queries cost."""
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())

        async def run():
            front = AsyncMaxRSEngine(engine, max_inflight=1, max_queue=0)
            admitted = asyncio.ensure_future(
                front.query(handle, QuerySpec.maxrs(5.0, 5.0)))
            await asyncio.sleep(0)
            with pytest.raises(ServiceOverloadError):
                await front.query(handle, QuerySpec.maxrs(9.0, 9.0))
            engine.release.set()
            await admitted
            stats = front.stats()["aio"]
            await front.close()
            return stats

        stats = asyncio.run(run())
        assert stats["rejected"] == 1
        assert stats["latency"]["maxrs"]["count"] == 1  # the served one only
        engine.close()

    def test_invalid_admission_configuration_is_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncMaxRSEngine(max_inflight=0)
        with pytest.raises(ConfigurationError):
            AsyncMaxRSEngine(max_queue=-1)
        with pytest.raises(ConfigurationError):
            AsyncMaxRSEngine(overflow="bogus")


# ---------------------------------------------------------------------- #
# Cache hits on the loop, misses on one solver thread
# ---------------------------------------------------------------------- #
class TestSolverThread:
    def test_cached_spec_is_answered_while_the_solver_is_held(self):
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())
        cached, held = QuerySpec.maxrs(5.0, 5.0), QuerySpec.maxrs(9.0, 9.0)
        want = MaxRSEngine.query(engine, handle, cached)  # fills the cache

        async def run():
            # One slot and no queue: anything that needed admission now
            # would be shed.
            front = AsyncMaxRSEngine(engine, max_inflight=1, max_queue=0)
            leader = asyncio.ensure_future(front.query(handle, held))
            await asyncio.sleep(0)  # the leader holds the slot and the solver
            try:
                hit = await front.query(handle, cached)
                stats = front.stats()["aio"]
            finally:
                engine.release.set()
            await leader
            await front.close()
            return hit, stats

        hit, stats = asyncio.run(run())
        assert_same_answer(hit, want)
        assert hit.cost["cache"] == "hit"
        assert engine.calls == 1  # the held leader only
        assert stats["loop_hits"] == 1
        assert stats["admitted"] == 1 and stats["rejected"] == 0
        engine.close()

    def test_one_counted_cache_lookup_per_query(self):
        specs = [QuerySpec.maxrs(3.0 + i, 4.0) for i in range(6)]

        async def run():
            async with AsyncMaxRSEngine() as front:
                ds = await front.register_dataset(grid())
                counts = [front.stats()["cache"]]
                await asyncio.gather(*(front.query(ds, s) for s in specs))
                counts.append(front.stats()["cache"])
                await asyncio.gather(*(front.query(ds, s) for s in specs))
                counts.append(front.stats()["cache"])
                return counts, front.stats()["aio"]

        (before, misses, hits), aio = asyncio.run(run())
        assert misses["misses"] - before["misses"] == len(specs)
        assert misses["hits"] == before["hits"]
        assert hits["hits"] - misses["hits"] == len(specs)
        assert hits["misses"] == misses["misses"]
        assert aio["admitted"] == aio["loop_hits"] == len(specs)

    def test_misses_run_one_at_a_time_on_one_solver_thread(self):
        engine = MaxRSEngine()
        handle = engine.register_dataset(grid())
        specs = [QuerySpec.maxrs(2.0 + i, 3.0) for i in range(8)]
        compute = engine._compute
        lock = threading.Lock()
        threads, running, overlaps = [], [0], []

        def recorded(entry, spec):
            with lock:
                threads.append(threading.get_ident())
                running[0] += 1
                overlaps.append(running[0])
            time.sleep(0.005)  # room for a second solve to overlap
            try:
                return compute(entry, spec)
            finally:
                with lock:
                    running[0] -= 1

        engine._compute = recorded

        async def run():
            front = AsyncMaxRSEngine(engine, max_inflight=4)
            results = await asyncio.gather(
                *(front.query(handle, spec) for spec in specs))
            await front.close()
            return results, threading.get_ident()

        results, loop_thread = asyncio.run(run())
        assert len(results) == len(threads) == len(specs)
        assert len(set(threads)) == 1 and loop_thread not in threads
        assert max(overlaps) == 1
        engine.close()


# ---------------------------------------------------------------------- #
# Mutation serialization
# ---------------------------------------------------------------------- #
class TestMutationSerialization:
    def test_registration_waits_for_inflight_and_blocks_new_queries(self):
        engine = _BlockingEngine()
        first = engine.register_dataset(grid(), name="first")
        order = []

        async def run():
            front = AsyncMaxRSEngine(engine)

            async def query(tag, spec):
                result = await front.query(first, spec)
                order.append(tag)
                return result

            async def register():
                handle = await front.register_dataset(grid(30), name="second")
                order.append("register")
                return handle

            q1 = asyncio.ensure_future(query("q1", QuerySpec.maxrs(4.0, 4.0)))
            await asyncio.sleep(0)       # q1 holds the read gate
            reg = asyncio.ensure_future(register())
            await asyncio.sleep(0)       # the writer queues, turnstile closes
            q2 = asyncio.ensure_future(query("q2", QuerySpec.maxrs(7.0, 7.0)))
            await asyncio.sleep(0.02)
            assert order == []           # everyone is waiting on q1
            engine.release.set()
            await asyncio.gather(q1, reg, q2)
            await front.close()

        asyncio.run(run())
        # Writer preference: q1 drains, registration runs exclusively, then
        # the queued query proceeds.
        assert order == ["q1", "register", "q2"]
        engine.close()

    def test_cancelled_follower_leaves_leader_and_peers_unharmed(self):
        """Regression: a follower's wait is shielded -- cancelling it (e.g.
        a ``wait_for`` timeout) must not cancel the shared future, crash the
        leader's ``set_result``, or take other followers down."""
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())
        spec = QuerySpec.maxrs(6.0, 6.0)

        async def run():
            front = AsyncMaxRSEngine(engine)
            leader = asyncio.ensure_future(front.query(handle, spec))
            await asyncio.sleep(0)  # leader claims the coalescing slot
            impatient = asyncio.ensure_future(
                asyncio.wait_for(front.query(handle, spec), timeout=0.01))
            patient = asyncio.ensure_future(front.query(handle, spec))
            await asyncio.sleep(0)
            with pytest.raises(asyncio.TimeoutError):
                await impatient
            engine.release.set()
            leader_result, patient_result = await asyncio.gather(leader,
                                                                 patient)
            await front.close()
            return leader_result, patient_result

        leader_result, patient_result = asyncio.run(run())
        assert leader_result.total_weight == patient_result.total_weight
        assert leader_result.region == patient_result.region
        engine.close()

    def test_concurrent_replace_cannot_cross_coalesce_datasets(self):
        """Regression: the coalescing key must be resolved under the read
        gate.  Two names share a fingerprint; while ``replace=True`` rebinds
        one of them, queries for both arrive.  Neither may be served the
        other binding's answer: the untouched name gets the old data's
        result, the replaced name the new data's."""
        old = grid()
        new = [WeightedPoint(p.x, p.y, 10.0 * p.weight) for p in old]
        spec = QuerySpec.maxrs(6.0, 6.0)
        sync = MaxRSEngine()
        want_old = sync.query(sync.register_dataset(old), spec)
        want_new = sync.query(sync.register_dataset(new), spec)
        assert want_old.total_weight != want_new.total_weight

        class _SlowRegisterEngine(MaxRSEngine):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.block_register = False
                self.release = threading.Event()

            def register_dataset(self, objects, **kwargs):
                if self.block_register:
                    assert self.release.wait(timeout=30.0)
                return super().register_dataset(objects, **kwargs)

        engine = _SlowRegisterEngine()

        async def run():
            front = AsyncMaxRSEngine(engine)
            await front.register_dataset(old, name="a")
            await front.register_dataset(old, name="b")
            # Cache "a"'s answer: the entry stays (b holds the same data), so
            # a cache check ahead of the gate would serve it for "a".
            await front.query("a", spec)
            engine.block_register = True
            replace = asyncio.ensure_future(front.register_dataset(
                new, name="a", replace=True))
            await asyncio.sleep(0.02)  # the writer holds the gate
            query_a = asyncio.ensure_future(front.query("a", spec))
            query_b = asyncio.ensure_future(front.query("b", spec))
            await asyncio.sleep(0.02)  # both queries queue behind the writer
            engine.release.set()
            result_a, result_b, _ = await asyncio.gather(query_a, query_b,
                                                         replace)
            stats = front.stats()["aio"]
            await front.close()
            return result_a, result_b, stats

        result_a, result_b, stats = asyncio.run(run())
        assert result_b.total_weight == want_old.total_weight
        assert result_b.region == want_old.region
        assert result_a.total_weight == want_new.total_weight
        assert result_a.region == want_new.region
        # "b" was the cached answer, served on the loop; "a" was solved.
        assert stats["loop_hits"] == 1 and stats["admitted"] == 2
        engine.close()

    def test_unregister_evicts_like_the_sync_engine(self):
        async def run():
            async with AsyncMaxRSEngine() as engine:
                ds = await engine.register_dataset(grid(), name="gone")
                await engine.query(ds, QuerySpec.maxrs(5.0, 5.0))
                await engine.unregister_dataset("gone")
                with pytest.raises(ServiceError):
                    await engine.query("gone", QuerySpec.maxrs(5.0, 5.0))

        asyncio.run(run())


# ---------------------------------------------------------------------- #
# Lifecycle
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_close_drains_accepted_work(self):
        engine = _BlockingEngine()
        handle = engine.register_dataset(grid())

        async def run():
            front = AsyncMaxRSEngine(engine, max_inflight=1, overflow="wait")
            tasks = [asyncio.ensure_future(
                front.query(handle, QuerySpec.maxrs(5.0 + i, 5.0)))
                for i in range(3)]
            await asyncio.sleep(0)
            closer = asyncio.ensure_future(front.close())
            await asyncio.sleep(0)
            # Closed to new work immediately...
            with pytest.raises(ServiceError):
                await front.query(handle, QuerySpec.maxrs(99.0, 99.0))
            engine.release.set()
            # ...but every accepted query (admitted *and* queued) completes.
            results = await asyncio.gather(*tasks)
            await closer
            assert front.closed
            return results

        results = asyncio.run(run())
        assert len(results) == 3
        assert all(r.total_weight > 0 for r in results)

    def test_close_is_idempotent_and_borrowed_engine_stays_open(self):
        engine = MaxRSEngine()
        handle = engine.register_dataset(grid())
        solvers = []
        compute = engine._compute

        def recorded(entry, spec):
            solvers.append(threading.current_thread())
            return compute(entry, spec)

        engine._compute = recorded

        async def run():
            front = AsyncMaxRSEngine(engine)
            await front.query(handle, QuerySpec.maxrs(5.0, 5.0))
            await front.close()
            await front.close()
            return front

        front = asyncio.run(run())
        # The front-end, still referenced, shut its solver thread down...
        (solver,) = solvers
        solver.join(timeout=30.0)
        assert not solver.is_alive()
        # ...but did not close the borrowed engine.
        assert engine.readyz()["ready"]
        assert engine.query(handle, QuerySpec.maxrs(6.0, 6.0)).total_weight > 0
        assert front.closed
        engine.close()

    def test_closed_front_end_is_released_by_a_borrowed_engine(self):
        engine = MaxRSEngine()
        handle = engine.register_dataset(grid())
        sources = len(engine.sampler._sources)

        async def run():
            front = AsyncMaxRSEngine(engine)
            await front.query(handle, QuerySpec.maxrs(5.0, 5.0))
            await front.close()
            return weakref.ref(front)

        closed = asyncio.run(run())
        gc.collect()
        assert closed() is None
        assert len(engine.sampler._sources) == sources
        engine.close()

    def test_owned_engine_is_closed_with_the_front_end(self):
        async def run():
            front = AsyncMaxRSEngine()
            await front.register_dataset(grid())
            inner = front.engine
            await front.close()
            return inner

        inner = asyncio.run(run())
        assert not inner.readyz()["ready"]  # closed alongside the front-end

    def test_stats_shape(self):
        async def run():
            async with AsyncMaxRSEngine(max_inflight=2, max_queue=7) as front:
                ds = await front.register_dataset(grid())
                await front.query_batch(
                    ds, [QuerySpec.maxrs(5.0, 5.0)] * 3)
                return front.stats()

        stats = asyncio.run(run())
        aio = stats["aio"]
        assert aio["max_inflight"] == 2 and aio["max_queue"] == 7
        assert aio["overflow"] == "reject"
        assert aio["queries"] == 3 and aio["batch_queries"] == 3
        assert aio["admitted"] + aio["coalesce_hits"] + aio["loop_hits"] == 3
        assert aio["inflight"] == 0 and aio["queue_depth"] == 0
        assert aio["coalescing_now"] == 0
        # End-to-end latency histograms per kind, alongside the sync ones.
        assert aio["latency"]["maxrs"]["count"] == 3
        assert stats["latency"]["aio_maxrs"]["count"] == 3

    def test_query_batch_aligns_results_with_specs(self):
        objects = grid()
        sync = MaxRSEngine()
        handle = sync.register_dataset(objects)
        specs = [QuerySpec.maxrs(5.0, 5.0), QuerySpec.maxkrs(5.0, 5.0, 2),
                 QuerySpec.maxrs(5.0, 5.0), QuerySpec.maxcrs(8.0)]
        want = [sync.query(handle, spec) for spec in specs]

        async def run():
            async with AsyncMaxRSEngine() as front:
                ds = await front.register_dataset(objects)
                return await front.query_batch(ds, specs)

        got = asyncio.run(run())
        for g, w in zip(got, want):
            assert_same_answer(g, w)
