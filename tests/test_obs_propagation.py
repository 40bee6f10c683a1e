"""Trace propagation across threads, asyncio tasks, and the TCP wire.

Two hand-offs would each orphan spans if context were not carried
explicitly:

1. ``AsyncMaxRSEngine`` hops from the event loop onto its solver thread via
   ``run_in_executor``;
2. ``AsyncQueryClient`` crosses process (and potentially host) boundaries
   over the JSON-lines protocol's ``trace`` field.

A caller that runs ``MaxRSEngine.query_batch`` on threads of its own carries
its context there itself, and every query of the batch joins its trace.

These tests pin each hand-off down, plus the interop guarantees (peers
without the field keep working) and the end-to-end acceptance shape: one
client-initiated trace covering client -> server -> engine -> grid ->
backend -> persist with the client's trace id on every span.  No
pytest-asyncio: each test drives its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.aio import AsyncMaxRSEngine, AsyncQueryClient
from repro.aio.server import MaxRSServer
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec


def grid(n: int = 200) -> list:
    return [WeightedPoint(float(i % 20) * 5.0, float(i // 20) * 5.0,
                          1.0 + i % 3) for i in range(n)]


SPEC = QuerySpec.maxrs(12.0, 12.0)


def assert_same_answer(got, want):
    assert got.total_weight == want.total_weight
    assert got.location == want.location
    assert got.region == want.region


# ---------------------------------------------------------------------- #
# Hand-off 1: the event loop -> the solver thread
# ---------------------------------------------------------------------- #
def test_trace_context_survives_run_in_executor():
    engine = MaxRSEngine(tracer="ring")
    recorder = engine.tracer.recorder

    async def run():
        async with AsyncMaxRSEngine(engine) as aio:
            dataset = await aio.register_dataset(grid())
            await aio.query(dataset, SPEC)

    asyncio.run(run())
    trace = next(t for t in recorder.traces() if t.name == "aio.query")
    # The engine.query work ran on the solver thread, yet its span is a
    # child of the event-loop-side aio.query span -- context crossed the
    # executor.
    engine_span = trace.find("engine.query")
    assert engine_span is not None
    admission = trace.find("aio.admission")
    assert admission is not None
    assert engine_span.trace_id == trace.trace_id
    assert trace.find("backend.sweep") is not None  # deepest sync-side span


def test_coalesced_followers_get_their_own_span():
    engine = MaxRSEngine(tracer="ring")
    recorder = engine.tracer.recorder

    async def run():
        async with AsyncMaxRSEngine(engine, max_inflight=1) as aio:
            dataset = await aio.register_dataset(grid())
            await asyncio.gather(*(aio.query(dataset, SPEC)
                                   for _ in range(4)))

    asyncio.run(run())
    query_traces = [t for t in recorder.traces() if t.name == "aio.query"]
    assert len(query_traces) == 4  # every caller traced, coalesced or not
    coalesced = [t for t in query_traces
                 if t.find("aio.coalesce") is not None]
    solved = [t for t in query_traces if t.find("engine.query") is not None]
    # One trace carries the real solve; followers carry the coalesce wait.
    assert len(solved) >= 1
    assert len(coalesced) + len(solved) >= 4


# ---------------------------------------------------------------------- #
# query_batch on the caller's threads
# ---------------------------------------------------------------------- #
def test_batch_spans_carry_the_caller_trace_id():
    engine = MaxRSEngine(tracer="ring")
    dataset = engine.register_dataset(grid())
    specs = [QuerySpec.maxrs(4.0 + 2.0 * i, 6.0) for i in range(6)]
    seen = []  # (thread, ambient trace id) of every computed query
    compute = engine._compute

    def recorded(entry, spec):
        seen.append((threading.current_thread(), obs.current_trace_id()))
        return compute(entry, spec)

    engine._compute = recorded
    try:
        with engine.tracer.trace("caller") as root:
            # Two batches side by side on the caller's threads, each in its
            # own copy of the caller's context.
            with ThreadPoolExecutor(max_workers=2) as pool:
                batches = [pool.submit(contextvars.copy_context().run,
                                       engine.query_batch, dataset, half)
                           for half in (specs[:3], specs[3:])]
                for batch in batches:
                    batch.result()
    finally:
        engine.close()

    # The queries ran on the caller's pool threads, and each saw its trace...
    assert all(thread is not threading.current_thread()
               for thread, _ in seen)
    assert {trace_id for _, trace_id in seen} == {root.trace_id}
    # ...so their engine.query spans joined the caller's tree.
    trace = engine.tracer.recorder.last()
    assert trace.name == "caller"
    query_spans = trace.find_all("engine.query")
    assert len(query_spans) == len(specs)
    assert {sp.trace_id for sp in query_spans} == {root.trace_id}
    assert {sp.parent_id for sp in query_spans} == {trace.root.span_id}


def test_tracing_does_not_change_answers():
    objects = grid()
    plain = MaxRSEngine()
    want = plain.query(plain.register_dataset(objects), SPEC)
    traced = MaxRSEngine(tracer="ring")
    got = traced.query(traced.register_dataset(objects), SPEC)
    assert_same_answer(got, want)


# ---------------------------------------------------------------------- #
# Hand-off 3: the TCP wire
# ---------------------------------------------------------------------- #
def test_server_continues_client_trace_id(tmp_path):
    engine = MaxRSEngine(tracer="ring", persist_dir=str(tmp_path))
    objects = grid()

    async def run():
        async with MaxRSServer(engine) as server:
            client = await AsyncQueryClient.connect(
                "127.0.0.1", server.port, tracer="ring")
            try:
                dataset = await client.register(objects, name="wired")
                await client.query(dataset, SPEC)
                client_traces = client.tracer.recorder.traces()
                query_trace = next(t for t in client_traces
                                   if t.name == "client.query")
                remote = await client.trace(query_trace.trace_id)
                return query_trace, remote
            finally:
                await client.close()

    query_trace, remote = asyncio.run(run())
    assert len(remote) == 1
    server_trace = obs.Trace.from_dict(remote[0])
    assert server_trace.trace_id == query_trace.trace_id
    assert server_trace.name == "server.request"
    assert server_trace.root.attributes["op"] == "query"
    # The server-side tree reaches all the way down.
    for name in ("aio.query", "engine.query", "cache.lookup",
                 "backend.sweep"):
        assert server_trace.find(name) is not None, name
    assert {sp.trace_id for sp in server_trace.spans()} == \
        {query_trace.trace_id}


def test_untraced_client_against_traced_server():
    # A client that never sends the trace field: the server must serve it
    # unchanged (requests without the field are the v1 protocol).
    engine = MaxRSEngine(tracer="ring")
    objects = grid()

    async def run():
        async with MaxRSServer(engine) as server:
            async with await AsyncQueryClient.connect(
                    "127.0.0.1", server.port) as client:
                dataset = await client.register(objects)
                return await client.query(dataset, SPEC)

    got = asyncio.run(run())
    plain = MaxRSEngine()
    assert_same_answer(got, plain.query(plain.register_dataset(objects),
                                        SPEC))
    # Server-initiated traces exist (its tracer is on) with fresh ids.
    assert all(t.name == "server.request"
               for t in engine.tracer.recorder.traces())


def test_traced_client_against_untraced_server():
    # The inverse: the server's tracing is off (default NullRecorder), but a
    # traced client's requests must still succeed -- the extra field is
    # simply carried; and the trace op politely returns nothing.
    engine = MaxRSEngine()
    objects = grid()

    async def run():
        async with MaxRSServer(engine) as server:
            client = await AsyncQueryClient.connect(
                "127.0.0.1", server.port, tracer="ring")
            try:
                dataset = await client.register(objects)
                result = await client.query(dataset, SPEC)
                query_trace = next(
                    t for t in client.tracer.recorder.traces()
                    if t.name == "client.query")
                remote = await client.trace(query_trace.trace_id)
                return result, remote
            finally:
                await client.close()

    result, remote = asyncio.run(run())
    assert remote == []  # NullRecorder retains nothing
    plain = MaxRSEngine()
    assert_same_answer(result, plain.query(plain.register_dataset(objects),
                                           SPEC))


def test_trace_op_unknown_id_returns_empty():
    engine = MaxRSEngine(tracer="ring")

    async def run():
        async with MaxRSServer(engine) as server:
            async with await AsyncQueryClient.connect(
                    "127.0.0.1", server.port) as client:
                return await client.trace("deadbeefdeadbeef")

    assert asyncio.run(run()) == []


def test_metrics_text_over_the_wire():
    engine = MaxRSEngine()
    objects = grid()

    async def run():
        async with MaxRSServer(engine) as server:
            async with await AsyncQueryClient.connect(
                    "127.0.0.1", server.port) as client:
                dataset = await client.register(objects)
                await client.query(dataset, SPEC)
                return await client.metrics_text()

    text = asyncio.run(run())
    assert text == obs.metrics_text(engine.metrics)
    assert 'repro_latency_seconds_bucket{kind="maxrs"' in text
    assert text.rstrip().splitlines()[-1].startswith("repro_")


# ---------------------------------------------------------------------- #
# Acceptance: one distributed trace, client to blob I/O
# ---------------------------------------------------------------------- #
def test_end_to_end_distributed_trace(tmp_path):
    engine = MaxRSEngine(tracer="ring", persist_dir=str(tmp_path))
    objects = grid(400)
    spec = QuerySpec.maxrs(15.0, 15.0)

    async def run():
        async with MaxRSServer(engine) as server:
            client = await AsyncQueryClient.connect(
                "127.0.0.1", server.port, tracer="ring")
            try:
                with client.tracer.trace("session") as session_root:
                    dataset = await client.register(objects, name="e2e")
                    result = await client.query(dataset, spec)
                session_trace = client.tracer.recorder.last()
                remote = await client.trace(session_root.trace_id)
                return result, session_trace, remote
            finally:
                await client.close()

    result, session_trace, remote = asyncio.run(run())

    # Client side: one trace, with one client.<op> span per wire call.
    assert [sp.name for sp in session_trace.root.children] == \
        ["client.register", "client.query"]

    # Server side: the register and the query continued the same trace.
    server_traces = [obs.Trace.from_dict(t) for t in remote]
    assert len(server_traces) == 2
    assert {t.trace_id for t in server_traces} == {session_trace.trace_id}
    register_trace = next(t for t in server_traces
                          if t.root.attributes["op"] == "register")
    query_trace = next(t for t in server_traces
                       if t.root.attributes["op"] == "query")

    # The register trace reaches the persistence layer's blob I/O...
    blob_spans = register_trace.find_all("persist.blob_io")
    assert blob_spans, register_trace.render()
    assert any(sp.attributes.get("block_writes", 0) > 0 for sp in blob_spans)
    # ...and the grid build.
    assert register_trace.find("engine.grid_build") is not None

    # The query trace is >= 6 spans deep-and-wide across every layer.
    for name in ("server.request", "aio.query", "engine.query",
                 "cache.lookup", "engine.approximate", "backend.sweep"):
        assert query_trace.find(name) is not None, query_trace.render()
    assert len(query_trace.spans()) >= 6

    # Every span of every piece carries the client's trace id.
    all_spans = session_trace.spans() + [sp for t in server_traces
                                         for sp in t.spans()]
    assert {sp.trace_id for sp in all_spans} == {session_trace.trace_id}

    # And tracing never changed the answer.
    plain = MaxRSEngine()
    assert_same_answer(result, plain.query(plain.register_dataset(objects),
                                           spec))


def test_stats_surface_trace_summaries():
    engine = MaxRSEngine(tracer="ring")
    dataset = engine.register_dataset(grid())
    engine.query(dataset, SPEC)
    summaries = engine.stats()["traces"]
    assert [s["name"] for s in summaries] == ["engine.register",
                                              "engine.query"]
    assert all(s["spans"] >= 1 and s["duration_s"] > 0.0 for s in summaries)
