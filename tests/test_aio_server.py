"""End-to-end tests for the TCP query service (:mod:`repro.aio.server`).

A real server on a loopback socket, real :class:`AsyncQueryClient`
connections: network answers must be bit-identical to in-process sync engine
answers, concurrent identical queries from *different* sockets must coalesce,
overload must surface to the remote caller as the same typed error, and
shutdown must drain in-flight work.  No pytest-asyncio: each test drives its
own ``asyncio.run``.
"""

import asyncio
import threading

import pytest

from repro.aio import AsyncMaxRSEngine, AsyncQueryClient, serve
from repro.aio.server import MaxRSServer
from repro.errors import (
    ReproError,
    SerializationError,
    ServiceError,
    ServiceOverloadError,
)
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec


def grid(n: int = 25) -> list:
    return [WeightedPoint(float(i % 5) * 3.0, float(i // 5) * 3.0, 1.0 + i % 3)
            for i in range(n)]


def reference_answers(objects, specs):
    engine = MaxRSEngine()
    handle = engine.register_dataset(objects)
    return [engine.query(handle, spec) for spec in specs]


def assert_same_answer(got, want):
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
    """Queries block until released -- for deterministic concurrency tests."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.release = threading.Event()

    def query(self, dataset, spec, **kwargs):
        assert self.release.wait(timeout=30.0), "test never released the gate"
        return super().query(dataset, spec, **kwargs)


class TestRoundTrip:
    def test_network_answers_are_bit_identical(self):
        objects = grid()
        specs = [QuerySpec.maxrs(6.0, 6.0), QuerySpec.maxrs(10.0, 3.0),
                 QuerySpec.maxkrs(6.0, 6.0, 2), QuerySpec.maxcrs(8.0),
                 QuerySpec.maxrs(6.0, 6.0, refine=False)]
        want = reference_answers(objects, specs)

        async def run():
            server = await serve(MaxRSEngine())
            async with await AsyncQueryClient.connect(
                    "127.0.0.1", server.port) as client:
                assert await client.ping()
                dataset = await client.register(objects, name="city")
                assert dataset == "city"
                got = [await client.query(dataset, spec) for spec in specs]
                batch = await client.query_batch(dataset, specs)
            await server.stop()
            return got, batch

        got, batch = asyncio.run(run())
        for g, w in zip(got, want):
            assert_same_answer(g, w)
        for g, w in zip(batch, want):
            assert_same_answer(g, w)

    def test_many_clients_coalesce_on_the_hot_key(self):
        objects = grid()
        spec = QuerySpec.maxrs(6.0, 6.0)
        [want] = reference_answers(objects, [spec])

        async def run():
            engine = _BlockingEngine()
            front = AsyncMaxRSEngine(engine, max_inflight=2)
            server = await serve(front)
            clients = [await AsyncQueryClient.connect("127.0.0.1", server.port)
                       for _ in range(5)]
            try:
                dataset = await clients[0].register(objects, name="hot")
                tasks = [asyncio.ensure_future(client.query(dataset, spec))
                         for client in clients]
                # Let every request reach the engine before releasing it, so
                # the duplicates are genuinely concurrent and in-flight.
                while front.stats()["aio"]["queries"] < len(clients):
                    await asyncio.sleep(0.005)
                engine.release.set()
                results = await asyncio.gather(*tasks)
                stats = await clients[0].stats()
            finally:
                for client in clients:
                    await client.close()
                await server.stop()
                await front.close()
                engine.close()
            return results, stats

        results, stats = asyncio.run(run())
        for result in results:
            assert_same_answer(result, want)
        # One admitted leader; the other four sockets' queries coalesced.
        assert stats["aio"]["admitted"] == 1
        assert stats["aio"]["coalesce_hits"] == 4

    def test_overload_surfaces_as_typed_error_remotely(self):
        objects = grid()

        async def run():
            engine = _BlockingEngine()
            front = AsyncMaxRSEngine(engine, max_inflight=1, max_queue=0)
            server = await serve(front)
            client = await AsyncQueryClient.connect("127.0.0.1", server.port)
            try:
                dataset = await client.register(objects, name="busy")
                blocked = asyncio.ensure_future(
                    client.query(dataset, QuerySpec.maxrs(5.0, 5.0)))
                while front.stats()["aio"]["queries"] < 1:
                    await asyncio.sleep(0.005)
                with pytest.raises(ServiceOverloadError):
                    await client.query(dataset, QuerySpec.maxrs(9.0, 9.0))
                engine.release.set()
                await blocked
            finally:
                await client.close()
                await server.stop()
                await front.close()
                engine.close()

        asyncio.run(run())

    def test_service_errors_map_back_to_local_types(self):
        async def run():
            server = await serve(MaxRSEngine())
            async with await AsyncQueryClient.connect(
                    "127.0.0.1", server.port) as client:
                with pytest.raises(ServiceError):
                    await client.query("no-such-dataset",
                                       QuerySpec.maxrs(5.0, 5.0))
                with pytest.raises(ReproError):
                    await client.unregister("also-missing")
            await server.stop()

        asyncio.run(run())

    def test_stats_op_reports_the_aio_section(self):
        async def run():
            server = await serve(MaxRSEngine())
            async with await AsyncQueryClient.connect(
                    "127.0.0.1", server.port) as client:
                dataset = await client.register(grid(), name="s")
                await client.query(dataset, QuerySpec.maxrs(5.0, 5.0))
                stats = await client.stats()
            await server.stop()
            return stats

        stats = asyncio.run(run())
        assert stats["datasets"] == 1
        assert stats["aio"]["queries"] == 1
        assert stats["aio"]["latency"]["maxrs"]["count"] == 1
        assert stats["cache"]["misses"] >= 1

    def test_healthz_and_readyz_ops(self):
        """The health surface is a first-class protocol citizen: verdicts
        fetched over the wire match the engine's own, and ``readyz`` carries
        the front-end's admission check."""
        engine = MaxRSEngine()

        async def run():
            server = await serve(engine)
            async with await AsyncQueryClient.connect(
                    "127.0.0.1", server.port) as client:
                dataset = await client.register(grid(), name="h")
                await client.query(dataset, QuerySpec.maxrs(5.0, 5.0))
                health = await client.healthz()
                ready = await client.readyz()
            await server.stop()
            return health, ready

        health, ready = asyncio.run(run())
        assert health["ok"] is True and health["status"] == "ok"
        assert health["checks"]["slo"]["status"] == "ok"
        assert ready["ready"] is True
        assert ready["checks"]["aio"]["status"] == "ok"
        assert ready["checks"]["closed"]["status"] == "ok"
        # The scrape-time gauges the healthz sample refreshed are visible
        # in the engine's own snapshot afterwards.
        assert engine.metrics.gauge("admission_inflight") is not None


class TestProtocolRobustness:
    async def _raw_request(self, port, payload: bytes) -> bytes:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(payload)
        await writer.drain()
        line = await reader.readline()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        return line

    def test_malformed_json_gets_an_error_response(self):
        async def run():
            server = await serve(MaxRSEngine())
            line = await self._raw_request(server.port, b"{broken\n")
            await server.stop()
            return line

        import json
        response = json.loads(asyncio.run(run()))
        assert response["ok"] is False
        assert response["error"] == "SerializationError"

    def test_unknown_op_gets_an_error_response(self):
        async def run():
            server = await serve(MaxRSEngine())
            line = await self._raw_request(
                server.port, b'{"op": "launch", "id": 9}\n')
            await server.stop()
            return line

        import json
        response = json.loads(asyncio.run(run()))
        assert response["id"] == 9
        assert response["ok"] is False
        assert response["error"] == "SerializationError"

    def test_close_op_acknowledges_then_disconnects(self):
        async def run():
            server = await serve(MaxRSEngine())
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b'{"op": "close", "id": 1}\n')
            await writer.drain()
            ack = await reader.readline()
            eof = await reader.readline()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            await server.stop()
            return ack, eof

        import json
        ack, eof = asyncio.run(run())
        assert json.loads(ack)["closing"] is True
        assert eof == b""  # the server closed its end after the ack


class TestShutdown:
    def test_stop_drains_inflight_requests(self):
        objects = grid()
        [want] = reference_answers(objects, [QuerySpec.maxrs(5.0, 5.0)])

        async def run():
            engine = _BlockingEngine()
            server = await MaxRSServer(engine).start()
            client = await AsyncQueryClient.connect("127.0.0.1", server.port)
            dataset = await client.register(objects, name="d")
            pending = asyncio.ensure_future(
                client.query(dataset, QuerySpec.maxrs(5.0, 5.0)))
            while server.engine.stats()["aio"]["queries"] < 1:
                await asyncio.sleep(0.005)
            stopper = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0.02)
            assert not pending.done()  # stop() is waiting, not dropping
            engine.release.set()
            result = await pending
            await stopper
            await client.close()
            engine.close()
            return result

        result = asyncio.run(run())
        assert_same_answer(result, want)

    def test_stop_returns_with_idle_connections_open(self):
        """Regression: an idle client parked in the server's readline() must
        not wedge stop() (Python 3.12's ``wait_closed`` waits for every
        handler, so stop() has to close idle connections itself)."""

        async def run():
            server = await serve(MaxRSEngine())
            client = await AsyncQueryClient.connect("127.0.0.1", server.port)
            assert await client.ping()
            # The client stays connected and silent; stop() must still
            # finish promptly and the client must observe the disconnect.
            await asyncio.wait_for(server.stop(), timeout=5.0)
            with pytest.raises(ServiceError):
                await client.ping()
            await client.close()

        asyncio.run(run())

    def test_lost_connection_fails_pending_requests(self):
        async def run():
            engine = _BlockingEngine()
            server = await MaxRSServer(engine).start()
            client = await AsyncQueryClient.connect("127.0.0.1", server.port)
            dataset = await client.register(grid(), name="d")
            pending = asyncio.ensure_future(
                client.query(dataset, QuerySpec.maxrs(5.0, 5.0)))
            while server.engine.stats()["aio"]["queries"] < 1:
                await asyncio.sleep(0.005)
            # The server process dies mid-query: the client must not hang.
            client._writer.transport.abort()
            with pytest.raises(ServiceError):
                await pending
            engine.release.set()
            await server.stop()
            await client.close()
            engine.close()

        asyncio.run(run())
