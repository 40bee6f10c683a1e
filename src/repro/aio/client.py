"""Asyncio client for the network query protocol.

:class:`AsyncQueryClient` speaks the JSON-lines protocol of
:mod:`repro.aio.protocol` to a :class:`~repro.aio.server.MaxRSServer`.  The
connection is **pipelined**: every request gets a monotonically increasing
``id`` and a future; a background reader task matches responses (which may
arrive out of order -- the server executes requests concurrently) back to
their futures.  Many coroutines can therefore share one client and one
socket, and identical concurrent queries still coalesce server-side.

Remote failures are re-raised as their local :mod:`repro.errors` types, so::

    try:
        result = await client.query(ds, QuerySpec.maxrs(w, h))
    except ServiceOverloadError:
        await backoff_and_retry()

works identically against a remote engine and an in-process one.

Pass a :class:`~repro.obs.Tracer` (or a recorder spec) to :meth:`connect`
and every operation opens a ``client.<op>`` span whose trace id rides the
request's ``trace`` field, so the server's ``server.request`` span -- and
everything under it, down to the plane sweep and blob I/O -- joins the
client's trace.  Without a tracer, calls made under an ambient span (e.g.
inside ``with tracer.trace(...)``) still propagate that span's trace id.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import obs
from repro.errors import ServiceError
from repro.geometry import WeightedPoint
from repro.service.engine import QueryResult, QuerySpec
from repro.aio import protocol

__all__ = ["AsyncQueryClient"]


class AsyncQueryClient:
    """One pipelined JSON-lines connection to a MaxRS query server.

    Use :meth:`connect` (or the async context manager form) rather than the
    constructor::

        async with await AsyncQueryClient.connect(host, port) as client:
            dataset = await client.register(points, name="city")
            result = await client.query(dataset, QuerySpec.maxrs(w, h))
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 tracer: Union[None, str, obs.Tracer,
                               obs.TraceRecorder] = None,
                 client_id: Optional[str] = None) -> None:
        self._reader = reader
        self._writer = writer
        if tracer is None or isinstance(tracer, obs.Tracer):
            self.tracer = tracer
        else:
            self.tracer = obs.Tracer(obs.resolve_recorder(tracer))
        #: Stamped into every query/query_batch request for the server's
        #: per-client accounting (``stats()["clients"]``); None = anonymous.
        self.client_id = client_id
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_responses())

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      tracer: Union[None, str, obs.Tracer,
                                    obs.TraceRecorder] = None,
                      client_id: Optional[str] = None
                      ) -> "AsyncQueryClient":
        """Open a connection to a running server.

        ``tracer`` enables client-side tracing: a :class:`~repro.obs.Tracer`,
        a :class:`~repro.obs.TraceRecorder`, or a recorder spec such as
        ``"ring"`` (see :func:`repro.obs.resolve_recorder`).

        ``client_id`` names this client to the server's per-client
        accounting: every query it issues is attributed to that id in the
        engine's cumulative ledgers.  Servers predating the field ignore it.
        """
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, tracer=tracer, client_id=client_id)

    # ------------------------------------------------------------------ #
    # Wire plumbing
    # ------------------------------------------------------------------ #
    async def _read_responses(self) -> None:
        """Match incoming responses (any order) to their pending futures."""
        failure: Optional[BaseException] = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break  # server closed the connection
                response = protocol.decode_line(line.strip())
                future = self._pending.pop(response.get("id"), None)
                if future is None or future.done():
                    continue  # unsolicited or abandoned; drop it
                if response.get("ok"):
                    future.set_result(response)
                else:
                    future.set_exception(
                        protocol.exception_from_wire(response))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            failure = exc
        finally:
            # Whatever ended the stream, nothing further will arrive: fail
            # every still-pending request instead of hanging its caller.
            error = ServiceError(
                "connection to the query server was lost"
                + (f": {failure}" if failure is not None else ""))
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def _call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._closed:
            raise ServiceError("the client is closed")
        if self._reader_task.done():
            raise ServiceError("connection to the query server was lost")
        op = str(message.get("op"))
        # With a tracer: each call is (at least) a root client.<op> span.
        # Without one: join any ambient trace so a caller's tracer.trace()
        # block still covers the wire hop.  Both are no-ops when nothing is
        # being traced, and the trace id rides the request's ``trace`` field.
        if self.tracer is not None:
            scope = self.tracer.trace(f"client.{op}")
        else:
            scope = obs.span(f"client.{op}")
        with scope:
            trace_id = obs.current_trace_id()
            if trace_id is not None:
                message["trace"] = trace_id
            request_id = next(self._ids)
            message["id"] = request_id
            future = asyncio.get_running_loop().create_future()
            self._pending[request_id] = future
            try:
                async with self._write_lock:
                    self._writer.write(protocol.encode_line(message))
                    await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                self._pending.pop(request_id, None)
                raise ServiceError(
                    f"could not reach the query server: {exc}") from exc
            try:
                return await future
            finally:
                self._pending.pop(request_id, None)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    async def ping(self) -> bool:
        """Round-trip liveness probe."""
        response = await self._call({"op": "ping"})
        return bool(response.get("pong"))

    async def register(self, objects: Sequence[WeightedPoint], *,
                       name: Optional[str] = None,
                       replace: bool = False) -> str:
        """Register a dataset on the server; returns its dataset id."""
        response = await self._call({
            "op": "register",
            "points": protocol.points_to_wire(objects),
            "name": name,
            "replace": replace,
        })
        return response["dataset"]

    async def unregister(self, dataset: str, *,
                         keep_snapshot: bool = False) -> None:
        """Unregister a dataset on the server."""
        await self._call({"op": "unregister", "dataset": dataset,
                          "keep_snapshot": keep_snapshot})

    async def query(self, dataset: str, spec: QuerySpec) -> QueryResult:
        """Answer one query remotely; the decoded result is bit-identical
        to the engine's in-process answer (its ``cost`` ledger rides along
        but is excluded from equality)."""
        message: Dict[str, Any] = {
            "op": "query", "dataset": dataset,
            "spec": protocol.spec_to_wire(spec),
        }
        if self.client_id is not None:
            message["client_id"] = self.client_id
        response = await self._call(message)
        return protocol.result_from_wire(response["result"])

    async def query_batch(self, dataset: str,
                          specs: Sequence[QuerySpec]) -> List[QueryResult]:
        """Answer many queries in one request; results align with ``specs``."""
        message: Dict[str, Any] = {
            "op": "query_batch", "dataset": dataset,
            "specs": [protocol.spec_to_wire(spec) for spec in specs],
        }
        if self.client_id is not None:
            message["client_id"] = self.client_id
        response = await self._call(message)
        return [protocol.result_from_wire(wire)
                for wire in response["results"]]

    async def explain(self, dataset: str, spec: QuerySpec) -> Dict[str, Any]:
        """The plan the server would take for ``spec`` -- without running it.

        Returns the engine's :meth:`~repro.service.engine.MaxRSEngine.
        explain` dict (path, cache membership, probe/prune estimates,
        backend choice).  Explaining
        never sweeps and never mutates server state.
        """
        response = await self._call({
            "op": "explain", "dataset": dataset,
            "spec": protocol.spec_to_wire(spec),
        })
        return response["plan"]

    async def trace_profile(self, trace_id: Optional[str] = None
                            ) -> Dict[str, Any]:
        """Per-stage self-time profile of the server's retained traces.

        ``trace_id`` narrows the fold to one trace's server-side roots;
        ``None`` profiles everything the server's recorder retained.
        """
        message: Dict[str, Any] = {"op": "trace_profile"}
        if trace_id is not None:
            message["trace_id"] = trace_id
        response = await self._call(message)
        return response["profile"]

    async def stats(self) -> Dict[str, Any]:
        """The server engine's ``stats()`` tree (JSON-sanitized)."""
        response = await self._call({"op": "stats"})
        return response["stats"]

    async def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Fetch the server-retained traces with ``trace_id``.

        Returns a list of trace dictionaries (see ``Trace.to_dict``), oldest
        first -- empty when the server has never seen the id or its tracer
        does not retain traces (e.g. the default :class:`~repro.obs.
        NullRecorder`).  Rebuild rich objects with ``Trace.from_dict``.
        """
        response = await self._call({"op": "trace", "trace_id": trace_id})
        return response["traces"]

    async def metrics_text(self) -> str:
        """The server engine's metrics in Prometheus text exposition form."""
        response = await self._call({"op": "metrics_text"})
        return response["text"]

    async def healthz(self) -> Dict[str, Any]:
        """The server's liveness verdict: ``{"ok", "status", "checks"}``.

        Unlike :meth:`ping` (which only proves the socket and event loop),
        this reports what the engine knows about itself -- a closed engine,
        an unwritable snapshot directory, firing SLO alerts.
        """
        response = await self._call({"op": "healthz"})
        return response["health"]

    async def readyz(self) -> Dict[str, Any]:
        """The server's readiness verdict: ``{"ready", "status", "checks"}``
        -- the signal a load balancer should route on."""
        response = await self._call({"op": "readyz"})
        return response["health"]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def close(self) -> None:
        """Say goodbye (best effort), stop the reader, close the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            # Polite close: the server drains this connection's pipeline and
            # acknowledges before the socket goes down.
            request_id = next(self._ids)
            future = asyncio.get_running_loop().create_future()
            self._pending[request_id] = future
            async with self._write_lock:
                self._writer.write(protocol.encode_line(
                    {"op": "close", "id": request_id}))
                await self._writer.drain()
            await asyncio.wait_for(future, timeout=5.0)
        except (ServiceError, ConnectionError, OSError, asyncio.TimeoutError):
            pass  # the connection is going away regardless
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncQueryClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
