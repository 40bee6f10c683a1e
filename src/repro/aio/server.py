"""Asyncio TCP server: one resident engine serving many network clients.

:class:`MaxRSServer` speaks the JSON-lines protocol of
:mod:`repro.aio.protocol` over plain TCP.  Each connection may pipeline
requests: every line is dispatched as its own task, responses carry the
request's ``id`` and are written under a per-connection lock, so a slow solve
never blocks a cheap ``stats`` probe queued behind it on the same socket --
and identical queries from *different* sockets coalesce inside the
:class:`~repro.aio.engine.AsyncMaxRSEngine` front-end.

Shutdown is graceful: :meth:`MaxRSServer.stop` stops accepting, lets every
in-flight request finish (draining the engine), then closes the sockets --
the same drain-first discipline as ``AsyncMaxRSEngine.close``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Set

from repro.errors import ReproError, SerializationError
from repro.aio.engine import AsyncMaxRSEngine
from repro.aio import protocol

__all__ = ["MaxRSServer", "serve"]

#: Refuse absurd single lines instead of buffering them (64 MiB allows
#: ~1.3M-point register requests; raise per server if you need more).
DEFAULT_LINE_LIMIT = 64 * 1024 * 1024


class MaxRSServer:
    """A TCP JSON-lines front door for an :class:`AsyncMaxRSEngine`.

    Parameters
    ----------
    engine:
        The async engine to serve.  A bare :class:`~repro.service.engine.
        MaxRSEngine` is accepted too and wrapped with default admission
        settings; pass an :class:`AsyncMaxRSEngine` to control
        ``max_inflight`` / ``max_queue`` / ``overflow``.
    host, port:
        Listen address; ``port=0`` (default) lets the OS pick -- read
        :attr:`port` after :meth:`start` for the bound one.
    """

    def __init__(self, engine, *, host: str = "127.0.0.1", port: int = 0,
                 line_limit: int = DEFAULT_LINE_LIMIT) -> None:
        if isinstance(engine, AsyncMaxRSEngine):
            self.engine = engine
            self._owns_engine = False
        else:
            self.engine = AsyncMaxRSEngine(engine)
            self._owns_engine = True
        self.host = host
        self.port = port
        self._line_limit = line_limit
        self._server: Optional[asyncio.AbstractServer] = None
        self._requests: Set[asyncio.Task] = set()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._stopping = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "MaxRSServer":
        """Bind and start accepting connections; returns ``self``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self._line_limit)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled or :meth:`stop` is called.

        The ``CancelledError`` produced by :meth:`stop` closing the listener
        is absorbed (stopping is a normal outcome); a cancellation injected
        from outside (task cancel, timeout scope) propagates as usual.
        """
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            if not self._stopping:
                raise

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight work, close.

        In-flight requests (including ones still waiting on the engine's
        admission queue) run to completion and their responses are written;
        only then are connections torn down.  Requests *arriving* after the
        stop began are not started -- their connection simply closes.  The
        engine front-end is closed when this server created it (a
        caller-supplied :class:`AsyncMaxRSEngine` is left open).
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
        # Re-gather until quiescent: a connection handler that had already
        # read a line when the stop began may legally spawn one more request
        # task between our snapshots.
        while self._requests:
            await asyncio.gather(*list(self._requests),
                                 return_exceptions=True)
        await self.engine.drain()
        if self._owns_engine:
            await self.engine.close()
        # Unblock handlers parked in readline() on idle connections; their
        # pipelines are drained (above), so nothing is cut off mid-write.
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "MaxRSServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        connection_tasks: Set[asyncio.Task] = set()
        self._connections.add(writer)
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # over-long line or peer reset: drop the connection
                if not line or self._stopping:
                    break  # EOF, or a stop began while we were blocked here
                line = line.strip()
                if not line:
                    continue
                try:
                    request = protocol.decode_line(line)
                except SerializationError as exc:
                    await self._write(writer, write_lock,
                                      protocol.error_to_wire(None, exc))
                    continue
                if request.get("op") == "close":
                    # Drain this connection's pipeline first so the close
                    # acknowledgement is the last response on the socket.
                    await self._drain_tasks(connection_tasks)
                    await self._write(writer, write_lock,
                                      {"id": request.get("id"), "ok": True,
                                       "closing": True})
                    break
                # Every other request runs as its own task: the connection
                # keeps reading, so pipelined requests execute concurrently
                # (and identical ones coalesce inside the engine).
                task = asyncio.ensure_future(
                    self._serve_request(request, writer, write_lock))
                connection_tasks.add(task)
                self._requests.add(task)
                task.add_done_callback(connection_tasks.discard)
                task.add_done_callback(self._requests.discard)
        finally:
            self._connections.discard(writer)
            await self._drain_tasks(connection_tasks)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _drain_tasks(tasks: Set[asyncio.Task]) -> None:
        pending = [task for task in tasks if not task.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, write_lock: asyncio.Lock,
                     response: Dict[str, Any]) -> None:
        async with write_lock:
            try:
                writer.write(protocol.encode_line(response))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer went away; nothing left to say

    async def _serve_request(self, request: Dict[str, Any],
                             writer: asyncio.StreamWriter,
                             write_lock: asyncio.Lock) -> None:
        """Dispatch one decoded request and write its response.

        Each request runs under a ``server.request`` span of the engine's
        tracer.  A client-supplied ``trace`` field continues the client's
        trace (same id server-side, fetchable back via the ``trace`` op)
        even when the server's own tracing is disabled; with no field and a
        disabled tracer this is a no-op.
        """
        request_id = request.get("id")
        trace_id = request.get("trace")
        if not isinstance(trace_id, str) or not trace_id:
            trace_id = None  # absent or malformed: start fresh (if enabled)
        tracer = self.engine.engine.tracer
        with tracer.trace("server.request", trace_id=trace_id,
                          op=str(request.get("op"))) as span:
            try:
                response = await self._dispatch(request)
            except ReproError as exc:
                span.set_attribute("error", type(exc).__name__)
                response = protocol.error_to_wire(request_id, exc)
            except Exception as exc:  # pragma: no cover - defensive
                span.set_attribute("error", type(exc).__name__)
                response = {"id": request_id, "ok": False,
                            "error": "InternalError", "message": repr(exc)}
        await self._write(writer, write_lock, response)

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        request_id = request.get("id")
        if op == "ping":
            return {"id": request_id, "ok": True, "pong": True}
        if op == "register":
            points = protocol.points_from_wire(request.get("points", []))
            handle = await self.engine.register_dataset(
                points, name=request.get("name"),
                replace=bool(request.get("replace", False)))
            return {"id": request_id, "ok": True,
                    "dataset": handle.dataset_id,
                    "fingerprint": handle.fingerprint,
                    "count": handle.count}
        if op == "unregister":
            await self.engine.unregister_dataset(
                _required(request, "dataset"),
                keep_snapshot=bool(request.get("keep_snapshot", False)))
            return {"id": request_id, "ok": True}
        if op == "query":
            spec = protocol.spec_from_wire(_required(request, "spec"))
            result = await self.engine.query(_required(request, "dataset"),
                                             spec,
                                             client_id=_client_id(request))
            return {"id": request_id, "ok": True,
                    "result": protocol.result_to_wire(result)}
        if op == "query_batch":
            specs = [protocol.spec_from_wire(wire)
                     for wire in _required(request, "specs")]
            results = await self.engine.query_batch(
                _required(request, "dataset"), specs,
                client_id=_client_id(request))
            return {"id": request_id, "ok": True,
                    "results": [protocol.result_to_wire(r) for r in results]}
        if op == "explain":
            spec = protocol.spec_from_wire(_required(request, "spec"))
            plan = await self.engine.explain(_required(request, "dataset"),
                                             spec)
            return {"id": request_id, "ok": True,
                    "plan": protocol.jsonable(plan)}
        if op == "trace_profile":
            trace_id = request.get("trace_id")
            profile = await self.engine.trace_profile(
                None if trace_id is None else str(trace_id))
            return {"id": request_id, "ok": True,
                    "profile": protocol.jsonable(profile)}
        if op == "stats":
            return {"id": request_id, "ok": True,
                    "stats": protocol.jsonable(self.engine.stats())}
        if op == "trace":
            trace_id = str(_required(request, "trace_id"))
            recorder = self.engine.engine.tracer.recorder
            find = getattr(recorder, "find", None)
            traces = find(trace_id) if find is not None else []
            return {"id": request_id, "ok": True,
                    "traces": [trace.to_dict() for trace in traces]}
        if op == "metrics_text":
            # The engine render (not the bare exporter): it samples the
            # resource gauges first, so every scrape carries current
            # RSS/CPU/queue-depth values.
            return {"id": request_id, "ok": True,
                    "text": self.engine.engine.metrics_text()}
        if op == "healthz":
            return {"id": request_id, "ok": True,
                    "health": self.engine.healthz()}
        if op == "readyz":
            return {"id": request_id, "ok": True,
                    "health": self.engine.readyz()}
        raise SerializationError(
            f"unknown op {op!r}; expected one of {protocol.OPS}")


def _client_id(request: Dict[str, Any]) -> Optional[str]:
    """The request's ``client_id`` field, or ``None``.

    A request-level field like ``trace``: absent or malformed values mean
    "unattributed" rather than an error, so old clients interoperate.
    """
    value = request.get("client_id")
    if isinstance(value, str) and value:
        return value
    return None


def _required(request: Dict[str, Any], field: str) -> Any:
    value = request.get(field)
    if value is None:
        raise SerializationError(
            f"request op {request.get('op')!r} needs a {field!r} field")
    return value


async def serve(engine, *, host: str = "127.0.0.1",
                port: int = 0) -> MaxRSServer:
    """Start a :class:`MaxRSServer` and return it (read ``.port`` for the
    bound address); ``await server.stop()`` drains and shuts it down."""
    return await MaxRSServer(engine, host=host, port=port).start()
