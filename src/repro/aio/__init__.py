"""repro.aio -- asyncio-native serving front-end for the resident engine.

The resident :class:`~repro.service.engine.MaxRSEngine` is fast and
durable, but blocking: one caller at a time drives it through a
synchronous Python API.  This package is the serving tier that lets **one
resident process hold heavy concurrent traffic**:

* :mod:`repro.aio.engine` -- :class:`~repro.aio.engine.AsyncMaxRSEngine`, an
  asyncio wrapper that serves cache hits on the loop and solves on one
  thread it owns, **coalesces** identical in-flight queries onto one shared
  future (the async analogue of ``query_batch`` dedup, across independent
  callers), and applies **bounded admission with backpressure**
  (``max_inflight`` / ``max_queue``; overflow raises a typed
  :class:`~repro.errors.ServiceOverloadError` or waits, per policy).
  Ingestion is serialized against queries by a writer-preferring gate
  without ever blocking the event loop;
* :mod:`repro.aio.protocol` -- a JSON-lines wire format (register / query /
  query_batch / stats / ping / close) whose float round-trip keeps decoded
  answers bit-identical to in-process ones;
* :mod:`repro.aio.server` -- :class:`~repro.aio.server.MaxRSServer`, an
  asyncio TCP server with per-connection request pipelining and graceful
  drain on shutdown;
* :mod:`repro.aio.client` -- :class:`~repro.aio.client.AsyncQueryClient`, a
  pipelined client that re-raises remote failures as their local
  :mod:`repro.errors` types.

Every layer participates in :mod:`repro.obs` tracing: the client stamps its
trace id onto each request's ``trace`` field, the server continues it in a
``server.request`` span, and the async engine's executor hand-off carries
the span context onto the solver thread -- one distributed trace covers
admission, coalescing, cache, grid, sweep and blob I/O.  The ``trace`` and
``metrics_text`` protocol ops fetch server-retained traces and a
Prometheus-style metrics snapshot over the same connection.

Answers served through any of these layers are **bit-identical** to the sync
engine's: the front-end schedules, coalesces and sheds -- it never computes.
Serving behaviour is observable via ``AsyncMaxRSEngine.stats()["aio"]``
(queue depth, coalesce hits, loop hits, admitted/rejected counts,
p50/p95/p99 latency per query kind).

See ``examples/async_service.py`` for a complete server + concurrent-clients
walk-through.
"""

from repro.aio.engine import AsyncMaxRSEngine

__all__ = [
    "AsyncMaxRSEngine",
    "AsyncQueryClient",
    "MaxRSServer",
    "serve",
]

#: Lazily exported symbols and their defining submodules (the server and
#: client pull in the streams machinery; the engine alone stays light).
_LAZY_EXPORTS = {
    "AsyncQueryClient": "repro.aio.client",
    "MaxRSServer": "repro.aio.server",
    "serve": "repro.aio.server",
}


def __getattr__(name: str):
    """Lazily expose the network server and client."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.aio' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
