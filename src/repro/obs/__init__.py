"""Dependency-free tracing and telemetry for the MaxRS serving stack.

One query crosses six layers — asyncio admission, coalescing, the result
cache, the grid index, the sweep backends, and persist/EM block I/O — and
:mod:`repro.obs` is the spine that attributes wall-clock time to each of
them per request.  The pieces:

* :class:`Span` / :class:`Trace` / :class:`Tracer`
  (:mod:`repro.obs.span`) — nested timed spans carried through threads and
  asyncio tasks via ``contextvars``; :func:`span` opens a child of the
  ambient span (a no-op outside a trace).
* recorders (:mod:`repro.obs.recorder`) — :class:`NullRecorder` (default,
  disables tracing at near-zero cost), :class:`RingRecorder` (in-memory,
  feeds ``stats()["traces"]`` and the TCP ``trace`` op),
  :class:`TailSamplingRecorder` (keeps only slow/error/degraded/top-p%
  traces under a memory cap — the production introspection default),
  :class:`JsonLinesRecorder` (file export).
* trace analytics (:mod:`repro.obs.analyze`) — :func:`profile` folds
  retained traces into a per-stage self-time breakdown (the engine's
  ``trace_profile`` op), :func:`critical_path` extracts the
  latency-bounding span chain of one trace.
* :func:`metrics_text` (:mod:`repro.obs.export`) — Prometheus-style text
  exposition of :class:`~repro.service.metrics.EngineMetrics`, including
  cumulative latency-histogram buckets and sampled resource gauges.
* service health (:mod:`repro.obs.health`) — :class:`ResourceSampler` polls
  the serving process's CPU/RSS, queue depths and cache occupancy into
  gauges; :class:`HealthMonitor` aggregates named checks
  into ``healthz``/``readyz`` verdicts; :class:`SLOTracker` watches
  rolling-window latency/error objectives and fires burn-rate alerts into
  pluggable sinks (:func:`log_alert_sink`, :func:`json_lines_alert_sink`).

Wire propagation: :class:`~repro.aio.client.AsyncQueryClient` stamps its
ambient ``trace_id`` into every request; :class:`~repro.aio.server.MaxRSServer`
continues the trace server-side, and the client can fetch the server's half
with the ``trace`` op.  See ``docs/observability.md`` for the span taxonomy
and ``examples/traced_query.py`` for a rendered trace tree.
"""

from repro.obs.analyze import (critical_path, profile, render_profile,
                               span_self_seconds)
from repro.obs.export import metrics_text
from repro.obs.health import (HealthMonitor, ResourceSampler, SLObjective,
                              SLOTracker, json_lines_alert_sink, log_alert_sink,
                              process_gauge_source, read_proc_stats)
from repro.obs.recorder import (JsonLinesRecorder, NullRecorder, RingRecorder,
                                TailSamplingRecorder, TraceRecorder,
                                resolve_recorder)
from repro.obs.span import (NOOP_SPAN, Span, Trace, Tracer, current_span,
                            current_trace_id, new_trace_id, span)

__all__ = [
    "HealthMonitor",
    "JsonLinesRecorder",
    "NOOP_SPAN",
    "NullRecorder",
    "ResourceSampler",
    "RingRecorder",
    "SLOTracker",
    "SLObjective",
    "Span",
    "TailSamplingRecorder",
    "Trace",
    "TraceRecorder",
    "Tracer",
    "critical_path",
    "current_span",
    "current_trace_id",
    "json_lines_alert_sink",
    "log_alert_sink",
    "metrics_text",
    "new_trace_id",
    "process_gauge_source",
    "profile",
    "read_proc_stats",
    "render_profile",
    "span",
    "span_self_seconds",
]
