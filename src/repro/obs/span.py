"""Spans, traces, and the :class:`Tracer` — the core of :mod:`repro.obs`.

A **span** is one timed stage of one query: it has a name from the span
taxonomy (``engine.query``, ``cache.lookup``, ``backend.sweep``, ...), a
wall-clock start, a duration, free-form attributes, and children.  Spans of
one request form a tree; the tree plus its identity is a **trace**.

The design constraint that shapes everything here is the serving engine's
execution model: a query enters on an asyncio task and, on a cache miss,
hops onto the front-end's solver thread via ``run_in_executor``; callers may
also query from threads of their own.  The *current span* therefore lives in a
:class:`contextvars.ContextVar` — the only ambient-state mechanism in the
stdlib that is simultaneously task-local under asyncio and copyable across
thread hand-offs.  The hand-off itself does **not** copy context
automatically (``run_in_executor`` is a plain ``executor.submit`` under the
hood), so :mod:`repro.aio.engine` wraps submitted work in
``contextvars.copy_context().run`` explicitly, as a caller submitting engine
calls to its own threads must.

The second constraint is overhead: every hot path in the engine calls
:func:`span`, so the *disabled* path must be near-free.  ``span()`` is a
single ``ContextVar.get`` plus a ``None`` check; when no trace is active it
returns one shared no-op singleton and allocates nothing.  Real spans only
materialise inside an active trace, and traces only start when a
:class:`Tracer` is enabled (a non-null recorder or a slow-query threshold)
or when a remote caller supplied a ``trace_id`` to continue.

Thread-safety: a span's *children* list may be appended to from several
threads at once; ``list.append`` is atomic under the GIL, and
each child's own fields are written only by the thread that runs it.  The
span that *owns* a subtree is always finished after its children, so the
recorded tree is consistent by construction.
"""

from __future__ import annotations

import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.recorder import NullRecorder, TraceRecorder

__all__ = ["Span", "Trace", "Tracer", "current_span", "current_trace_id",
           "new_trace_id", "span"]

#: The ambient current span.  ``None`` means "no active trace": the hot-path
#: sentinel that keeps disabled tracing near-free.
_CURRENT: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span",
                                                    default=None)


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id (the identity shared by every span)."""
    return os.urandom(8).hex()


def _new_span_id() -> str:
    return os.urandom(4).hex()


class Span:
    """One timed, attributed stage of a trace.

    Spans are created by :func:`span` (child of the ambient span) or by
    :meth:`Tracer.trace` (root), used as context managers, and read back
    through :class:`Trace`.  ``duration_s`` is ``None`` while the span is
    still open.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attributes",
                 "children", "status", "error", "start_unix", "duration_s",
                 "_start_perf")

    def __init__(self, name: str, trace_id: str, *,
                 parent_id: Optional[str] = None,
                 attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.children: List[Span] = []
        self.status = "ok"
        self.error: Optional[str] = None
        self.start_unix = time.time()
        self.duration_s: Optional[float] = None
        self._start_perf = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one attribute (JSON-representable values only, please)."""
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def finish(self, *, error: Optional[BaseException] = None) -> None:
        """Close the span (idempotent); records duration and error status."""
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self._start_perf
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"

    # -- traversal ---------------------------------------------------------

    def iter_spans(self) -> Iterator["Span"]:
        """Pre-order walk over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready nested dict (the wire/export representation)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output (ids preserved)."""
        span_ = Span(payload["name"], payload["trace_id"],
                     parent_id=payload.get("parent_id"),
                     attributes=payload.get("attributes"))
        span_.span_id = payload.get("span_id", span_.span_id)
        span_.start_unix = payload.get("start_unix", span_.start_unix)
        span_.duration_s = payload.get("duration_s")
        span_.status = payload.get("status", "ok")
        span_.error = payload.get("error")
        span_.children = [Span.from_dict(child)
                          for child in payload.get("children", ())]
        return span_

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, trace_id={self.trace_id!r}, "
                f"duration_s={self.duration_s!r})")


class Trace:
    """A finished span tree plus convenience accessors used by tests/tools."""

    __slots__ = ("root",)

    def __init__(self, root: Span) -> None:
        self.root = root

    @property
    def trace_id(self) -> str:
        return self.root.trace_id

    @property
    def name(self) -> str:
        return self.root.name

    @property
    def duration_s(self) -> float:
        return self.root.duration_s or 0.0

    def spans(self) -> List[Span]:
        """Every span of the trace in pre-order."""
        return list(self.root.iter_spans())

    def find(self, name: str) -> Optional[Span]:
        """The first span with ``name`` (pre-order), or ``None``."""
        for span_ in self.root.iter_spans():
            if span_.name == name:
                return span_
        return None

    def find_all(self, name_prefix: str) -> List[Span]:
        """Every span whose name starts with ``name_prefix``, in pre-order."""
        return [span_ for span_ in self.root.iter_spans()
                if span_.name.startswith(name_prefix)]

    def summary(self) -> Dict[str, Any]:
        """The compact per-trace record surfaced by ``stats()["traces"]``."""
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "start_unix": self.root.start_unix,
            "duration_s": self.duration_s,
            "spans": sum(1 for _ in self.root.iter_spans()),
            "status": self.root.status,
        }

    def to_dict(self) -> Dict[str, Any]:
        return self.root.to_dict()

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Trace":
        return Trace(Span.from_dict(payload))

    def render(self) -> str:
        """A human-readable tree, one line per span (see the example)."""
        lines: List[str] = []
        _render_span(self.root, "", "", lines)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, trace_id={self.trace_id!r})"


def _format_attributes(attributes: Dict[str, Any]) -> str:
    if not attributes:
        return ""
    parts = []
    for key, value in attributes.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return "  " + " ".join(parts)


def _render_span(span_: Span, prefix: str, child_prefix: str,
                 lines: List[str]) -> None:
    if span_.duration_s is None:
        timing = "   (open)"
    else:
        timing = f"{span_.duration_s * 1e3:9.3f} ms"
    flag = "" if span_.status == "ok" else f"  !{span_.error}"
    lines.append(f"{prefix}{span_.name:<{max(1, 44 - len(prefix))}}{timing}"
                 f"{_format_attributes(span_.attributes)}{flag}")
    for index, child in enumerate(span_.children):
        last = index == len(span_.children) - 1
        connector = "`- " if last else "|- "
        extension = "   " if last else "|  "
        _render_span(child, child_prefix + connector,
                     child_prefix + extension, lines)


#: Shared do-nothing span returned on every disabled-path ``span()`` call.
class _NoopSpan:
    """Absorbs the span API at near-zero cost when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def set_attributes(self, **attributes: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager that installs a span as the ambient current span."""

    __slots__ = ("span", "_tracer", "_token")

    def __init__(self, span_: Span, tracer: Optional["Tracer"] = None) -> None:
        self.span = span_
        self._tracer = tracer
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self.span)
        return self.span

    def __exit__(self, exc_type: Any, exc: Any, traceback: Any) -> None:
        _CURRENT.reset(self._token)
        self.span.finish(error=exc if isinstance(exc, BaseException) else None)
        if self._tracer is not None:
            self._tracer._finalize(self.span)
        return None


def current_span() -> Optional[Span]:
    """The ambient span of this task/thread context (``None`` outside one)."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    """The ambient trace id, or ``None`` when no trace is active."""
    span_ = _CURRENT.get()
    return None if span_ is None else span_.trace_id


def span(name: str, **attributes: Any):
    """Open a child span of the ambient span (no-op outside a trace).

    This is the one instrumentation call sprinkled through the engine::

        with obs.span("backend.sweep", backend=backend.name) as sp:
            ...
            sp.set_attribute("events", count)

    Outside an active trace it returns a shared no-op singleton: one
    ``ContextVar.get`` and a ``None`` check, no allocation — the property
    the ``NullRecorder`` overhead guard in ``benchmarks/`` enforces.
    """
    parent = _CURRENT.get()
    if parent is None:
        return NOOP_SPAN
    child = Span(name, parent.trace_id, parent_id=parent.span_id,
                 attributes=attributes)
    # Visible in the tree immediately; list.append is atomic under the GIL,
    # so concurrent threads can attach children to one parent safely.
    parent.children.append(child)
    return _ActiveSpan(child)


class Tracer:
    """Starts traces, hands finished ones to a recorder, flags slow queries.

    Parameters
    ----------
    recorder:
        Where finished traces go.  Defaults to :class:`NullRecorder`, which
        also *disables* trace creation entirely (the near-zero-overhead
        production default).  Pass a
        :class:`~repro.obs.recorder.RingRecorder` for tests and
        ``stats()["traces"]``, or a
        :class:`~repro.obs.recorder.JsonLinesRecorder` to export.
    slow_query_threshold_s:
        When set, slow spans are rendered and written to
        ``slow_query_sink`` even if the recorder is null — the
        ``slow_query_log`` facility.  Within each finished trace the
        *outermost* spans named in ``slow_query_span_names`` are checked
        individually (a server-side batch holding several ``aio.query``
        children logs each slow query where it ran); a trace containing
        none of those names falls back to the root-span check.
    slow_query_sink:
        Callable receiving the rendered slow-trace text; defaults to
        printing to stderr.
    slow_query_span_names:
        Span names treated as "a query" by the slow-query log.  Defaults
        to ``("engine.query", "aio.query")`` — the sync engine root and
        the async per-query span.
    """

    def __init__(self, recorder: Optional[TraceRecorder] = None, *,
                 slow_query_threshold_s: Optional[float] = None,
                 slow_query_sink: Optional[Callable[[str], None]] = None,
                 slow_query_span_names: tuple = ("engine.query",
                                                 "aio.query")) -> None:
        self.recorder: TraceRecorder = (recorder if recorder is not None
                                        else NullRecorder())
        self.slow_query_threshold_s = slow_query_threshold_s
        self.slow_query_span_names = tuple(slow_query_span_names)
        self._slow_sink = slow_query_sink
        self._lock = threading.Lock()
        self.slow_queries = 0

    # -- configuration -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this tracer starts traces of its own accord."""
        return (self.slow_query_threshold_s is not None
                or not isinstance(self.recorder, NullRecorder))

    def slow_query_log(self, threshold_s: Optional[float], *,
                       sink: Optional[Callable[[str], None]] = None) -> None:
        """(Re)configure the slow-query log; ``None`` switches it off."""
        if threshold_s is not None and threshold_s < 0:
            raise ValueError(
                f"slow-query threshold must be >= 0, got {threshold_s}")
        self.slow_query_threshold_s = threshold_s
        if sink is not None:
            self._slow_sink = sink

    # -- trace lifecycle ---------------------------------------------------

    def trace(self, name: str, *, trace_id: Optional[str] = None,
              **attributes: Any):
        """Open a span: child of the ambient span if one is active, else a
        new root trace.

        ``trace_id`` continues a caller-supplied trace (the wire-propagation
        path); it is honoured even when the tracer is otherwise disabled,
        so a traced client can see server-side spans without the server
        opting in.  With no ambient span, no ``trace_id``, and a disabled
        tracer this is a no-op.
        """
        parent = _CURRENT.get()
        if parent is not None:
            child = Span(name, parent.trace_id, parent_id=parent.span_id,
                         attributes=attributes)
            parent.children.append(child)
            return _ActiveSpan(child)
        if not self.enabled and trace_id is None:
            return NOOP_SPAN
        root = Span(name, trace_id if trace_id else new_trace_id(),
                    attributes=attributes)
        return _ActiveSpan(root, tracer=self)

    def _finalize(self, root: Span) -> None:
        """Record a finished root span; fire the slow-query log if due."""
        trace = Trace(root)
        self.recorder.record(trace)
        threshold = self.slow_query_threshold_s
        if threshold is None:
            return
        # Check the outermost query spans individually: a server-side trace
        # roots at "server.request" and may hold several "aio.query"
        # children, and each slow one deserves its own log entry where it
        # ran.  Descent stops at the first match per branch so a nested
        # "engine.query" under its "aio.query" never double-fires.
        query_spans: List[Span] = []
        _collect_outermost(root, self.slow_query_span_names, query_spans)
        fired = False
        for span_ in query_spans:
            if (span_.duration_s or 0.0) >= threshold:
                fired = True
                self._fire_slow(span_)
        # Traces without query spans (register, batch admin ops) keep the
        # original root-level behaviour.
        if not fired and not query_spans and trace.duration_s >= threshold:
            self._fire_slow(root)

    def _fire_slow(self, span_: Span) -> None:
        """Render ``span_``'s subtree into the slow-query sink."""
        with self._lock:
            self.slow_queries += 1
        sink = self._slow_sink or _default_slow_sink
        subtree = Trace(span_)
        sink(f"SLOW QUERY trace={span_.trace_id} "
             f"{subtree.duration_s * 1e3:.3f} ms\n{subtree.render()}")

    # -- introspection -----------------------------------------------------

    def trace_summaries(self) -> List[Dict[str, Any]]:
        """Summaries of retained traces (empty for non-retaining recorders)."""
        traces = getattr(self.recorder, "traces", None)
        if traces is None:
            return []
        return [trace.summary() for trace in traces()]


def _collect_outermost(span_: Span, names: tuple,
                       out: List[Span]) -> None:
    """Collect the shallowest spans named in ``names`` (one per branch)."""
    if span_.name in names:
        out.append(span_)
        return
    for child in span_.children:
        _collect_outermost(child, names, out)


def _default_slow_sink(text: str) -> None:  # pragma: no cover - io glue
    import sys

    print(text, file=sys.stderr)
