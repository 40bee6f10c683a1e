"""Pluggable trace recorders: where finished traces go.

Four implementations cover the deployment spectrum:

* :class:`NullRecorder` — the production default.  Besides discarding
  traces it *signals* "tracing off" to the :class:`~repro.obs.span.Tracer`,
  which then never materialises spans at all (the overhead guard in
  ``benchmarks/test_obs_overhead.py`` pins this path at <= 3% on the 50k
  refined query).
* :class:`RingRecorder` — a bounded in-memory ring buffer.  Powers tests,
  ``stats()["traces"]``, and the TCP ``trace`` op that lets a remote client
  fetch the server-side half of its own trace.
* :class:`TailSamplingRecorder` — tail-based sampling for production
  introspection: sees every finished trace but retains only the
  *interesting* ones (errors, degraded serves, slow queries, the top
  duration fraction of recent traffic) in a bounded buffer, so the memory
  cost stays fixed while the traces you actually want to look at survive.
* :class:`JsonLinesRecorder` — appends one JSON document per trace to a
  file, matching the JSON-lines framing of the wire protocol so the same
  tooling can chew on both.

All recorders are thread-safe: the engine finishes traces from asyncio
tasks and pool threads alike.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, TextIO, Union

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.obs.span
    from repro.obs.span import Trace

__all__ = ["JsonLinesRecorder", "NullRecorder", "RingRecorder",
           "TailSamplingRecorder", "TraceRecorder", "resolve_recorder"]


class TraceRecorder:
    """Recorder interface: one :meth:`record` call per finished trace."""

    def record(self, trace: "Trace") -> None:
        raise NotImplementedError


class NullRecorder(TraceRecorder):
    """Discard everything; its presence disables trace creation."""

    def record(self, trace: "Trace") -> None:
        return None


class RingRecorder(TraceRecorder):
    """Keep the most recent ``capacity`` traces in memory."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: Deque["Trace"] = deque(maxlen=capacity)

    def record(self, trace: "Trace") -> None:
        with self._lock:
            self._traces.append(trace)

    def traces(self) -> List["Trace"]:
        """A snapshot of retained traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def find(self, trace_id: str) -> List["Trace"]:
        """Every retained trace with ``trace_id`` (a request that fanned out
        produces one per server-side root), oldest first."""
        with self._lock:
            return [trace for trace in self._traces
                    if trace.trace_id == trace_id]

    def last(self) -> Optional["Trace"]:
        """The most recently recorded trace (``None`` when empty)."""
        with self._lock:
            return self._traces[-1] if self._traces else None

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class TailSamplingRecorder(TraceRecorder):
    """Buffer completed traces, keep only the tail worth looking at.

    Head-based sampling (keep 1-in-N) throws away exactly the traces an
    operator needs: the slow ones and the failures.  This recorder decides
    *after* a trace completes — the tail-based strategy — keeping a trace
    when it is any of:

    * an **error**: any span in the tree finished with a non-``ok`` status;
    * **degraded**: the tree contains a span named ``degraded_span``
      (default ``"aio.degraded"``, the async engine's stale-serve marker);
    * **slow**: root duration >= ``slow_threshold_s`` (when configured);
    * **tail**: root duration in the top ``top_fraction`` of the last
      ``window`` trace durations.  The quantile is estimated from a sliding
      window, so it adapts to the workload; it is coarse until the window
      warms up (the first trace after a :meth:`clear` always qualifies).

    Everything else is dropped on arrival.  Kept traces live in a bounded
    deque of ``capacity`` entries — the memory cap: steady-state cost is
    ``capacity`` trace trees plus ``window`` floats, independent of traffic.
    :meth:`stats` reports seen/kept totals and per-reason counts, and the
    read API (:meth:`traces` / :meth:`find` / :meth:`last`) matches
    :class:`RingRecorder` so ``stats()["traces"]``, the TCP ``trace`` op and
    :mod:`repro.obs.analyze` work unchanged.
    """

    def __init__(self, capacity: int = 256, *,
                 slow_threshold_s: Optional[float] = None,
                 top_fraction: float = 0.05, window: int = 512,
                 degraded_span: str = "aio.degraded") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slow_threshold_s is not None and slow_threshold_s < 0:
            raise ValueError(
                f"slow_threshold_s must be >= 0, got {slow_threshold_s}")
        if not 0.0 <= top_fraction <= 1.0:
            raise ValueError(
                f"top_fraction must be in [0, 1], got {top_fraction}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.capacity = capacity
        self.slow_threshold_s = slow_threshold_s
        self.top_fraction = top_fraction
        self.window = window
        self.degraded_span = degraded_span
        self._lock = threading.Lock()
        self._traces: Deque["Trace"] = deque(maxlen=capacity)
        self._durations: Deque[float] = deque(maxlen=window)
        self.seen = 0
        self.kept = 0
        self._reasons: Dict[str, int] = {"error": 0, "degraded": 0,
                                         "slow": 0, "tail": 0}

    def _keep_reason(self, trace: "Trace") -> Optional[str]:
        """Why ``trace`` should be retained, or ``None`` (lock held)."""
        degraded = False
        for span_ in trace.root.iter_spans():
            if span_.status != "ok":
                return "error"
            if span_.name == self.degraded_span:
                degraded = True
        if degraded:
            return "degraded"
        duration = trace.duration_s
        if (self.slow_threshold_s is not None
                and duration >= self.slow_threshold_s):
            return "slow"
        if self.top_fraction > 0.0:
            if not self._durations:
                return "tail"  # cold window: nothing to compare against yet
            ordered = sorted(self._durations)
            index = max(0, math.ceil(len(ordered)
                                     * (1.0 - self.top_fraction)) - 1)
            if duration >= ordered[index]:
                return "tail"
        return None

    def record(self, trace: "Trace") -> None:
        with self._lock:
            self.seen += 1
            reason = self._keep_reason(trace)
            self._durations.append(trace.duration_s)
            if reason is None:
                return
            self.kept += 1
            self._reasons[reason] += 1
            trace.root.attributes.setdefault("retained", reason)
            self._traces.append(trace)

    # -- read API (matches RingRecorder) ------------------------------------

    def traces(self) -> List["Trace"]:
        """A snapshot of retained traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def find(self, trace_id: str) -> List["Trace"]:
        """Every retained trace with ``trace_id``, oldest first."""
        with self._lock:
            return [trace for trace in self._traces
                    if trace.trace_id == trace_id]

    def last(self) -> Optional["Trace"]:
        """The most recently retained trace (``None`` when empty)."""
        with self._lock:
            return self._traces[-1] if self._traces else None

    def clear(self) -> None:
        """Drop retained traces and reset the duration window and counts."""
        with self._lock:
            self._traces.clear()
            self._durations.clear()
            self.seen = 0
            self.kept = 0
            for reason in self._reasons:
                self._reasons[reason] = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def stats(self) -> Dict[str, object]:
        """Sampling effectiveness: volumes, keep rate, per-reason counts."""
        with self._lock:
            return {
                "seen": self.seen,
                "kept": self.kept,
                "retained": len(self._traces),
                "capacity": self.capacity,
                "window": self.window,
                "keep_rate": (self.kept / self.seen) if self.seen else 0.0,
                "reasons": dict(self._reasons),
            }


class JsonLinesRecorder(TraceRecorder):
    """Append one compact JSON document per trace to a file or stream.

    Accepts a path (opened lazily, append mode) or any writable text
    stream.  Each line is the trace's :meth:`~repro.obs.span.Span.to_dict`
    tree, so ``json.loads`` on one line rebuilds one trace via
    ``Trace.from_dict``.

    Long-running slow-query/trace logs must not fill the disk: pass
    ``max_bytes`` to cap the file size.  When appending a line would push
    the file past the cap, the file rotates -- ``log`` becomes ``log.1``,
    ``log.1`` becomes ``log.2``, ... keeping at most ``backups`` rotated
    files (the oldest is dropped) -- and the line lands in a fresh file.
    One line always fits: a single trace larger than ``max_bytes`` still
    gets written (to an otherwise-empty file) rather than being lost.
    Rotation applies to path targets only; caller-owned streams are the
    caller's to manage.
    """

    def __init__(self, target: Union[str, TextIO], *,
                 max_bytes: Optional[int] = None, backups: int = 3) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self._lock = threading.Lock()
        self._max_bytes = max_bytes
        self._backups = backups
        if isinstance(target, str):
            self._path: Optional[str] = target
            self._stream: Optional[TextIO] = None
        else:
            if max_bytes is not None:
                raise ValueError(
                    "max_bytes rotation requires a path target, not a stream")
            self._path = None
            self._stream = target

    def _rotate(self) -> None:
        """Shift ``path -> path.1 -> ... -> path.N`` (holding the lock)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        oldest = f"{self._path}.{self._backups}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self._backups - 1, 0, -1):
            source = f"{self._path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self._path}.{index + 1}")
        if self._backups > 0 and os.path.exists(self._path):
            os.replace(self._path, f"{self._path}.1")
        elif os.path.exists(self._path):
            os.remove(self._path)

    def record(self, trace: "Trace") -> None:
        line = json.dumps(trace.to_dict(), separators=(",", ":")) + "\n"
        with self._lock:
            if self._path is not None and self._max_bytes is not None:
                if self._stream is not None:
                    size = self._stream.tell()
                else:
                    try:
                        size = os.path.getsize(self._path)
                    except OSError:
                        size = 0
                if size and size + len(line) > self._max_bytes:
                    self._rotate()
            if self._stream is None:
                parent = os.path.dirname(self._path)
                if parent:
                    os.makedirs(parent, exist_ok=True)
                self._stream = open(self._path, "a", encoding="utf-8")
            self._stream.write(line)
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._path is not None and self._stream is not None:
                self._stream.close()
                self._stream = None


def resolve_recorder(spec: Union[None, str, TraceRecorder]) -> TraceRecorder:
    """Resolve an engine-constructor recorder spec.

    ``None`` or ``"null"`` -> :class:`NullRecorder`; ``"ring"`` -> a
    :class:`RingRecorder` with the default capacity; ``"tail"`` -> a
    :class:`TailSamplingRecorder` with the default knobs; any
    :class:`TraceRecorder` instance passes through.
    """
    if spec is None:
        return NullRecorder()
    if isinstance(spec, TraceRecorder):
        return spec
    if isinstance(spec, str):
        if spec == "null":
            return NullRecorder()
        if spec == "ring":
            return RingRecorder()
        if spec == "tail":
            return TailSamplingRecorder()
        raise ValueError(
            f"unknown recorder spec {spec!r}; expected 'null', 'ring' or "
            f"'tail'")
    raise TypeError(
        f"recorder spec must be None, a name, or a TraceRecorder, got "
        f"{type(spec).__name__}")
