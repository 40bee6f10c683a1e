"""Trace analytics: fold recorded span trees into where-did-time-go answers.

A retained trace (see :class:`~repro.obs.recorder.TailSamplingRecorder`)
is a tree of timed spans; what an operator wants from a pile of them is a
flat answer to "which stage is actually costing me".  Two folds provide it:

* :func:`profile` — aggregate per-span-name **self time** (a span's
  duration minus its children's, the time spent *in* that stage rather
  than below it) across any number of traces.  Self time is the right
  attribution: total time double-counts every ancestor of a hot leaf.
* :func:`critical_path` — the chain of largest-duration children from a
  single trace's root: the sequence of spans that bounded the request's
  latency (speeding up anything off this path cannot help).

Both operate on plain :class:`~repro.obs.span.Span` trees, so spans
rebuilt with :meth:`~repro.obs.span.Span.from_dict` (e.g. fetched over the
wire with the ``trace`` op) are analysed exactly like local ones.

The engine exposes :func:`profile` over the wire as the ``trace_profile``
op; :func:`render_profile` is the human-readable table the examples print.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs.span import Span, Trace

__all__ = ["critical_path", "profile", "render_profile", "span_self_seconds"]


def span_self_seconds(span_: Span) -> float:
    """Seconds spent in ``span_`` itself, excluding its children.

    Clamped at zero: children running concurrently (the pool-thread
    queries of a ``query_batch`` issued inside a trace) can sum past their
    parent's wall clock, and that overshoot is parallelism, not negative
    work.
    """
    duration = span_.duration_s or 0.0
    children = sum(child.duration_s or 0.0 for child in span_.children)
    return max(0.0, duration - children)


def profile(traces: Iterable[Trace]) -> Dict[str, Dict[str, float]]:
    """Aggregate per-stage timing over ``traces``, keyed by span name.

    Each entry holds ``count`` (spans seen), ``total_seconds`` (summed
    durations — note ancestors include descendants here), ``self_seconds``
    (summed self time — these *do* add up to total wall clock across names,
    up to parallel overlap), and ``max_seconds`` (worst single span).
    """
    stages: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        for span_ in trace.root.iter_spans():
            entry = stages.get(span_.name)
            if entry is None:
                entry = stages[span_.name] = {
                    "count": 0, "total_seconds": 0.0,
                    "self_seconds": 0.0, "max_seconds": 0.0}
            duration = span_.duration_s or 0.0
            entry["count"] += 1
            entry["total_seconds"] += duration
            entry["self_seconds"] += span_self_seconds(span_)
            entry["max_seconds"] = max(entry["max_seconds"], duration)
    return stages


def critical_path(trace: Trace) -> List[Dict[str, Any]]:
    """The root-to-leaf chain of largest-duration children.

    Returns one record per hop — name, duration, self seconds, and the
    fraction of the root's wall clock the hop covers — ordered root first.
    This is the latency-bounding sequence: only work on this path can have
    delayed the response.
    """
    path: List[Dict[str, Any]] = []
    root_duration = trace.root.duration_s or 0.0
    span_ = trace.root
    while span_ is not None:
        duration = span_.duration_s or 0.0
        path.append({
            "name": span_.name,
            "duration_s": duration,
            "self_seconds": span_self_seconds(span_),
            "fraction_of_root": (duration / root_duration
                                 if root_duration > 0 else 0.0),
        })
        span_ = max(span_.children, default=None,
                    key=lambda child: child.duration_s or 0.0)
    return path


def render_profile(stages: Dict[str, Dict[str, float]]) -> str:
    """A fixed-width table of a :func:`profile` result, hottest self first."""
    header = (f"{'stage':<36} {'count':>6} {'self ms':>10} "
              f"{'total ms':>10} {'max ms':>10}")
    lines = [header, "-" * len(header)]
    ordered = sorted(stages.items(),
                     key=lambda item: item[1]["self_seconds"], reverse=True)
    for name, entry in ordered:
        lines.append(
            f"{name:<36} {int(entry['count']):>6} "
            f"{entry['self_seconds'] * 1e3:>10.3f} "
            f"{entry['total_seconds'] * 1e3:>10.3f} "
            f"{entry['max_seconds'] * 1e3:>10.3f}")
    return "\n".join(lines)
