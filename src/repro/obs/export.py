"""Telemetry export: Prometheus-style text exposition of engine metrics.

:func:`metrics_text` turns an :class:`~repro.service.metrics.EngineMetrics`
into the Prometheus text exposition format (version 0.0.4): counters become
``<ns>_counter_total{name=...}``, stage and per-shard timings become
``_seconds_total``/``_count_total`` pairs, and every
:class:`~repro.service.metrics.LatencyHistogram` becomes a real Prometheus
histogram — **cumulative** ``_bucket{le=...}`` series ending in ``+Inf``,
plus ``_sum`` and ``_count``.  Sampled resource gauges (RSS, CPU, cache
occupancy, admission queue depth) are emitted as ``gauge`` families.  The
function only duck-types its argument (``snapshot()`` + ``histograms()``),
keeping :mod:`repro.obs` free of runtime imports from the service layer.

The server exposes this as the ``metrics_text`` op so one TCP round-trip
yields a scrape-ready payload; there is deliberately no HTTP listener here
(no new dependency, and the serving protocol already has framing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # type hints only; no runtime dependency on the service layer
    from repro.service.metrics import EngineMetrics

__all__ = ["metrics_text"]

#: HELP text for the gauge families the resource sampler emits; anything
#: not listed falls back to a generic description.
_GAUGE_HELP = {
    "process_cpu_seconds": "Cumulative CPU seconds (user+system) of the "
                           "serving process.",
    "process_rss_bytes": "Resident set size in bytes of the serving process.",
    "admission_inflight": "Queries currently holding an admission slot.",
    "admission_queue_depth": "Queries waiting for an admission slot.",
    "cache_entries": "Entries resident in the engine result cache.",
    "cache_capacity": "Configured result cache capacity.",
    "cache_bytes": "Approximate bytes held by the engine result cache.",
}


def _label(value: object) -> str:
    """Escape one label value per the exposition format."""
    text = str(value)
    text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _num(value: float) -> str:
    """Format a sample value; integral floats print without the trailing .0."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def metrics_text(metrics: "EngineMetrics", *, namespace: str = "repro",
                 clients: Optional[Dict[str, Dict[str, float]]] = None) -> str:
    """Render ``metrics`` as Prometheus text exposition (one big string).

    ``metrics`` is anything with the :class:`EngineMetrics` read interface:
    ``snapshot()`` for counters/stages/shards and ``histograms()`` for the
    raw latency bucket counts (summaries alone cannot rebuild the
    cumulative ``le`` series).

    ``clients`` is an optional per-client accounting mapping
    (``client id -> {field -> cumulative value}``, the engine's
    ``client_ledgers()``); each field becomes a ``client=``-labelled
    counter series.  Label cardinality is bounded at the source: the engine
    tracks at most ``max_tracked_clients`` ledgers (LRU-evicted), so the
    scrape payload cannot grow without bound.
    """
    snapshot = metrics.snapshot()
    lines: List[str] = []

    counters: Dict[str, int] = snapshot.get("counters", {})
    lines.append(f"# HELP {namespace}_counter_total Engine event counters.")
    lines.append(f"# TYPE {namespace}_counter_total counter")
    for name in sorted(counters):
        lines.append(f"{namespace}_counter_total{{name={_label(name)}}} "
                     f"{counters[name]}")

    stages = snapshot.get("stages", {})
    lines.append(f"# HELP {namespace}_stage_seconds_total Cumulative "
                 f"wall-clock seconds per pipeline stage.")
    lines.append(f"# TYPE {namespace}_stage_seconds_total counter")
    for stage in sorted(stages):
        lines.append(f"{namespace}_stage_seconds_total{{stage={_label(stage)}}} "
                     f"{_num(stages[stage]['total_seconds'])}")
    lines.append(f"# HELP {namespace}_stage_count_total Observations "
                 f"per pipeline stage.")
    lines.append(f"# TYPE {namespace}_stage_count_total counter")
    for stage in sorted(stages):
        lines.append(f"{namespace}_stage_count_total{{stage={_label(stage)}}} "
                     f"{stages[stage]['count']}")

    shards = snapshot.get("shards", {})
    if shards:
        lines.append(f"# HELP {namespace}_shard_seconds_total Cumulative "
                     f"wall-clock seconds per shard stage and shard id.")
        lines.append(f"# TYPE {namespace}_shard_seconds_total counter")
        for stage in sorted(shards):
            for shard_id in sorted(shards[stage]):
                entry = shards[stage][shard_id]
                lines.append(
                    f"{namespace}_shard_seconds_total{{stage={_label(stage)},"
                    f"shard={_label(shard_id)}}} "
                    f"{_num(entry['total_seconds'])}")

    # Per-client accounting: one series per (client, ledger field).  The
    # source mapping is LRU-bounded, so cardinality is too.
    if clients:
        lines.append(f"# HELP {namespace}_client_total Per-client "
                     f"cumulative query accounting.")
        lines.append(f"# TYPE {namespace}_client_total counter")
        for client in sorted(clients):
            ledger = clients[client]
            for field in sorted(ledger):
                lines.append(
                    f"{namespace}_client_total{{client={_label(client)},"
                    f"name={_label(field)}}} {_num(float(ledger[field]))}")

    # Sampled gauges (resource sampler output): one family per gauge name,
    # series distinguished by labels.
    gauges = snapshot.get("gauges", {})
    for name in sorted(gauges):
        help_text = _GAUGE_HELP.get(name, "Sampled gauge.")
        lines.append(f"# HELP {namespace}_{name} {help_text}")
        lines.append(f"# TYPE {namespace}_{name} gauge")
        for series in gauges[name]:
            labels = series.get("labels", {})
            if labels:
                rendered = ",".join(
                    f"{key}={_label(labels[key])}" for key in sorted(labels))
                lines.append(f"{namespace}_{name}{{{rendered}}} "
                             f"{_num(series['value'])}")
            else:
                lines.append(f"{namespace}_{name} {_num(series['value'])}")

    histograms = metrics.histograms()
    if histograms:
        lines.append(f"# HELP {namespace}_latency_seconds End-to-end "
                     f"serving latency per query kind.")
        lines.append(f"# TYPE {namespace}_latency_seconds histogram")
        for name in sorted(histograms):
            histogram = histograms[name]
            cumulative = 0
            for bound, bucket_count in zip(histogram.bounds, histogram.counts):
                cumulative += bucket_count
                lines.append(
                    f"{namespace}_latency_seconds_bucket{{kind={_label(name)},"
                    f"le={_label(format(bound, '.6g'))}}} {cumulative}")
            lines.append(
                f"{namespace}_latency_seconds_bucket{{kind={_label(name)},"
                f'le="+Inf"}} {histogram.count}')
            lines.append(f"{namespace}_latency_seconds_sum"
                         f"{{kind={_label(name)}}} {_num(histogram.total)}")
            lines.append(f"{namespace}_latency_seconds_count"
                         f"{{kind={_label(name)}}} {histogram.count}")

    return "\n".join(lines) + "\n"
