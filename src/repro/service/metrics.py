"""Lightweight per-stage metrics for the resident query engine.

The engine (:mod:`repro.service.engine`) times every pipeline stage --
registration, grid construction, approximate probing, exact refinement -- and
counts queries per kind.  :class:`EngineMetrics` aggregates both under a lock
so the numbers stay consistent when ``query_batch`` fans out over threads.

Serving additionally wants **latency distributions**, not just means: a tail
query stuck behind admission control is invisible in a mean.
:class:`LatencyHistogram` records observations into fixed log-spaced buckets
(bounded memory, no per-sample storage) from which p50/p95/p99 are estimated;
the sync ``query()`` path and the async front-end (:mod:`repro.aio`) both
record per-query-kind latencies through :meth:`EngineMetrics.observe_latency`,
under the same lock as every other accumulator.  Stage timings are the same
histograms, so every stage reports its percentiles too.
:class:`EngineMetrics` also carries last-write-wins **gauges** (sampled
resource readings such as the process RSS or the result-cache size) that
the Prometheus exposition in :func:`repro.obs.metrics_text` emits alongside
the cumulative series.

The implementation deliberately avoids any dependency on a metrics backend:
:meth:`EngineMetrics.snapshot` returns plain dictionaries that callers can
print, assert on, or export however they like.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Hashable, Iterator, List, Optional, Tuple

__all__ = ["EngineMetrics", "LatencyHistogram", "QueryLedger",
           "active_ledger", "ledger_scope"]


def _default_bucket_bounds() -> Tuple[float, ...]:
    """Doubling bucket upper bounds from 1 microsecond to ~134 seconds.

    28 buckets cover the full serving range -- cache hits (microseconds) to
    pathological cold solves (minutes) -- at a constant ~2x relative error,
    which is plenty for p50/p95/p99 on wall-clock latencies.
    """
    return tuple(1e-6 * 2 ** i for i in range(28))


class LatencyHistogram:
    """Fixed log-bucket latency accumulator with percentile estimation.

    Observations land in the first bucket whose upper bound is >= the value
    (one overflow bucket catches the rest), so memory is bounded by the
    bucket count regardless of traffic.  Percentiles interpolate linearly
    *within* the bucket where the cumulative count crosses the quantile
    (assuming observations spread evenly across the bucket), clamped to the
    exact observed ``[min, max]``; the overflow bucket reports the observed
    maximum.  With ~2x-wide log buckets the worst-case estimation error is
    one bucket width, and unlike the upper-bound rule it does not
    systematically overestimate mid-distribution percentiles.

    Not internally locked: :class:`EngineMetrics` mutates and reads its
    histograms under the engine-wide metrics lock, like every other
    accumulator.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Optional[Tuple[float, ...]] = None) -> None:
        self.bounds: Tuple[float, ...] = bounds or _default_bucket_bounds()
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation (negative values clamp to 0)."""
        seconds = max(0.0, float(seconds))
        self.counts[bisect.bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def percentile(self, quantile: float) -> float:
        """Estimate the ``quantile`` (in [0, 1]) latency; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = quantile * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            before = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if index >= len(self.bounds):  # overflow bucket
                    return self.max
                lower = self.bounds[index - 1] if index else 0.0
                upper = self.bounds[index]
                fraction = (rank - before) / bucket_count
                fraction = min(max(fraction, 0.0), 1.0)
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.min), self.max)
        return self.max

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (with identical bounds) into this one.

        Merging is exact -- bucket counts add, extremes combine -- which is
        what lets per-engine and per-connection histograms aggregate into a
        combined view without re-observing samples.  Mismatched bucket bounds
        would silently misattribute counts, so they are rejected.
        """
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{len(self.bounds)} vs {len(other.bounds)} buckets")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def summary(self) -> Dict[str, float]:
        """Count, mean and the serving percentiles as a plain dictionary."""
        return {
            "count": self.count,
            "mean_seconds": self.total / self.count if self.count else 0.0,
            "min_seconds": self.min if self.count else 0.0,
            "max_seconds": self.max,
            "p50_seconds": self.percentile(0.50),
            "p95_seconds": self.percentile(0.95),
            "p99_seconds": self.percentile(0.99),
        }


def _clone_histogram(histogram: LatencyHistogram) -> LatencyHistogram:
    """A private deep copy of one histogram (via the exact merge)."""
    clone = LatencyHistogram(histogram.bounds)
    clone.merge(histogram)
    return clone


class EngineMetrics:
    """Thread-safe counters, timing histograms and sampled gauges.

    Every mutator (:meth:`increment`, :meth:`observe_seconds`,
    :meth:`observe_latency`) takes the instance lock: ``query_batch`` and
    the async front-end mutate from pool threads.  Stage and latency timings
    are both :class:`LatencyHistogram` tables fed through one
    :meth:`_observe`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        #: Per-stage timing histograms (``"refine"``, ``"register"``...).
        self._stages: Dict[str, LatencyHistogram] = {}
        #: Per-name latency histograms, e.g. query kind ("maxrs") on the sync
        #: path and "aio_<kind>" end-to-end latencies on the async front-end.
        self._latency: Dict[str, LatencyHistogram] = {}
        #: Last-write-wins sampled gauges: ``name -> {label items -> value}``.
        self._gauges: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def increment(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to a named counter (creating it at zero)."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + amount

    def _observe(self, table: Dict[Hashable, LatencyHistogram],
                 key: Hashable, seconds: float) -> None:
        """Record one timing observation into ``table[key]``."""
        with self._lock:
            histogram = table.get(key)
            if histogram is None:
                histogram = table[key] = LatencyHistogram()
            histogram.observe(seconds)

    def observe_seconds(self, stage: str, seconds: float) -> None:
        """Record one observation of ``stage`` taking ``seconds``."""
        self._observe(self._stages, stage, seconds)

    def observe_latency(self, name: str, seconds: float) -> None:
        """Record one end-to-end latency observation under ``name``.

        The sync engine records per-query-kind serving latencies (cache hits
        included -- this is what a caller experienced, not what a stage
        cost); the async front-end records admission wait + execution under
        ``aio_<kind>``.  ``snapshot()["latency"]`` reports p50/p95/p99 per
        name.
        """
        self._observe(self._latency, name, seconds)

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a sampled gauge series (last write wins).

        Unlike the cumulative accumulators, gauges are point-in-time
        readings -- the :class:`repro.obs.health.ResourceSampler` overwrites
        them on every poll.  ``labels`` distinguish series of the same name,
        e.g. ``set_gauge("admission_queue_depth", depth, server="a")``.
        """
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            self._gauges.setdefault(name, {})[key] = float(value)

    @contextmanager
    def time_stage(self, stage: str) -> Iterator[None]:
        """Context manager timing a block as one observation of ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe_seconds(stage, time.perf_counter() - start)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> int:
        """Current value of a counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def gauge(self, name: str, **labels: str) -> Optional[float]:
        """One gauge series' last sampled value (None when never set)."""
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            return self._gauges.get(name, {}).get(key)

    def gauges(self) -> Dict[str, List[Dict[str, object]]]:
        """Every gauge series: ``name -> [{"labels": {...}, "value": v}]``.

        Series are sorted by label items so snapshots and the Prometheus
        exposition are deterministic.
        """
        with self._lock:
            out: Dict[str, List[Dict[str, object]]] = {}
            for name, series in self._gauges.items():
                out[name] = [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ]
            return out

    def latency(self, name: str) -> Dict[str, float]:
        """One latency histogram's summary (zeros when never observed)."""
        with self._lock:
            histogram = self._latency.get(name)
            return histogram.summary() if histogram is not None \
                else LatencyHistogram().summary()

    def histograms(self) -> Dict[str, LatencyHistogram]:
        """Deep copies of the per-name latency histograms.

        Unlike :meth:`snapshot`, this preserves the raw bucket counts that
        percentile summaries throw away -- the Prometheus exposition in
        :func:`repro.obs.metrics_text` needs them to emit cumulative
        ``le`` bucket series, and callers may :meth:`~LatencyHistogram.merge`
        them across engines.  The copies are private to the caller.
        """
        with self._lock:
            return {name: _clone_histogram(histogram)
                    for name, histogram in self._latency.items()}

    def snapshot(self) -> Dict[str, object]:
        """Return all counters, stage timings, latencies and gauges.

        ``"stages"`` maps each stage to its histogram summary plus
        ``total_seconds``, e.g. ``snapshot()["stages"]["refine"]
        ["p99_seconds"]``; ``"latency"`` maps each observed name to its
        histogram summary, e.g.
        ``snapshot()["latency"]["maxrs"]["p95_seconds"]``.
        """
        with self._lock:
            result: Dict[str, object] = {
                "counters": dict(self._counters),
                "stages": {stage: {"total_seconds": histogram.total,
                                   **histogram.summary()}
                           for stage, histogram in self._stages.items()},
                "latency": {name: histogram.summary()
                            for name, histogram in self._latency.items()},
            }
        result["gauges"] = self.gauges()
        return result

    def reset(self) -> None:
        """Clear every accumulator and gauge."""
        with self._lock:
            for table in (self._counters, self._stages, self._latency,
                          self._gauges):
                table.clear()


# ---------------------------------------------------------------------- #
# Per-query cost attribution
# ---------------------------------------------------------------------- #
class QueryLedger:
    """Cost accumulator for exactly one query's computation.

    The global :class:`EngineMetrics` counters answer "how much work has this
    engine done"; a ledger answers "how much of it was *this* query".  The
    engine opens one per cache miss (:func:`ledger_scope`) and the compute
    path double-books its counter increments into it through
    :func:`active_ledger`.  By construction the per-query counters sum
    exactly to the global counter deltas, which the reconciliation test
    asserts.

    Locked, so the ledger stays exact whichever thread a piece of the
    computation runs on.
    """

    __slots__ = ("_lock", "counters", "fields")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Summable work counters (``swept_points``, ``sweeps``...).
        self.counters: Dict[str, float] = {}
        #: Last-write-wins facts (``probe_points``, ``descent_gap``...).
        self.fields: Dict[str, object] = {}

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to one of the ledger's summable counters."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def note(self, **facts: object) -> None:
        """Record point-in-time facts about the query (last write wins)."""
        with self._lock:
            self.fields.update(facts)


#: The query ledger of the computation currently running on this context
#: (``None`` outside a metered query).  A ``ContextVar`` rather than a
#: thread-local so the asyncio front-end's wrapped calls and work submitted
#: to the engine's pool under ``copy_context`` see their query's ledger.
_ACTIVE_LEDGER: ContextVar[Optional[QueryLedger]] = ContextVar(
    "repro_query_ledger", default=None)


def active_ledger() -> Optional[QueryLedger]:
    """The ledger of the query being computed on this context, if any."""
    return _ACTIVE_LEDGER.get()


@contextmanager
def ledger_scope(ledger: QueryLedger) -> Iterator[QueryLedger]:
    """Install ``ledger`` as the ambient query ledger for a ``with`` block."""
    token = _ACTIVE_LEDGER.set(ledger)
    try:
        yield ledger
    finally:
        _ACTIVE_LEDGER.reset(token)
