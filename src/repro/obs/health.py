"""Service health: resource sampling, health/readiness checks, SLO burn rates.

The telemetry that makes the serving engine operable.  Three pieces, all
dependency-free and engine-agnostic (the engine wires them up, but they only
see callables):

* :class:`ResourceSampler` -- polls pluggable *sources* into
  :class:`~repro.service.metrics.EngineMetrics` gauges: the serving
  process's CPU and RSS (``/proc`` with ``os.times()``/``getrusage``
  fallback), cache occupancy, admission queue depth.  Sampling is
  pull-by-default (``sample()`` whenever ``stats()``/``metrics_text`` wants
  fresh gauges) with an optional background thread for push-style
  deployments.
* :class:`HealthMonitor` -- named checks (persist-dir writability, a closed
  engine, SLO burn) aggregated into ``healthz`` (liveness) and ``readyz``
  (readiness) verdicts.  A check reports ``ok`` / ``degraded`` /
  ``failing``; the aggregate is the worst.
* :class:`SLOTracker` -- rolling-window latency/error-rate objectives with
  **burn-rate** alerting: an objective with target 99.9% has an error
  budget of 0.1%, and burn rate is the fraction of bad events divided by
  that budget -- burn rate 1.0 means the budget is being consumed exactly
  as fast as it accrues; sustained >1.0 means the SLO will be missed.
  Alerts fire on state *transitions* (firing/resolved) into pluggable
  sinks: :func:`log_alert_sink`, :func:`json_lines_alert_sink`, or any
  callable -- a machine-readable shed signal for a future gateway tier.

See ``docs/observability.md`` ("Service telemetry & health") for the gauge
catalogue and configuration examples, and ``examples/health_monitor.py``
for a live one-screen status rendering.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Tuple, Union)

if TYPE_CHECKING:  # type hints only; no runtime service-layer import
    from repro.service.metrics import EngineMetrics

__all__ = [
    "HealthMonitor",
    "ResourceSampler",
    "SLOTracker",
    "SLObjective",
    "json_lines_alert_sink",
    "log_alert_sink",
    "process_gauge_source",
    "read_proc_stats",
]

#: Check/aggregate severity ordering: the aggregate is the worst member.
_STATUS_ORDER = {"ok": 0, "degraded": 1, "failing": 2}

#: A check returns ``(status, detail)``, a bare status string, or a dict
#: with those keys; :class:`HealthMonitor` normalises all three.
CheckResult = Union[str, Tuple[str, str], Dict[str, str]]


# --------------------------------------------------------------------------- #
# Resource sampling
# --------------------------------------------------------------------------- #

def read_proc_stats(pid: int) -> Optional[Tuple[float, int]]:
    """``(cpu_seconds, rss_bytes)`` for one pid from ``/proc``, else None.

    CPU is user+system clock ticks from ``/proc/<pid>/stat`` (fields 14/15,
    counted after the parenthesised comm -- which may itself contain spaces
    and parentheses, hence the rpartition); RSS is resident pages from
    ``/proc/<pid>/statm``.  Returns ``None`` off Linux or for a dead pid --
    callers fall back to :func:`os.times` for their own process.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", "replace")
        fields = stat.rpartition(")")[2].split()
        # fields[0] is state (field 3 of the file): utime/stime are file
        # fields 14/15, i.e. indices 11/12 after the comm.
        ticks = float(fields[11]) + float(fields[12])
        hertz = os.sysconf("SC_CLK_TCK")
        with open(f"/proc/{pid}/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return ticks / hertz, pages * os.sysconf("SC_PAGE_SIZE")
    except Exception:
        return None


def _own_process_stats() -> Tuple[float, int]:
    """Portable fallback for the calling process: ``os.times`` CPU plus a
    best-effort peak-RSS from ``getrusage`` (0 when unavailable)."""
    times = os.times()
    cpu = times.user + times.system
    rss = 0
    try:
        import resource

        # ru_maxrss is KiB on Linux, bytes on macOS; Linux is the target.
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platforms without getrusage
        pass
    return cpu, rss


class ResourceSampler:
    """Poll pluggable gauge sources into an :class:`EngineMetrics`.

    A *source* is ``fn(metrics)`` that calls
    :meth:`~repro.service.metrics.EngineMetrics.set_gauge`; sources are
    isolated (one raising never blocks the others) and cheap by contract --
    the engine samples on-demand from ``stats()``/``metrics_text``, so a
    slow source would tax every scrape.  ``interval_s`` additionally runs a
    background daemon thread for deployments that want gauges fresh without
    scraping.
    """

    def __init__(self, metrics: "EngineMetrics", *,
                 interval_s: Optional[float] = None) -> None:
        if interval_s is not None and interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self._metrics = metrics
        self._interval = interval_s
        self._sources: List[Callable[["EngineMetrics"], None]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples = 0

    def add_source(self, source: Callable[["EngineMetrics"], None]) -> None:
        """Register one gauge source (called on every :meth:`sample`)."""
        with self._lock:
            self._sources.append(source)

    def remove_source(self, source: Callable[["EngineMetrics"], None]) -> None:
        """Unregister a source added by :meth:`add_source`."""
        with self._lock:
            self._sources.remove(source)

    def sample(self) -> None:
        """Run every source once, isolating per-source failures."""
        with self._lock:
            sources = list(self._sources)
        for source in sources:
            try:
                source(self._metrics)
            except Exception:  # noqa: BLE001 - a source must not break polls
                pass
        self.samples += 1

    def start(self) -> None:
        """Start the background poll thread (no-op without ``interval_s``)."""
        if self._interval is None or self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-resource-sampler")
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.sample()

    def stop(self) -> None:
        """Stop the background thread (idempotent; safe without one)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)


def process_gauge_source() -> Callable[["EngineMetrics"], None]:
    """A sampler source setting the serving process's CPU/RSS gauges.

    Reads ``/proc`` for the calling process, falling back to
    ``os.times``/``getrusage`` where ``/proc`` is unavailable.
    """
    def source(metrics: "EngineMetrics") -> None:
        cpu, rss = read_proc_stats(os.getpid()) or _own_process_stats()
        metrics.set_gauge("process_cpu_seconds", cpu)
        metrics.set_gauge("process_rss_bytes", rss)
    return source


# --------------------------------------------------------------------------- #
# Health checks
# --------------------------------------------------------------------------- #

def _normalise(result: CheckResult) -> Dict[str, str]:
    if isinstance(result, str):
        status, detail = result, ""
    elif isinstance(result, dict):
        status = result.get("status", "failing")
        detail = str(result.get("detail", ""))
    else:
        status, detail = result
    if status not in _STATUS_ORDER:
        return {"status": "failing",
                "detail": f"check returned unknown status {status!r}"}
    return {"status": status, "detail": str(detail)}


class HealthMonitor:
    """Named health checks aggregated into liveness/readiness verdicts.

    A check is ``fn() -> (status, detail)`` with status ``"ok"`` /
    ``"degraded"`` / ``"failing"``; a raising check reports ``failing``
    with the exception text (monitoring must never take the service down).
    ``liveness`` / ``readiness`` flags scope a check to :meth:`healthz` /
    :meth:`readyz` respectively -- e.g. an unwritable persist dir makes an
    engine *not ready* (snapshots would fail) while the process is still
    perfectly alive.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._checks: List[Tuple[str, Callable[[], CheckResult],
                                 bool, bool]] = []

    def add_check(self, name: str, check: Callable[[], CheckResult], *,
                  liveness: bool = True, readiness: bool = True) -> None:
        """Register one named check (evaluation order = registration order)."""
        with self._lock:
            self._checks.append((name, check, liveness, readiness))

    def _evaluate(self, *, readiness: bool) -> Dict[str, object]:
        with self._lock:
            checks = list(self._checks)
        results: Dict[str, Dict[str, str]] = {}
        worst = "ok"
        for name, check, for_liveness, for_readiness in checks:
            wanted = for_readiness if readiness else for_liveness
            if not wanted:
                continue
            try:
                result = _normalise(check())
            except Exception as exc:  # noqa: BLE001 - checks must not raise
                result = {"status": "failing",
                          "detail": f"{type(exc).__name__}: {exc}"}
            results[name] = result
            if _STATUS_ORDER[result["status"]] > _STATUS_ORDER[worst]:
                worst = result["status"]
        return {"status": worst, "checks": results}

    def healthz(self) -> Dict[str, object]:
        """Liveness: ``{"ok", "status", "checks"}``.

        ``ok`` is False only for ``failing`` -- a *degraded* service (e.g.
        an SLO burn-rate alert firing) keeps serving correct answers, and
        ``status`` carries that distinction for monitors that alert on any
        flip away from ``"ok"``.
        """
        verdict = self._evaluate(readiness=False)
        verdict["ok"] = verdict["status"] != "failing"
        return verdict

    def readyz(self) -> Dict[str, object]:
        """Readiness: ``{"ready", "status", "checks"}`` over readiness
        checks; a load balancer should route traffic only when ``ready``."""
        verdict = self._evaluate(readiness=True)
        verdict["ready"] = verdict["status"] != "failing"
        return verdict


# --------------------------------------------------------------------------- #
# SLO tracking and burn-rate alerts
# --------------------------------------------------------------------------- #

class SLObjective:
    """One rolling-window objective over the query stream.

    Parameters
    ----------
    name:
        Alert/report key, e.g. ``"latency-p-fast"``.
    target:
        Fraction of events that must be *good* (in ``(0, 1)``), e.g.
        ``0.999`` leaves a 0.1% error budget.
    latency_threshold_s:
        An event is bad when its latency exceeds this (``None``: latency
        never disqualifies -- a pure error-rate objective).
    window_s:
        Rolling window the budget is evaluated over.
    burn_rate_alert:
        Fire when the window's burn rate reaches this multiple of budget
        consumption (1.0 = burning exactly the budget).
    kind:
        Restrict the objective to one query kind (``None``: all).
    min_events:
        Do not alert before this many events are in the window (protects
        against a single early failure tripping a 99.9% objective).
    """

    __slots__ = ("name", "target", "latency_threshold_s", "window_s",
                 "burn_rate_alert", "kind", "min_events")

    def __init__(self, name: str, *, target: float = 0.999,
                 latency_threshold_s: Optional[float] = None,
                 window_s: float = 300.0, burn_rate_alert: float = 1.0,
                 kind: Optional[str] = None, min_events: int = 1) -> None:
        if not 0.0 < target < 1.0:
            raise ValueError(f"SLO target must be in (0, 1), got {target}")
        if window_s <= 0:
            raise ValueError(f"SLO window must be positive, got {window_s}")
        if burn_rate_alert <= 0:
            raise ValueError(
                f"burn-rate alert threshold must be positive, "
                f"got {burn_rate_alert}")
        if min_events < 1:
            raise ValueError(f"min_events must be >= 1, got {min_events}")
        self.name = name
        self.target = target
        self.latency_threshold_s = latency_threshold_s
        self.window_s = window_s
        self.burn_rate_alert = burn_rate_alert
        self.kind = kind
        self.min_events = min_events


class SLOTracker:
    """Record per-query outcomes; alert on error-budget burn transitions.

    :meth:`record` is on the query hot path, so the bookkeeping is a small
    per-objective deque of ``(timestamp, total, bad)`` aggregates pruned to
    the window -- no per-event storage.  Alerts fire into every sink on
    the firing/resolved *transition*, not on every bad event, carrying a
    JSON-able payload (objective, burn rate, counts, window).  Sinks must
    not raise; failures are swallowed (shedding signals must never take
    serving down with them).
    """

    def __init__(self, objectives: Sequence[SLObjective], *,
                 sinks: Sequence[Callable[[Dict[str, object]], None]] = (),
                 clock: Callable[[], float] = time.monotonic,
                 bucket_s: float = 1.0) -> None:
        self._objectives = list(objectives)
        self._sinks = list(sinks)
        self._clock = clock
        self._bucket_s = bucket_s
        self._lock = threading.Lock()
        #: Per-objective window: deque of [bucket_time, total, bad].
        self._windows: Dict[str, Deque[List[float]]] = {
            objective.name: deque() for objective in self._objectives}
        self._alerting: Dict[str, bool] = {
            objective.name: False for objective in self._objectives}
        self.alerts_fired = 0

    def add_sink(self, sink: Callable[[Dict[str, object]], None]) -> None:
        with self._lock:
            self._sinks.append(sink)

    def _prune(self, window: Deque[List[float]], objective: SLObjective,
               now: float) -> None:
        horizon = now - objective.window_s
        while window and window[0][0] < horizon:
            window.popleft()

    def record(self, kind: str, seconds: float, *,
               error: bool = False) -> None:
        """Record one served (or failed) query against every objective."""
        now = self._clock()
        alerts: List[Dict[str, object]] = []
        with self._lock:
            for objective in self._objectives:
                if objective.kind is not None and objective.kind != kind:
                    continue
                bad = error or (
                    objective.latency_threshold_s is not None
                    and seconds > objective.latency_threshold_s)
                window = self._windows[objective.name]
                bucket = now - (now % self._bucket_s)
                if window and window[-1][0] == bucket:
                    window[-1][1] += 1
                    window[-1][2] += 1 if bad else 0
                else:
                    window.append([bucket, 1, 1 if bad else 0])
                self._prune(window, objective, now)
                alert = self._evaluate(objective, window)
                if alert is not None:
                    alerts.append(alert)
            sinks = list(self._sinks)
        for alert in alerts:
            for sink in sinks:
                try:
                    sink(alert)
                except Exception:  # noqa: BLE001 - sinks must not raise
                    pass

    def _stats(self, objective: SLObjective,
               window: Deque[List[float]]) -> Tuple[int, int, float]:
        total = sum(int(entry[1]) for entry in window)
        bad = sum(int(entry[2]) for entry in window)
        budget = 1.0 - objective.target
        burn = (bad / total) / budget if total else 0.0
        return total, bad, burn

    def _evaluate(self, objective: SLObjective,
                  window: Deque[List[float]]
                  ) -> Optional[Dict[str, object]]:
        """Transition detection (holding the lock); returns the alert dict
        to fire, or None when the state is unchanged."""
        total, bad, burn = self._stats(objective, window)
        firing = (total >= objective.min_events
                  and burn >= objective.burn_rate_alert)
        if firing == self._alerting[objective.name]:
            return None
        self._alerting[objective.name] = firing
        if firing:
            self.alerts_fired += 1
        return {
            "objective": objective.name,
            "state": "firing" if firing else "resolved",
            "burn_rate": burn,
            "events": total,
            "bad_events": bad,
            "target": objective.target,
            "window_s": objective.window_s,
            "unix_time": time.time(),
        }

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-objective burn state for ``stats()["health"]["slo"]``."""
        now = self._clock()
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for objective in self._objectives:
                window = self._windows[objective.name]
                self._prune(window, objective, now)
                total, bad, burn = self._stats(objective, window)
                out[objective.name] = {
                    "target": objective.target,
                    "window_s": objective.window_s,
                    "events": total,
                    "bad_events": bad,
                    "bad_fraction": bad / total if total else 0.0,
                    "burn_rate": burn,
                    "alerting": self._alerting[objective.name],
                }
        return out

    def alerting(self) -> Dict[str, bool]:
        """Current firing state per objective (for health checks)."""
        with self._lock:
            return dict(self._alerting)


def log_alert_sink(logger: Optional[logging.Logger] = None
                   ) -> Callable[[Dict[str, object]], None]:
    """An alert sink writing one warning per transition to ``logging``."""
    log = logger or logging.getLogger("repro.obs.health")

    def sink(alert: Dict[str, object]) -> None:
        log.warning(
            "SLO %s %s: burn_rate=%.2f over %d events (target %s)",
            alert["objective"], alert["state"], alert["burn_rate"],
            alert["events"], alert["target"])
    return sink


def json_lines_alert_sink(path: str) -> Callable[[Dict[str, object]], None]:
    """An alert sink appending one JSON document per transition to a file
    (same framing as :class:`~repro.obs.recorder.JsonLinesRecorder`)."""
    lock = threading.Lock()

    def sink(alert: Dict[str, object]) -> None:
        line = json.dumps(alert, separators=(",", ":"))
        with lock:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
    return sink
