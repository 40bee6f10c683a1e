"""The resident MaxRS query engine.

:class:`MaxRSEngine` is the serving façade of :mod:`repro.service`: register
a dataset once, then answer many MaxRS / MaxkRS / MaxCRS queries with varying
parameters cheaply.  Per query it composes four layers:

1. the :class:`~repro.service.cache.LRUCache` -- repeated parameters are free;
2. the :class:`~repro.service.grid_index.GridIndex` -- an approximate answer
   from the best pre-aggregated window (``refine=False`` stops here);
3. safe pruning -- cells whose aggregate upper bound cannot reach the
   approximate answer are discarded, and the exact sweep
   (:func:`~repro.core.plane_sweep.solve_columns`, which sweeps the
   store's point columns) runs on the surviving points only;
4. region restoration -- the one answer component pruning can coarsen is the
   h-line closing the best strip (an event of a pruned point may close it
   earlier); it is recomputed exactly from the dataset's sorted y-column.

Refined (default) answers are therefore *identical* to solving the full
dataset in memory -- same weight, same max-region -- while touching only the
points near contention hot spots.  Each dataset is served from one grid
index, built and queried on the calling thread; the engine starts no thread
but an optional gauge sampler.  ``query_batch`` deduplicates identical
requests and answers the distinct ones in order.  The engine is thread-safe;
the async front-end (:mod:`repro.aio`) solves on one thread of its own and
answers cache hits through :meth:`MaxRSEngine.query_cached`.

With ``persist_dir=...`` the engine is additionally **durable**: registered
datasets' point columns are written through to a
:class:`~repro.persist.SnapshotStore`, the catalog is restored on
construction (each grid index is rebuilt from the verified points, exactly
as registration builds it), and a restarted engine re-serves every
previously registered dataset -- bit-identical refined answers -- without
re-ingesting.  All snapshot I/O flows through the EM substrate and is
reported, in block transfers, by :meth:`MaxRSEngine.stats`.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.circles.exact_maxcrs import exact_maxcrs
from repro.core import backends
from repro.core.dispatch import solve_point_set_top_k
from repro.core.plane_sweep import solve_columns
from repro.core.result import MaxCRSResult, MaxRegion, MaxRSResult
from repro.em.config import EMConfig
from repro import obs
from repro.errors import ConfigurationError, PersistError, ServiceError
from repro.geometry import Point, WeightedPoint, is_positive_finite
from repro.persist.store import SnapshotStore
from repro.service.cache import LRUCache
from repro.service.grid_index import GridIndex
from repro.service.metrics import (
    EngineMetrics,
    QueryLedger,
    active_ledger,
    ledger_scope,
)
from repro.service.store import DatasetHandle, PointStore, RegisteredDataset

__all__ = ["MaxRSEngine", "QuerySpec"]

#: The query kinds the engine serves.
_KINDS = ("maxrs", "maxkrs", "maxcrs")

#: Per kind, the fields it does not use and the default each must keep.
_UNUSED_FIELDS = {
    "maxrs": (("k", 1), ("diameter", None)),
    "maxkrs": (("diameter", None), ("refine", True)),
    "maxcrs": (("width", None), ("height", None), ("k", 1)),
}

#: Any result an engine query can produce.
QueryResult = Union[MaxRSResult, Tuple[MaxRSResult, ...], MaxCRSResult]


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One engine query: a kind plus its parameters.

    Use the constructors (:meth:`maxrs`, :meth:`maxkrs`, :meth:`maxcrs`)
    rather than spelling out fields; they only expose the parameters their
    kind actually uses.

    ``refine=True`` (default) returns exact answers; ``refine=False`` returns
    the fast grid-window approximation (a lower bound with an achievable
    placement).

    ``error_bound=`` requests the bounded-error fast path: the engine serves
    its probe answer (the best grid window's exact solve) when the grid's
    best window bound *certifies* that the true optimum is within
    ``error_bound`` (relative) of it, and reports the certified gap on the
    result's ``gap`` field.  When the bound cannot certify the probe the
    query falls through to the exact sweep (``gap == 0.0``).  MaxkRS cannot
    express a certified gap (its k strips interact non-locally), so
    ``error_bound`` is rejected for it, as it is for ``refine=False`` (the
    unrefined estimate carries no certificate).

    A field the kind does not use must keep its default (``k`` outside
    MaxkRS, ``diameter`` outside MaxCRS, ``width``/``height`` for MaxCRS,
    ``refine=False`` for MaxkRS): the spec keys the result cache, so an
    ignored field would split one answer over several cache entries.
    """

    kind: str = "maxrs"
    width: Optional[float] = None
    height: Optional[float] = None
    k: int = 1
    diameter: Optional[float] = None
    refine: bool = True
    error_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown query kind {self.kind!r}; expected one of {_KINDS}"
            )
        for name, default in _UNUSED_FIELDS[self.kind]:
            value = getattr(self, name)
            if value != default:
                raise ConfigurationError(
                    f"{self.kind} queries do not use {name}; leave it at "
                    f"{default!r}, got {value!r}"
                )
        # Sizes come from outside the program (the wire decoder accepts the
        # NaN and Infinity tokens), and NaN slips past a plain `<= 0` test.
        if self.kind in ("maxrs", "maxkrs"):
            if self.width is None or self.height is None \
                    or not is_positive_finite(self.width, self.height):
                raise ConfigurationError(
                    f"{self.kind} queries need a positive finite width x "
                    f"height, got {self.width} x {self.height}"
                )
        if self.kind == "maxkrs" and self.k < 1:
            raise ConfigurationError(f"k must be at least 1, got {self.k}")
        if self.kind == "maxcrs" and (
                self.diameter is None
                or not is_positive_finite(self.diameter)):
            raise ConfigurationError(
                f"maxcrs queries need a positive finite diameter, got "
                f"{self.diameter}"
            )
        if self.error_bound is not None:
            if self.kind == "maxkrs":
                raise ConfigurationError(
                    "maxkrs queries cannot be served with a certified "
                    "error bound; use exact maxkrs"
                )
            if not is_positive_finite(self.error_bound):
                raise ConfigurationError(
                    f"error_bound must be a positive finite relative gap, "
                    f"got {self.error_bound}"
                )
            if not self.refine:
                raise ConfigurationError(
                    "error_bound needs refine=True: the unrefined grid "
                    "estimate carries no optimality certificate"
                )

    @classmethod
    def maxrs(cls, width: float, height: float, *, refine: bool = True,
              error_bound: Optional[float] = None) -> "QuerySpec":
        """A plain MaxRS query for a ``width x height`` rectangle."""
        return cls(kind="maxrs", width=width, height=height, refine=refine,
                   error_bound=error_bound)

    @classmethod
    def maxkrs(cls, width: float, height: float, k: int) -> "QuerySpec":
        """A MaxkRS query: the ``k`` best vertically-disjoint placements."""
        return cls(kind="maxkrs", width=width, height=height, k=k)

    @classmethod
    def maxcrs(cls, diameter: float, *, refine: bool = True,
               error_bound: Optional[float] = None) -> "QuerySpec":
        """A MaxCRS query for a circle of ``diameter``."""
        return cls(kind="maxcrs", diameter=diameter, refine=refine,
                   error_bound=error_bound)


class MaxRSEngine:
    """Resident query engine: ingest once, answer many queries.

    Parameters
    ----------
    cache_size:
        Capacity of the LRU result cache (entries, across all datasets).
    target_points_per_cell, max_cells_per_side:
        Grid-index resolution knobs (both at least 1), passed to
        :class:`~repro.service.grid_index.GridIndex`.
    maxcrs_exact_limit:
        MaxCRS queries run the exact circle solver on the pruned subset.  It
        costs ``O(n + P log P)`` for the ``P`` point pairs closer than the
        diameter, which is quadratic when most of the subset lies within one
        diameter; so when the subset exceeds this many points the engine
        raises :class:`~repro.errors.ServiceError` instead of hanging on one
        query.
    persist_dir:
        Directory for durable dataset snapshots (:mod:`repro.persist`).  When
        given, the snapshot catalog found there is restored on construction
        (every restorable dataset is registered and its grid index built
        at this engine's resolution, ready to serve), ``register_dataset``
        writes new datasets' point columns through by default, and
        ``unregister_dataset`` drops their snapshots.  Datasets whose
        snapshots fail verification are skipped and reported under
        ``stats()["persist"]["restore_errors"]``; registering one again
        saves it again.
    persist_config:
        External-memory configuration (block size / buffer size) for the
        snapshot store's accounting substrate; defaults to the paper's.
    tracer:
        Query tracing (:mod:`repro.obs`): a :class:`~repro.obs.Tracer`, a
        :class:`~repro.obs.TraceRecorder`, a recorder name (``"ring"`` /
        ``"null"``), or ``None`` (default) for a disabled tracer whose
        per-query overhead is one context-variable read.  The engine's
        tracer is shared by the async front-end and the TCP server, so one
        trace follows a request across every layer; recorded traces are
        summarised under ``stats()["traces"]``.
    slo:
        Service-level objectives: a sequence of
        :class:`~repro.obs.SLObjective` (or a pre-built
        :class:`~repro.obs.SLOTracker` carrying its own sinks), or ``None``
        (default) for no SLO tracking.  Every query -- hits, misses and
        failures alike -- is recorded against the tracker, burn-rate alert
        state feeds the ``slo`` health check, and per-objective burn rates
        appear under ``stats()["health"]["slo"]``.
    sample_interval_s:
        When set, the engine's :class:`~repro.obs.ResourceSampler` also
        polls on a background thread every this many seconds.  By default
        sampling is pull-only: ``stats()``, :meth:`metrics_text`,
        :meth:`healthz` and :meth:`readyz` each take a fresh sample, which
        keeps the idle engine completely quiet.
    max_tracked_clients:
        Cardinality bound of the per-client accounting ledgers kept when
        callers pass ``client_id=`` to :meth:`query`: the engine tracks at
        most this many distinct clients, evicting the least recently active
        one (counted under ``client_ledgers_evicted``) when a new client
        would exceed the bound -- so a client-id cardinality explosion can
        never balloon ``stats()`` or the metrics exposition.

    Examples
    --------
    >>> engine = MaxRSEngine()
    >>> ds = engine.register_dataset([WeightedPoint(0, 0), WeightedPoint(1, 1),
    ...                               WeightedPoint(50, 50)])
    >>> engine.query(ds, QuerySpec.maxrs(4.0, 4.0)).total_weight
    2.0
    """

    def __init__(self, *, cache_size: int = 1024,
                 target_points_per_cell: int = 1,
                 max_cells_per_side: int = 512,
                 maxcrs_exact_limit: int = 5_000,
                 persist_dir: Union[str, os.PathLike, None] = None,
                 persist_config: Optional[EMConfig] = None,
                 tracer: Union[None, str, obs.Tracer,
                               obs.TraceRecorder] = None,
                 slo: Union[None, obs.SLOTracker,
                            Sequence[obs.SLObjective]] = None,
                 sample_interval_s: Optional[float] = None,
                 max_tracked_clients: int = 64) -> None:
        if max_tracked_clients < 1:
            raise ConfigurationError(
                f"max_tracked_clients must be positive, got "
                f"{max_tracked_clients}")
        # Fail at the configuration site, not at the first registration.
        if target_points_per_cell < 1 or max_cells_per_side < 1:
            raise ConfigurationError(
                f"target_points_per_cell and max_cells_per_side must be "
                f"positive, got {target_points_per_cell} and "
                f"{max_cells_per_side}")
        self.store = PointStore(index=self._build_grid)
        self.cache = LRUCache(cache_size)
        self.metrics = EngineMetrics()
        self.tracer = (tracer if isinstance(tracer, obs.Tracer)
                       else obs.Tracer(obs.resolve_recorder(tracer)))
        self.maxcrs_exact_limit = maxcrs_exact_limit
        self._target_points_per_cell = target_points_per_cell
        self._max_cells_per_side = max_cells_per_side
        self._restore_errors: Dict[str, str] = {}
        # The results records last saved or restored, per (dataset id,
        # fingerprint): a checkpoint with none new reads nothing.
        self._saved_results: Dict[Tuple[str, str], frozenset] = {}
        # Per-client accounting: a bounded LRU of client_id -> cumulative
        # ledger, fed by query(client_id=...) and surfaced by stats() and
        # the metrics exposition's client= series.
        self.max_tracked_clients = max_tracked_clients
        self._clients: "OrderedDict[str, Dict[str, float]]" = OrderedDict()
        self._clients_lock = threading.Lock()
        self._closed = False
        # Telemetry: health checks, SLO burn tracking and the gauge
        # sampler all live per-engine, reading engine state via closures
        # registered by _register_telemetry().
        self.health = obs.HealthMonitor()
        if slo is None or isinstance(slo, obs.SLOTracker):
            self.slo: Optional[obs.SLOTracker] = slo
        else:
            self.slo = obs.SLOTracker(list(slo), sinks=[obs.log_alert_sink()])
        self.sampler = obs.ResourceSampler(self.metrics,
                                           interval_s=sample_interval_s)
        self._register_telemetry()
        self.sampler.start()
        self.persist: Optional[SnapshotStore] = None
        if persist_dir is not None:
            self.persist = SnapshotStore(persist_dir, config=persist_config)
            self._restore_catalog()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the background sampler and fail ``readyz`` (idempotent).

        The engine stays queryable afterwards, so a drained service can still
        answer stragglers during shutdown.
        """
        self._closed = True
        self.sampler.stop()

    def __enter__(self) -> "MaxRSEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Telemetry: gauges, health checks, SLOs
    # ------------------------------------------------------------------ #
    def _register_telemetry(self) -> None:
        """Wire the engine's gauge sources and health checks (once, at
        construction).  Everything registered here reads live engine state
        at sample/check time; nothing is evaluated eagerly."""
        self.sampler.add_source(obs.process_gauge_source())
        self.sampler.add_source(self._cache_gauge_source)
        self.health.add_check("persist", self._check_persist, liveness=False)
        self.health.add_check("closed", self._check_closed, liveness=False)
        self.health.add_check("slo", self._check_slo, readiness=False)

    def _cache_gauge_source(self, metrics: EngineMetrics) -> None:
        """Gauge source: result-cache occupancy (entry count and shallow
        byte estimate -- result objects are flat dataclasses, so
        ``sys.getsizeof`` per value is a fair order-of-magnitude)."""
        stats = self.cache.stats
        metrics.set_gauge("cache_entries", stats.size)
        metrics.set_gauge("cache_capacity", stats.capacity)
        metrics.set_gauge("cache_bytes", float(sum(
            sys.getsizeof(value) for _, value, _ in self.cache.entries())))

    def _check_persist(self):
        """Readiness: the snapshot directory accepts writes."""
        if self.persist is None:
            return ("ok", "memory-only engine")
        root = str(self.persist.root)
        if os.path.isdir(root) and os.access(root, os.W_OK | os.X_OK):
            return ("ok", f"snapshot dir writable: {root}")
        return ("failing", f"snapshot dir not writable: {root}")

    def _check_closed(self):
        """Readiness: a closed engine must be pulled from rotation."""
        if self._closed:
            return ("failing", "engine closed")
        return ("ok", "accepting work")

    def _check_slo(self):
        """Health: no SLO error budget is currently burning too fast."""
        if self.slo is None:
            return ("ok", "no SLOs configured")
        firing = sorted(name for name, alerting in self.slo.alerting().items()
                        if alerting)
        if firing:
            return ("degraded", f"SLO burn-rate alerts firing: {firing}")
        return ("ok", "error budgets healthy")

    def healthz(self) -> Dict[str, object]:
        """Liveness verdict (fresh gauges included as a side effect):
        ``{"ok", "status", "checks"}`` -- ``status`` is ``"degraded"``
        while e.g. an SLO burn-rate alert fires, ``ok`` stays True as long
        as correct answers are still being served."""
        self.sampler.sample()
        return self.health.healthz()

    def readyz(self) -> Dict[str, object]:
        """Readiness verdict: ``{"ready", "status", "checks"}`` -- False
        once the engine is closed or its snapshot dir stops accepting
        writes."""
        self.sampler.sample()
        return self.health.readyz()

    def metrics_text(self, *, namespace: str = "repro") -> str:
        """Prometheus exposition of the engine's metrics, gauges included.

        Takes a fresh resource sample first, so a scrape always sees
        current RSS/CPU/cache gauges next to the cumulative counters.
        """
        self.sampler.sample()
        return obs.metrics_text(self.metrics, namespace=namespace,
                                clients=self.client_ledgers())

    def _build_grid(self, xs: np.ndarray, ys: np.ndarray,
                    ws: np.ndarray) -> GridIndex:
        """The grid index of a dataset's columns (the store's ``index``).

        The store builds it before publishing the dataset, on registration
        and on restore alike, so a restarted engine serves exactly the grid
        a fresh registration would build.
        """
        with self._stage("grid_build"):
            return GridIndex(
                xs, ys, ws,
                target_points_per_cell=self._target_points_per_cell,
                max_cells_per_side=self._max_cells_per_side,
            )

    def _count(self, counter: str, amount: int = 1) -> None:
        """Increment a work counter globally *and* on the active query ledger.

        The compute path books every unit of attributable work through this
        helper, so the per-query cost ledger's counters sum exactly to the
        global :class:`EngineMetrics` deltas -- the invariant the ledger
        reconciliation property test asserts.  Outside a metered query the
        ledger read is one context-variable lookup.
        """
        self.metrics.increment(counter, amount)
        ledger = active_ledger()
        if ledger is not None:
            ledger.count(counter, amount)

    # ------------------------------------------------------------------ #
    # Dataset lifecycle
    # ------------------------------------------------------------------ #
    def register_dataset(self, objects: Sequence[WeightedPoint], *,
                         name: Optional[str] = None,
                         persist: Optional[bool] = None,
                         replace: bool = False) -> DatasetHandle:
        """Snapshot, fingerprint and index a dataset; return its handle.

        Registering byte-identical data again is a cheap no-op returning the
        existing handle (the grid index is reused, cached results stay warm).
        Registering *different* data under an existing name raises unless
        ``replace=True``, which unregisters the old dataset first -- evicting
        its cached results and dropping its snapshot, so the name's new
        meaning can never serve the old data's answers.

        ``persist`` controls write-through to the snapshot store: ``None``
        (default) persists exactly when the engine has a ``persist_dir``,
        ``True`` demands it (a :class:`~repro.errors.ServiceError` if the
        engine has none), ``False`` keeps this dataset memory-only.
        """
        if persist is True and self.persist is None:
            raise ServiceError(
                "register_dataset(persist=True) needs an engine constructed "
                "with persist_dir=..."
            )
        with self.tracer.trace("engine.register",
                               points=len(objects)) as span, \
                self.metrics.time_stage("register"):
            old_fingerprint = None
            if replace and name is not None and name in self.store:
                old_fingerprint = self.store.get(name).handle.fingerprint
            handle = self.store.register(objects, name=name, replace=replace)
            span.set_attribute("dataset", handle.dataset_id)
            if old_fingerprint is not None and old_fingerprint != handle.fingerprint:
                # The name now means different data: evict the old
                # fingerprint's cached results (unless another dataset still
                # holds byte-identical data), and never let an opted-out
                # snapshot resurrect the old binding on restart.
                if not any(h.fingerprint == old_fingerprint
                           for h in self.store.handles()):
                    self._evict_fingerprint(old_fingerprint)
                if self.persist is not None and persist is False:
                    self.persist.delete_dataset(handle.dataset_id)
            if self.persist is not None and persist is not False:
                self._persist_dataset(handle)
        return handle

    def _persist_dataset(self, handle: DatasetHandle) -> None:
        """Write one registered dataset's columns through to the snapshot store.

        Skipped when the catalog already holds the same fingerprint, unless
        that snapshot failed to restore: then it is saved again, which
        clears its restore error.
        """
        dataset_id = handle.dataset_id
        manifest = self.persist.manifest_for(dataset_id)
        if manifest is not None and manifest.fingerprint == handle.fingerprint \
                and dataset_id not in self._restore_errors:
            return  # identical snapshot on disk
        entry = self.store.get(dataset_id)
        with self._stage("persist_save"):
            self.persist.save_dataset(dataset_id, entry.xs, entry.ys, entry.ws)
        self._restore_errors.pop(dataset_id, None)
        self.metrics.increment("snapshots_saved")

    def unregister_dataset(self, dataset: Union[str, DatasetHandle], *,
                           keep_snapshot: bool = False) -> None:
        """Forget a dataset: drop its grid index, cached results and snapshot.

        The dataset's result-cache entries are evicted immediately (the
        TTL-free invalidation hook) unless another registered dataset has the
        same fingerprint, i.e. byte-identical data, in which case the entries
        are still valid and stay.  With a persistent engine the durable
        snapshot is deleted too; pass ``keep_snapshot=True`` to keep it for a
        later restart.
        """
        dataset_id = _dataset_id(dataset)
        fingerprint = self.store.get(dataset_id).handle.fingerprint
        self.store.unregister(dataset_id)
        if not any(h.fingerprint == fingerprint for h in self.store.handles()):
            self._evict_fingerprint(fingerprint)
        if self.persist is not None and not keep_snapshot:
            self.persist.delete_dataset(dataset_id)

    def checkpoint(self) -> None:
        """Flush warm serving state: persist every dataset's hot results.

        For each persisted dataset, the refined MaxRS answers currently in
        the result cache are spilled (via
        :meth:`~repro.persist.SnapshotStore.save_results`) so a restarted
        engine re-serves them as cache hits instead of re-running their
        sweeps.  Checkpoints *merge*: previously persisted results whose
        query is no longer cached (evicted under LRU pressure) are kept --
        they are fingerprint-keyed, hence still valid -- so a checkpoint can
        only grow or refresh the durable warm state, never erase it.  A
        dataset whose hot answers are all among the records the engine last
        saved or restored for it is skipped without reading its blob.
        Approximate and MaxkRS/MaxCRS entries are not persisted -- they are
        cheap to recompute or structurally variable -- and datasets
        registered with ``persist=False`` are skipped.  Call it whenever the
        served working set is worth surviving a restart (end of warm-up, on
        graceful shutdown, periodically).
        """
        if self.persist is None:
            raise ServiceError(
                "checkpoint() needs an engine constructed with persist_dir=..."
            )
        with self._stage("checkpoint"):
            entries = self.cache.entries()
            for handle in self.store.handles():
                manifest = self.persist.manifest_for(handle.dataset_id)
                if manifest is None or manifest.fingerprint != handle.fingerprint:
                    continue
                records = self._hot_result_records(handle.fingerprint, entries)
                key = (handle.dataset_id, handle.fingerprint)
                saved = self._saved_results.get(key)
                if saved is not None and len(saved) == manifest.results_count \
                        and saved.issuperset(records):
                    continue  # nothing new since the last save or restore
                try:
                    existing = self.persist.load_results(handle.dataset_id)
                except PersistError:
                    existing = []  # corrupt or unreadable: overwrite
                by_query = {record[:2]: record for record in existing}
                by_query.update((record[:2], record) for record in records)
                merged = list(by_query.values())
                if merged != existing:
                    self.persist.save_results(handle.dataset_id, merged)
                    self.metrics.increment("results_saved", len(merged))
                self._saved_results[key] = frozenset(merged)

    @staticmethod
    def _hot_result_records(fingerprint: str, entries) -> List[tuple]:
        """RESULT_CODEC records for one fingerprint's cached refined answers."""
        records = []
        for (fp, spec), value, cost in entries:
            if fp != fingerprint or spec.kind != "maxrs" or not spec.refine \
                    or spec.error_bound is not None:
                continue
            if not isinstance(value, MaxRSResult) or value.region is None:
                continue
            records.append((
                float(spec.width), float(spec.height),
                float(value.location.x), float(value.location.y),
                float(value.region.x1), float(value.region.y1),
                float(value.region.x2), float(value.region.y2),
                float(value.region.weight), float(value.total_weight),
                float(value.recursion_levels), float(value.leaf_count),
                float(cost),
            ))
        return records

    def _restore_results(self, handle: DatasetHandle) -> None:
        """Reload a dataset's persisted hot results into the result cache."""
        records = self.persist.load_results(handle.dataset_id)
        self._saved_results[handle.dataset_id, handle.fingerprint] = \
            frozenset(records)
        for (width, height, loc_x, loc_y, x1, y1, x2, y2, region_weight,
             total_weight, levels, leaves, cost) in records:
            region = MaxRegion(x1=x1, y1=y1, x2=x2, y2=y2, weight=region_weight)
            result = MaxRSResult(
                location=Point(loc_x, loc_y), region=region,
                total_weight=total_weight, io=None,
                recursion_levels=int(levels), leaf_count=int(leaves),
            )
            key = self.cache_key(handle.fingerprint,
                                 QuerySpec.maxrs(width, height))
            self.cache.put(key, result, cost=max(0.0, cost))
        if records:
            self.metrics.increment("results_restored", len(records))

    def _evict_fingerprint(self, fingerprint: str) -> None:
        """Drop every cached result computed for one data fingerprint."""
        evicted = self.cache.invalidate_matching(
            lambda key: key[0] == fingerprint)
        if evicted:
            self.metrics.increment("cache_invalidated", evicted)

    def _restore_catalog(self) -> None:
        """Re-register every restorable dataset in the snapshot catalog.

        Each dataset's grid index is built from its fingerprint-verified
        columns, as registration builds it; the restore writes nothing.
        The snapshot store hashes the columns once to verify them, and the
        point store takes them over with that fingerprint.
        Corrupt or mismatched snapshots are skipped (recorded in
        ``stats()["persist"]["restore_errors"]``); a corrupt results blob
        only costs the warm cache, never the dataset.
        """
        for dataset_id in self.persist.dataset_ids():
            try:
                with self._stage("restore"):
                    loaded = self.persist.load_dataset(dataset_id)
                    handle = self.store.register_columns(
                        loaded.xs, loaded.ys, loaded.ws, name=dataset_id,
                        fingerprint=loaded.manifest.fingerprint,
                    )
                    try:
                        self._restore_results(handle)
                    except (PersistError, ConfigurationError) as exc:
                        # Hot results are an optimisation: losing them costs
                        # recomputation, never correctness.
                        self._restore_errors[f"{dataset_id}:results"] = str(exc)
                        self.metrics.increment("result_restore_failures")
                    self.metrics.increment("datasets_restored")
            except (PersistError, ServiceError) as exc:
                self._restore_errors[dataset_id] = str(exc)
                self.metrics.increment("restore_failures")

    def grid_index(self, dataset: Union[str, DatasetHandle]
                   ) -> Optional[GridIndex]:
        """The grid index of a registered dataset (``None`` when empty)."""
        return self.store.get(_dataset_id(dataset)).grid

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @staticmethod
    def cache_key(fingerprint: str, spec: QuerySpec) -> Tuple[str, QuerySpec]:
        """The identity of one query against one data fingerprint.

        ``(fingerprint, spec)`` keys the result cache -- and the async
        front-end's in-flight coalescing table (:mod:`repro.aio`), which must
        stay in lockstep with it: two queries may share a computation exactly
        when they would share a cache entry.
        """
        return (fingerprint, spec)

    def query(self, dataset: Union[str, DatasetHandle],
              spec: QuerySpec, *,
              client_id: Optional[str] = None) -> QueryResult:
        """Answer one query, consulting the result cache first.

        Every answer carries a **cost ledger** on its ``cost`` field: a plain
        dict attributing the work this specific delivery cost -- wall/CPU
        seconds, swept vs pruned points, sweeps, the bounded-error
        certificate, cache outcome, snapshot block I/O (see *Query
        introspection* in ``docs/observability.md`` for the field
        reference).  The ledger never changes the answer itself: ``cost`` is
        excluded from result equality and from the cache key, so
        ledger-carrying answers stay bit-identical to the solver's.

        ``client_id`` (optional) additionally accounts the query against a
        per-client cumulative ledger -- surfaced by ``stats()["clients"]``
        and as ``client=``-labelled series in :meth:`metrics_text` -- bounded
        to ``max_tracked_clients`` distinct clients (LRU eviction).
        """
        arrival = time.perf_counter()
        entry = self.store.get(_dataset_id(dataset))
        key = self.cache_key(entry.handle.fingerprint, spec)
        with self.tracer.trace("engine.query", kind=spec.kind,
                               dataset=entry.handle.dataset_id) as span:
            hit, value = self.cache.get(key)
            if hit:
                return self._serve_hit(span, entry, spec, value, arrival,
                                       client_id)
            self.metrics.increment("queries")
            span.set_attribute("cache_hit", False)
            ledger = QueryLedger()
            io_before = (self.persist.counters.snapshot()
                         if self.persist is not None else None)
            start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                with ledger_scope(ledger):
                    result = self._compute(entry, spec)
            except Exception:
                # Failures count against the error budget at the latency
                # the caller actually waited (then propagate unchanged).
                self.metrics.increment("query_errors")
                served = time.perf_counter() - arrival
                if self.slo is not None:
                    self.slo.record(spec.kind, served, error=True)
                self._account_client(client_id, None, error_wall_s=served)
                raise
            cpu_seconds = time.process_time() - cpu_start
            elapsed = time.perf_counter() - start
            cost = self._assemble_cost(entry, ledger, elapsed, cpu_seconds,
                                       io_before)
            result = _attach_cost(result, cost)
            # Cost-weighted caching: entries are charged their computation
            # time, so eviction sheds cheap approximate answers before
            # expensive refined ones (see LRUCache).
            self.cache.put(key, result, cost=elapsed)
            served = time.perf_counter() - arrival
            self.metrics.observe_latency(spec.kind, served)
            if self.slo is not None:
                self.slo.record(spec.kind, served)
            self._account_client(client_id, cost)
            return result

    def query_cached(self, dataset: Union[str, DatasetHandle],
                     spec: QuerySpec, *,
                     client_id: Optional[str] = None
                     ) -> Optional[QueryResult]:
        """The cached answer, served and booked as a :meth:`query` hit is;
        ``None`` on a miss.  Never computes.

        The membership test counts no lookup, so a miss is counted once, by
        the :meth:`query` that computes it; an entry evicted between the
        test and the lookup costs one extra counted miss.
        """
        arrival = time.perf_counter()
        entry = self.store.get(_dataset_id(dataset))
        key = self.cache_key(entry.handle.fingerprint, spec)
        if key not in self.cache:
            return None
        with self.tracer.trace("engine.query", kind=spec.kind,
                               dataset=entry.handle.dataset_id) as span:
            hit, value = self.cache.get(key)
            return self._serve_hit(span, entry, spec, value, arrival,
                                   client_id) if hit else None

    def _serve_hit(self, span, entry: RegisteredDataset, spec: QuerySpec,
                   value: QueryResult, arrival: float,
                   client_id: Optional[str]) -> QueryResult:
        """Book one cache hit; return it carrying its cost record."""
        self.metrics.increment("queries")
        span.set_attribute("cache_hit", True)
        # Latency is recorded per query kind for hits too: the histogram
        # reports what callers experienced, not what computation cost.
        served = time.perf_counter() - arrival
        self.metrics.observe_latency(spec.kind, served)
        if self.slo is not None:
            self.slo.record(spec.kind, served)
        cost = {"cache": "hit", "wall_seconds": served,
                "cpu_seconds": 0.0, "swept_points": 0,
                "block_reads": 0, "block_writes": 0,
                "dataset_points": int(entry.count)}
        self._account_client(client_id, cost)
        return _attach_cost(value, cost)

    def _assemble_cost(self, entry: RegisteredDataset, ledger: QueryLedger,
                       elapsed: float, cpu_seconds: float,
                       io_before) -> Dict[str, object]:
        """Fold one finished computation's ledger into its cost record.

        Counter-based fields (swept points, sweeps, certify outcome) come
        from the per-query :class:`QueryLedger` the compute path
        double-booked into, so they attribute correctly even when callers
        run queries side by side on threads of their own.
        """
        counters = dict(ledger.counters)
        facts = dict(ledger.fields)
        # The exact-sweep footprint: the refine subset when the query
        # refined, else the probe window; everything outside it was pruned.
        swept_footprint = facts.get("subset_points",
                                    facts.get("probe_points", entry.count))
        descent = None
        certified = counters.get("descent_certified", 0)
        if certified or counters.get("descent_stop_exact"):
            descent = {"certified": bool(certified),
                       "certified_gap": facts.get("descent_gap")}
        block_reads = block_writes = 0
        if io_before is not None:
            delta = self.persist.counters.snapshot() - io_before
            block_reads, block_writes = delta.block_reads, delta.block_writes
        return {
            "cache": "miss",
            "wall_seconds": float(elapsed),
            "cpu_seconds": float(cpu_seconds),
            "dataset_points": int(entry.count),
            "swept_points": int(counters.get("swept_points", 0)),
            "probe_points": int(facts.get("probe_points", 0)),
            "subset_points": int(facts.get("subset_points", 0)),
            "pruned_points": max(0, int(entry.count) - int(swept_footprint)),
            "sweeps": int(counters.get("sweeps", 0)),
            "descent": descent,
            "block_reads": int(block_reads),
            "block_writes": int(block_writes),
        }

    def _account_client(self, client_id: Optional[str],
                        cost: Optional[Dict[str, object]], *,
                        error_wall_s: Optional[float] = None) -> None:
        """Fold one delivery's cost into the client's cumulative ledger.

        No-op without a ``client_id``.  The tracked-client set is a bounded
        LRU: a new client beyond ``max_tracked_clients`` evicts the least
        recently active ledger (counted as ``client_ledgers_evicted``).
        """
        if client_id is None:
            return
        with self._clients_lock:
            ledger = self._clients.get(client_id)
            if ledger is None:
                while len(self._clients) >= self.max_tracked_clients:
                    self._clients.popitem(last=False)
                    self.metrics.increment("client_ledgers_evicted")
                ledger = self._clients[client_id] = {
                    "queries": 0, "hits": 0, "misses": 0, "errors": 0,
                    "wall_seconds": 0.0, "cpu_seconds": 0.0,
                    "swept_points": 0, "block_reads": 0, "block_writes": 0,
                }
            else:
                self._clients.move_to_end(client_id)
            ledger["queries"] += 1
            if cost is None:  # the computation raised
                ledger["errors"] += 1
                ledger["wall_seconds"] += error_wall_s or 0.0
                return
            ledger["hits" if cost["cache"] == "hit" else "misses"] += 1
            ledger["wall_seconds"] += cost["wall_seconds"]
            ledger["cpu_seconds"] += cost["cpu_seconds"]
            ledger["swept_points"] += cost["swept_points"]
            ledger["block_reads"] += cost["block_reads"]
            ledger["block_writes"] += cost["block_writes"]

    def client_ledgers(self) -> Dict[str, Dict[str, float]]:
        """Per-client accounting snapshots (least recently active first)."""
        with self._clients_lock:
            return {client: dict(ledger)
                    for client, ledger in self._clients.items()}

    def query_batch(self, dataset: Union[str, DatasetHandle],
                    specs: Sequence[QuerySpec], *,
                    client_id: Optional[str] = None) -> List[QueryResult]:
        """Answer many queries on the calling thread, deduplicating.

        Identical specs in one batch are computed once; the distinct specs
        run one after another through :meth:`query`, in the order they first
        appear, and the first failure propagates at once.  Results come back
        aligned with ``specs``.  ``client_id`` attributes each *distinct*
        executed query to the client (duplicates within the batch are served
        from the one computation, so they account once -- keeping per-client
        query totals reconciled with the global counter).
        """
        entry = self.store.get(_dataset_id(dataset))
        dataset_id = entry.handle.dataset_id
        self.metrics.increment("batch_queries", len(specs))
        distinct = list(dict.fromkeys(specs))
        if len(distinct) < len(specs):
            self.metrics.increment("batch_deduplicated",
                                   len(specs) - len(distinct))
        answers = {spec: self.query(dataset_id, spec, client_id=client_id)
                   for spec in distinct}
        return [answers[spec] for spec in specs]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Serving statistics: cache, per-stage timings, datasets, snapshot I/O.

        ``stats()["persist"]`` is ``None`` for a memory-only engine; for a
        persistent one it reports the snapshot catalog size, restore results,
        and -- via the snapshot store's ``em.counters`` -- the block reads and
        writes every save and load cost, in the paper's transfer units.
        """
        cache = self.cache.stats
        self.sampler.sample()  # stats() always reports fresh gauges
        snapshot = self.metrics.snapshot()
        persist: Optional[Dict[str, object]] = None
        if self.persist is not None:
            io = self.persist.counters
            persist = {
                "dir": str(self.persist.root),
                "datasets_in_catalog": len(self.persist),
                "snapshots_saved": snapshot["counters"].get("snapshots_saved", 0),
                "datasets_restored": snapshot["counters"].get("datasets_restored", 0),
                "results_saved": snapshot["counters"].get("results_saved", 0),
                "results_restored": snapshot["counters"].get("results_restored", 0),
                "restore_errors": dict(self._restore_errors),
                "io": {
                    "block_reads": io.block_reads,
                    "block_writes": io.block_writes,
                    "cache_hits": io.cache_hits,
                    "total_ios": io.total_ios,
                },
            }
        return {
            "persist": persist,
            # The platform's backend: numpy, unless a test swaps it.
            "sweep_backend": backends.platform_backend().name,
            # Constant: every grid is one index on the calling thread.
            # perfbench/workloads.py reads these two keys; ROADMAP.md item 4
            # deletes them.
            "sharding": {"effective_shards": 1, "resolved_executor": "serial"},
            "datasets": len(self.store),
            "queries": snapshot["counters"].get("queries", 0),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "size": cache.size,
                "capacity": cache.capacity,
                "hit_rate": cache.hit_rate,
            },
            # Per-client accounting ledgers (queries that carried a
            # client_id), bounded to max_tracked_clients by LRU eviction.
            "clients": {
                "tracked": len(self._clients),
                "capacity": self.max_tracked_clients,
                "evicted": snapshot["counters"].get(
                    "client_ledgers_evicted", 0),
                "ledgers": self.client_ledgers(),
            },
            "stages": snapshot["stages"],
            "counters": snapshot["counters"],
            "latency": snapshot["latency"],
            "gauges": snapshot["gauges"],
            "health": {
                "healthz": self.health.healthz(),
                "readyz": self.health.readyz(),
                "slo": self.slo.snapshot() if self.slo is not None else {},
            },
            # Summaries of traces retained by the tracer's recorder (empty
            # for the default NullRecorder); full trees stay on the recorder.
            "traces": self.tracer.trace_summaries(),
            "grids": {
                entry.handle.dataset_id: (entry.grid.stats()
                                          if entry.grid is not None else None)
                for entry in self.store.entries()
            },
        }

    def clear_cache(self) -> None:
        """Drop every cached result (datasets and indexes stay resident)."""
        self.cache.clear()

    def explain(self, dataset: Union[str, DatasetHandle], spec: QuerySpec, *,
                result: Optional[QueryResult] = None) -> Dict[str, object]:
        """The plan :meth:`query` would take for ``spec`` -- without running it.

        Reads the same structures the query path reads (cache membership,
        grid window sums) but performs
        **no sweep and no state mutation**: the cache probe is the
        non-refreshing membership test, no work counters advance beyond
        ``explains``, and nothing is cached -- so explaining a query has
        zero effect on any subsequent answer (tested bit-identical against
        an engine that never explains).

        The returned dict holds:

        ``path``
            ``"full_sweep"`` (MaxkRS), ``"direct"`` (no grid: empty
            dataset), ``"approximate"`` (``refine=False`` stops at the
            probe), ``"bounded_descent"`` (``error_bound=``: probe, then the
            certify check, then the exact sweep unless it certifies), or
            ``"exact_sweep"`` (probe + prune + refined sweep).
        ``cache``
            ``{"would_hit": bool}`` -- membership without touching recency.
        ``estimates``
            Best cell and bound, the exact probe-window point count, and an
            *optimistic* refine-subset estimate anchored at the best upper
            bound (the achieved probe weight can only be lower, so the real
            subset can only be larger; compare with ``actual``).
        ``backend``
            The name of the sweep backend the solves would run on.
        ``actual``
            ``result.cost`` when a previously answered ``result`` is passed
            in, placing measured work next to the estimates.
        """
        self.metrics.increment("explains")
        entry = self.store.get(_dataset_id(dataset))
        key = self.cache_key(entry.handle.fingerprint, spec)
        grid = entry.grid
        plan: Dict[str, object] = {
            "kind": spec.kind,
            "dataset": entry.handle.dataset_id,
            "dataset_points": int(entry.count),
            # __contains__ is the documented non-mutating membership test:
            # it neither counts as a lookup nor refreshes recency.
            "cache": {"would_hit": key in self.cache},
        }
        if spec.kind == "maxkrs" or grid is None:
            # Top-k always solves the full resident set; an absent grid
            # means an empty dataset whose exact answer is free.
            plan["path"] = "full_sweep" if spec.kind == "maxkrs" else "direct"
            plan["estimates"] = {"swept_points": int(entry.count)}
        else:
            w, h = _window(spec)
            bounds = grid.upper_bounds(w, h)
            row, col, best_bound = grid.best_cell(w, h, bounds)
            probe_points = int(len(grid.points_in_window(row, col, w, h)))
            mask = grid.candidate_mask(w, h, best_bound, bounds)
            subset_estimate = int(len(grid.points_in_mask(
                grid.dilate(mask, w, h))))
            if spec.error_bound is not None:
                plan["path"] = "bounded_descent"
            elif not spec.refine:
                plan["path"] = "approximate"
            else:
                plan["path"] = "exact_sweep"
            plan["estimates"] = {
                "best_cell": [int(row), int(col)],
                "best_bound": float(best_bound),
                "probe_points": probe_points,
                "subset_points": subset_estimate,
                "pruned_points": max(0, int(entry.count) - subset_estimate),
            }
        plan["backend"] = backends.platform_backend().name
        if result is not None:
            first = result[0] if isinstance(result, tuple) and result \
                else result
            plan["actual"] = getattr(first, "cost", None)
        return plan

    def trace_profile(self, trace_id: Optional[str] = None
                      ) -> Dict[str, object]:
        """Per-stage self-time breakdown of retained traces.

        Folds the tracer's recorded traces (all of them, or just the ones
        matching ``trace_id``) through :func:`repro.obs.analyze.profile`.
        Requires a retaining recorder (ring or tail); with the default
        ``NullRecorder`` the profile is empty.
        """
        from repro.obs import analyze

        recorder = self.tracer.recorder
        traces_fn = getattr(recorder, "traces", None)
        if traces_fn is None:
            traces = []
        elif trace_id is not None:
            traces = recorder.find(trace_id)
        else:
            traces = traces_fn()
        payload: Dict[str, object] = {
            "traces": len(traces),
            "stages": analyze.profile(traces),
            "critical_path": (analyze.critical_path(traces[-1])
                              if traces else []),
        }
        stats_fn = getattr(recorder, "stats", None)
        if stats_fn is not None:
            payload["recorder"] = stats_fn()
        return payload

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def _compute(self, entry: RegisteredDataset, spec: QuerySpec) -> QueryResult:
        """Answer one cache miss: probe -> [descend] -> refine -> restore.

        MaxRS and MaxCRS run the same pipeline; they differ only in the
        query window (:func:`_window`) and the exact solver (:meth:`_solve`).
        The probe solves the best grid window exactly, which anchors the
        prune.  An ``error_bound=`` query then checks the certificate: no
        placement beats the best window bound ``B``, so the probe is within
        ``(B - probe) / probe`` of the optimum, and it is served when that
        gap is small enough.  Otherwise the refine solves the points of
        every cell that can still beat the probe.

        A bounded query that is not certified is the exact answer with gap
        0: it is served from the exact query's cache entry when there is
        one, and otherwise fills that entry, so the two never sweep twice.
        """
        if spec.kind == "maxkrs":
            # Top-k strips may lie anywhere (the 2nd best placement can sit in
            # a region the bound would prune), so MaxkRS always solves the
            # full resident set -- caching still amortises repeats.
            with self._stage("maxkrs"):
                self._count("sweeps")
                return tuple(solve_point_set_top_k(
                    entry.objects, spec.width, spec.height, spec.k,
                    force_in_memory=True))
        started = time.perf_counter()
        bounded = spec.error_bound is not None
        grid = entry.grid
        if grid is None:  # empty dataset: the exact answer is free
            result = self._solve(entry, spec, None)
            return replace(result, gap=0.0) if bounded else result
        width, height = _window(spec)
        with self._stage("approximate") as note:
            bounds = grid.upper_bounds(width, height)
            row, col, best_bound = grid.best_cell(width, height, bounds)
            probe_indices = grid.points_in_window(row, col, width, height)
            note(probe_points=int(len(probe_indices)))
            probe = self._solve(entry, spec, probe_indices)
            self._count("swept_points", int(len(probe_indices)))
        if not spec.refine:
            return probe
        if bounded:
            with self._stage("descend") as note:
                gap = _certified_gap(probe.total_weight, best_bound)
                certified = gap <= spec.error_bound
                self._count("descent_certified" if certified
                            else "descent_stop_exact")
                if certified:
                    note(descent_gap=gap)
                    return replace(probe, gap=gap)
            exact_key = self.cache_key(entry.handle.fingerprint,
                                       replace(spec, error_bound=None))
            hit, exact = self.cache.get(exact_key)
            if hit:
                return replace(exact, gap=0.0)
        with self._stage("refine") as note:
            mask = grid.candidate_mask(width, height, probe.total_weight,
                                       bounds)
            subset_indices = grid.points_in_mask(grid.dilate(mask, width,
                                                             height))
            pruned = len(subset_indices) < entry.count
            note(subset_points=int(len(subset_indices)), pruned=pruned)
            self._count("refine_pruned" if pruned else "refine_unpruned")
            if np.array_equal(subset_indices, probe_indices):
                result = probe
            else:
                result = self._solve(entry, spec,
                                     subset_indices if pruned else None)
            self._count("swept_points", int(len(subset_indices)))
            if pruned and spec.kind == "maxrs":
                result = _restore_closing_hline(result, entry, height)
        if not bounded:
            return result
        self.cache.put(exact_key, result, cost=time.perf_counter() - started)
        return replace(result, gap=0.0)

    def _solve(self, entry: RegisteredDataset, spec: QuerySpec,
               indices: Optional[np.ndarray]) -> Union[MaxRSResult,
                                                       MaxCRSResult]:
        """The exact answer over the entry's points at ``indices`` (all: None).

        MaxRS sweeps the store's columns, so no point object is built (a
        column-registered dataset stays lazy).  MaxCRS runs the exact circle
        solver, quadratic on a dense subset, which a resident service must
        not let block on one innocuous query: past ``maxcrs_exact_limit``
        points it fails fast with guidance instead.
        """
        count = entry.count if indices is None else len(indices)
        if spec.kind == "maxrs":
            self._count("sweeps")
            return solve_columns(*entry.columns(indices), spec.width,
                                 spec.height)
        if count > self.maxcrs_exact_limit:
            raise ServiceError(
                "maxcrs would run the exact circle solver on "
                f"{count} points (limit {self.maxcrs_exact_limit}); "
                "raise maxcrs_exact_limit, use a smaller diameter, or use "
                "the one-shot approximate MaxCRSSolver"
            )
        points = entry.objects if indices is None else entry.subset(indices)
        centre, weight = exact_maxcrs(points, spec.diameter)
        return MaxCRSResult(location=centre, total_weight=weight)

    @contextmanager
    def _stage(self, name: str) -> Iterator[Callable[..., None]]:
        """One engine stage, instrumented by this one call.

        Opens the ``engine.<name>`` span, times the block into the stage's
        histogram (``stats()["stages"][name]``), and yields
        ``note(**facts)``, which writes each fact both as a span attribute
        and onto the active query ledger (the source of ``result.cost``).
        """
        ledger = active_ledger()
        with self.metrics.time_stage(name), \
                obs.span(f"engine.{name}") as span:
            def note(**facts: object) -> None:
                span.set_attributes(**facts)
                if ledger is not None:
                    ledger.note(**facts)
            yield note


def _window(spec: QuerySpec) -> Tuple[float, float]:
    """The rectangle a query's grid bounds are taken over.

    MaxRS uses its ``width x height``; MaxCRS uses the circle's ``d x d``
    bounding square (the square the paper's ApproxMaxCRS solves MaxRS
    for): a circle fits in it, so the square's window bounds cap circle
    placements too.
    """
    if spec.kind == "maxcrs":
        return spec.diameter, spec.diameter
    return spec.width, spec.height


def _restore_closing_hline(result: MaxRSResult, entry: RegisteredDataset,
                           height: float) -> MaxRSResult:
    """Recompute the y that closes the best strip against the *full* dataset.

    The pruned sweep reports the best strip as closed by the next event of the
    *subset*; in the full sweep an event of a pruned point may close it
    earlier.  That closing h-line is the only component of the answer pruning
    can alter (weight, x-extent and opening h-line are all witnessed by
    surviving points), so recomputing it restores bit-identity with the
    unpruned solve.  Each object contributes events at ``y +- height/2``; the
    closing line is the smallest event strictly above the opening line.
    """
    y1 = result.region.y1
    if not math.isfinite(y1):
        return result
    half_h = height / 2.0
    closing = math.inf
    for events in (entry.ys_sorted - half_h, entry.ys_sorted + half_h):
        index = np.searchsorted(events, y1, side="right")
        if index < len(events):
            closing = min(closing, float(events[index]))
    if closing == result.region.y2:
        return result
    region = MaxRegion(x1=result.region.x1, y1=y1, x2=result.region.x2,
                       y2=closing, weight=result.region.weight)
    return MaxRSResult(
        location=region.representative_point(),
        region=region,
        total_weight=result.total_weight,
        io=None,
        recursion_levels=0,
        leaf_count=1,
    )


def _certified_gap(anchor: float, upper: float) -> float:
    """The relative optimality gap certified by an upper bound ``upper``.

    ``anchor`` is achievable, so the true optimum lies in
    ``[anchor, max(upper, anchor)]``; a non-positive anchor cannot certify a
    *relative* gap (returns ``inf``, forcing the exact fall-through) unless
    the bound already proves the anchor optimal.
    """
    if upper <= anchor:
        return 0.0
    if anchor <= 0.0:
        return math.inf
    return (upper - anchor) / anchor


def _dataset_id(dataset: Union[str, DatasetHandle]) -> str:
    return dataset.dataset_id if isinstance(dataset, DatasetHandle) else dataset


def _attach_cost(result: QueryResult, cost: Dict[str, object]) -> QueryResult:
    """Return ``result`` carrying ``cost`` (per element for MaxkRS tuples).

    ``cost`` is excluded from dataclass equality, so the returned answer
    still compares bit-identical to the plain one.
    """
    if isinstance(result, tuple):
        return tuple(replace(item, cost=cost) for item in result)
    return replace(result, cost=cost)
