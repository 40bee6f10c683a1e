"""repro.service -- a resident query engine for MaxRS-family queries.

The paper's ExactMaxRS is a one-shot algorithm: every call re-ingests the
point set and pays the full sort-and-sweep cost.  This package provides the
serving layer for the opposite workload -- *register a dataset once, answer
many queries* with varying rectangle / circle sizes:

* :mod:`repro.service.store` -- :class:`~repro.service.store.PointStore`
  snapshots, sorts and fingerprints each registered dataset;
* :mod:`repro.service.grid_index` -- a uniform-grid pre-aggregation index
  (per-cell weight sums and point counts) built once per dataset, on the
  calling thread; it serves fast approximate answers and prunes the exact
  sweep to candidate regions;
* :mod:`repro.service.cache` -- an LRU result cache keyed by
  ``(dataset fingerprint, query kind, parameters)``;
* :mod:`repro.service.metrics` -- per-stage timing and counter aggregation;
* :mod:`repro.service.engine` -- :class:`~repro.service.engine.MaxRSEngine`,
  the façade tying the pieces together (``register_dataset`` / ``query`` /
  ``query_batch`` / ``stats``).

Constructed with ``persist_dir=...`` the engine is durable: datasets and
grid aggregates are written through to a :mod:`repro.persist` snapshot store
(block-accounted through :mod:`repro.em`), and a restarted engine restores
the catalog and re-serves without re-ingesting.

For concurrent serving -- many clients, request coalescing, backpressure, a
network protocol -- see the asyncio front-end in :mod:`repro.aio`; it wraps
this engine without changing any answer.

Exact answers returned by the engine (``refine=True``, the default) are
identical to running :func:`repro.core.plane_sweep.solve_in_memory` on the
full dataset -- the grid only removes points that provably cannot take part
in an optimal placement (see :mod:`repro.service.grid_index` for the
argument).
"""

from repro.service.cache import CacheStats, LRUCache
from repro.service.metrics import EngineMetrics

__all__ = [
    "CacheStats",
    "DatasetHandle",
    "EngineMetrics",
    "GridIndex",
    "LRUCache",
    "MaxRSEngine",
    "PointStore",
    "QuerySpec",
]

#: Lazily exported symbols and their defining submodules.  The engine, grid
#: index and point store are numpy-backed; deferring their
#: import keeps the numpy-free parts of the package (result cache, metrics)
#: usable -- and their tests runnable -- on hosts without numpy.
_LAZY_EXPORTS = {
    "MaxRSEngine": "repro.service.engine",
    "QuerySpec": "repro.service.engine",
    "GridIndex": "repro.service.grid_index",
    "DatasetHandle": "repro.service.store",
    "PointStore": "repro.service.store",
}


def __getattr__(name: str):
    """Lazily expose the numpy-backed service components."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.service' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)
