"""repro -- a reproduction of "A Scalable Algorithm for Maximizing Range Sum
in Spatial Databases" (Choi, Chung, Tao; PVLDB 2012).

The package provides:

* :class:`~repro.core.exact_maxrs.ExactMaxRS` -- the paper's external-memory
  MaxRS algorithm, running on a fully simulated external-memory substrate
  (:mod:`repro.em`) that counts block transfers exactly like the paper's
  experiments do;
* :class:`~repro.circles.approx_maxcrs.ApproxMaxCRS` -- the (1/4)-approximate
  MaxCRS algorithm, plus an exact MaxCRS solver used to measure the practical
  approximation ratio;
* the two baselines of the empirical study (naive external plane sweep and the
  aSB-tree) in :mod:`repro.baselines`;
* dataset generators (:mod:`repro.datasets`) and the experiment harness that
  regenerates every table and figure of the paper (:mod:`repro.experiments`).

For most uses the high-level API in :mod:`repro.api` is the entry point::

    from repro import MaxRSSolver
    from repro.geometry import WeightedPoint

    solver = MaxRSSolver(width=1000.0, height=1000.0)
    result = solver.solve([WeightedPoint(x, y) for x, y in locations])
    print(result.location, result.total_weight)

Serving many queries
--------------------

``MaxRSSolver`` is one-shot: each call re-ingests the dataset and pays the
full sort-and-sweep cost.  When the same dataset must answer many queries
(varying rectangle sizes, top-k, circles), use the resident query engine in
:mod:`repro.service` instead -- it snapshots and grid-indexes the dataset
once, serves repeated parameters from an LRU result cache, and prunes the
exact sweep to the contention hot spots for new parameters, without changing
any answer::

    from repro import MaxRSEngine, QuerySpec

    engine = MaxRSEngine()
    dataset = engine.register_dataset(objects)          # ingest + index once
    a = engine.query(dataset, QuerySpec.maxrs(1000.0, 1000.0))
    b = engine.query(dataset, QuerySpec.maxrs(1000.0, 1000.0))  # cache hit
    results = engine.query_batch(dataset, many_specs)   # dedup + thread pool
    print(engine.stats()["cache"]["hit_rate"])

See ``examples/query_service.py`` for a complete walk-through.

For **concurrent** traffic -- many clients, possibly over the network --
wrap the engine in the asyncio serving front-end (:mod:`repro.aio`):
``AsyncMaxRSEngine`` coalesces identical in-flight queries and applies
bounded admission with backpressure, and ``MaxRSServer`` /
``AsyncQueryClient`` speak a JSON-lines TCP protocol with bit-identical
answers; see ``examples/async_service.py``.

The whole stack is observable through :mod:`repro.obs`: per-query traces of
nested spans (admission, cache, grid, plane sweep, blob I/O) that follow a
query across threads, tasks and the TCP wire, a slow-query log, and
Prometheus-style metrics exposition; see ``docs/observability.md`` and
``examples/traced_query.py``.
"""

from repro.core import ExactMaxRS, MaxCRSResult, MaxRegion, MaxRSResult
from repro.em import EMConfig, EMContext
from repro.errors import ReproError
from repro.geometry import Circle, Interval, Point, Rect, WeightedPoint

__version__ = "1.0.0"

__all__ = [
    "Circle",
    "EMConfig",
    "EMContext",
    "ExactMaxRS",
    "Interval",
    "MaxCRSResult",
    "MaxCRSSolver",
    "MaxRSEngine",
    "MaxRSResult",
    "MaxRSSolver",
    "MaxRegion",
    "Point",
    "QuerySpec",
    "Rect",
    "ReproError",
    "WeightedPoint",
    "__version__",
]


def __getattr__(name: str):
    """Lazily expose the high-level solvers and the resident query engine.

    ``MaxRSSolver`` / ``MaxCRSSolver`` live in :mod:`repro.api` and
    ``MaxRSEngine`` / ``QuerySpec`` in :mod:`repro.service`, which pull in
    the circle subsystem and numpy; importing them lazily keeps ``import
    repro`` light and avoids import cycles for code that only needs the core
    types.
    """
    if name in ("MaxRSSolver", "MaxCRSSolver"):
        from repro import api

        return getattr(api, name)
    if name in ("MaxRSEngine", "QuerySpec"):
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
