"""Solver dispatch: one entry point for "solve this point set exactly".

Historically the strategy choice (in-memory plane sweep vs. the external
ExactMaxRS recursion) lived inside :class:`repro.api.MaxRSSolver`; with the
resident query service (:mod:`repro.service`) a second caller needed exactly
the same decision, so it is factored here.  Both the public API façade and
:class:`~repro.service.engine.MaxRSEngine` call these functions, which keeps
the two paths bit-identical by construction:

* :func:`solve_point_set` -- plain MaxRS;
* :func:`solve_point_set_top_k` -- the MaxkRS extension (``k`` best
  vertically-disjoint placements);
* :func:`fits_in_memory` -- the paper's base-case test (``2N <= M`` event
  records), exposed so callers can predict which strategy will run.

The dispatch is controlled by two flags:

``force_external``
    Always run the external-memory algorithm (used by experiments that want
    the I/O accounting even for small inputs).
``force_in_memory``
    Always run the in-memory plane sweep, regardless of the configured buffer
    size.  The resident service uses this: its datasets are memory-resident by
    design, so simulating disk I/O for them would only add cost.

Whichever strategy runs, its sweeps run on the platform's backend
(:func:`repro.core.backends.platform_backend`), the numpy-vectorised sweep.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro import obs
from repro.core import backends
from repro.core.exact_maxrs import (
    ExactMaxRS,
    records_to_strips,
    select_disjoint_strips,
)
from repro.core.plane_sweep import solve_in_memory
from repro.core.result import MaxRSResult
from repro.core.transform import objects_to_event_records
from repro.em.codecs import EVENT_CODEC
from repro.em.config import EMConfig
from repro.em.context import EMContext
from repro.errors import ConfigurationError
from repro.geometry import Interval, WeightedPoint, is_positive_finite

__all__ = ["fits_in_memory", "solve_point_set", "solve_point_set_top_k"]


def fits_in_memory(num_objects: int, config: EMConfig) -> bool:
    """Return whether ``num_objects`` objects take the in-memory fast path.

    Mirrors the base case of Algorithm 2: the sweep needs the ``2N`` event
    records of the dual rectangles to fit in the configured buffer.
    """
    capacity = config.memory_capacity_records(EVENT_CODEC.record_size)
    return 2 * num_objects <= capacity


def solve_point_set(objects: Sequence[WeightedPoint], width: float,
                    height: float, *,
                    config: Optional[EMConfig] = None,
                    force_external: bool = False,
                    force_in_memory: bool = False) -> MaxRSResult:
    """Solve a MaxRS instance, choosing the execution strategy automatically.

    Small inputs (per :func:`fits_in_memory`) are solved by the in-memory
    plane sweep; larger ones by the external-memory ExactMaxRS recursion on a
    fresh :class:`~repro.em.context.EMContext`.

    Raises
    ------
    ConfigurationError
        If the query rectangle is degenerate or both force flags are set.
    """
    config = _check_args(width, height, config, force_external, force_in_memory)
    in_memory = force_in_memory or (not force_external
                                    and fits_in_memory(len(objects), config))
    with obs.span("dispatch.solve", kind="maxrs", objects=len(objects),
                  strategy="in_memory" if in_memory else "external"):
        if in_memory:
            return solve_in_memory(objects, width, height)
        return ExactMaxRS(EMContext(config), width, height).solve(objects)


def solve_point_set_top_k(objects: Sequence[WeightedPoint], width: float,
                          height: float, k: int, *,
                          config: Optional[EMConfig] = None,
                          force_external: bool = False,
                          force_in_memory: bool = False) -> List[MaxRSResult]:
    """Solve a MaxkRS instance (``k`` best vertically-disjoint placements).

    Follows the same strategy choice as :func:`solve_point_set`; the in-memory
    path runs one plane sweep and selects the top strips directly from its
    slab-file, with no simulated I/O.

    Raises
    ------
    ConfigurationError
        If ``k < 1``, the query rectangle is degenerate, or both force flags
        are set.
    """
    if k < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    config = _check_args(width, height, config, force_external, force_in_memory)
    in_memory = force_in_memory or (not force_external
                                    and fits_in_memory(len(objects), config))
    with obs.span("dispatch.solve", kind="maxkrs", objects=len(objects),
                  strategy="in_memory" if in_memory else "external"):
        if in_memory:
            records = objects_to_event_records(objects, width, height)
            backend = backends.platform_backend()
            with obs.span("backend.sweep", backend=backend.name,
                          events=len(records)):
                rows, _ = backend.sweep_slabs(
                    [(records, Interval.full())])[0]
            chosen = select_disjoint_strips(records_to_strips(rows), k)
            results: List[MaxRSResult] = []
            for strip in chosen:
                region = strip.to_region()
                results.append(MaxRSResult(
                    location=region.representative_point(),
                    region=region,
                    total_weight=strip.weight,
                    io=None,
                    recursion_levels=0,
                    leaf_count=1,
                ))
            return results
        return ExactMaxRS(EMContext(config), width,
                          height).solve_topk(objects, k)


def _check_args(width: float, height: float, config: Optional[EMConfig],
                force_external: bool, force_in_memory: bool) -> EMConfig:
    if not is_positive_finite(width, height):
        raise ConfigurationError(
            "query rectangle must have a positive finite extent, "
            f"got {width} x {height}"
        )
    if force_external and force_in_memory:
        raise ConfigurationError(
            "force_external and force_in_memory are mutually exclusive"
        )
    return config if config is not None else EMConfig()
