"""High-level, batteries-included entry points.

The classes here wrap the lower-level machinery (external-memory context
creation, dataset loading, algorithm selection) behind two small façades:

* :class:`MaxRSSolver` -- solve MaxRS with ExactMaxRS (or purely in memory for
  small inputs);
* :class:`MaxCRSSolver` -- solve MaxCRS with ApproxMaxCRS, optionally also
  computing the exact optimum for accuracy reporting.

They are what the examples and most downstream users should call; research
code that needs to control the EM environment precisely (the experiment
harness, the benchmarks) uses :mod:`repro.core`, :mod:`repro.baselines` and
:mod:`repro.circles` directly.

Both façades are *one-shot*: every ``solve`` call re-ingests the point set
(:meth:`MaxRSSolver.from_snapshot` can at least source it from a durable
:mod:`repro.persist` snapshot instead of a caller-held list).
For the serve-many-queries workload -- one dataset, many rectangle sizes --
use the engine-backed path instead: :func:`solve_many` here for a one-liner,
or :class:`repro.service.MaxRSEngine` directly for full control (result
caching, batching, statistics).  Both one-shot and engine paths funnel into
the same strategy dispatch (:mod:`repro.core.dispatch`), so they return
identical answers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.circles.approx_maxcrs import ApproxMaxCRS
from repro.circles.exact_maxcrs import exact_maxcrs
from repro.core.dispatch import solve_point_set, solve_point_set_top_k
from repro.core.result import MaxCRSResult, MaxRSResult
from repro.em.config import EMConfig
from repro.em.context import EMContext
from repro.errors import ConfigurationError
from repro.geometry import WeightedPoint, is_positive_finite

__all__ = ["MaxRSSolver", "MaxCRSSolver", "solve_many"]


class MaxRSSolver:
    """Solve MaxRS instances: where should a ``width x height`` rectangle go?

    Parameters
    ----------
    width, height:
        The query rectangle size ``d1 x d2``.
    config:
        Optional external-memory configuration.  When omitted the paper's
        defaults (4 KB blocks, 1 MB buffer) are used.
    force_external:
        Always run the external-memory algorithm, even for datasets that fit
        in the configured memory.  By default small inputs take the in-memory
        plane-sweep fast path, exactly as Algorithm 2 does.

    Every sweep runs on the platform's numpy backend
    (:func:`~repro.core.backends.platform_backend`), which returns the
    pure-Python reference's answers.

    Examples
    --------
    >>> solver = MaxRSSolver(width=4.0, height=4.0)
    >>> objs = [WeightedPoint(0, 0), WeightedPoint(1, 1), WeightedPoint(50, 50)]
    >>> solver.solve(objs).total_weight
    2.0
    """

    def __init__(self, width: float, height: float, *,
                 config: Optional[EMConfig] = None,
                 force_external: bool = False) -> None:
        if not is_positive_finite(width, height):
            raise ConfigurationError(
                "query rectangle must have a positive finite extent, "
                f"got {width} x {height}"
            )
        self.width = width
        self.height = height
        self.config = config if config is not None else EMConfig()
        self.force_external = force_external
        self._objects: Optional[List[WeightedPoint]] = None

    @classmethod
    def from_snapshot(cls, persist_dir, dataset_id: str, *,
                      width: float, height: float,
                      config: Optional[EMConfig] = None,
                      persist_config: Optional[EMConfig] = None,
                      force_external: bool = False) -> "MaxRSSolver":
        """Build a solver pre-loaded with a persisted dataset snapshot.

        Reads ``dataset_id`` from the :mod:`repro.persist` snapshot store at
        ``persist_dir`` (fingerprint-verified, block-accounted) and returns a
        solver whose :meth:`solve` / :meth:`solve_top_k` can then be called
        with no arguments.  This is the one-shot sibling of
        ``MaxRSEngine(persist_dir=...)``: no resident engine, no cache --
        just "solve this query over that saved dataset".

        ``config`` controls the *solve's* EM environment, as everywhere else;
        ``persist_config`` is the snapshot store's (block size of the saved
        blobs, the paper's 4 KB default) -- they are deliberately separate,
        mirroring the engine's ``persist_config``, so experimenting with
        solver block sizes never rejects a valid snapshot.

        Raises
        ------
        PersistError
            If the dataset is not in the catalog or its snapshot is corrupt.
        """
        from repro.persist import SnapshotStore

        store = SnapshotStore(persist_dir, config=persist_config)
        loaded = store.load_dataset(dataset_id)
        solver = cls(width=width, height=height, config=config,
                     force_external=force_external)
        solver._objects = loaded.objects()
        return solver

    def _resolve_objects(
            self, objects: Optional[Sequence[WeightedPoint]]
    ) -> Sequence[WeightedPoint]:
        if objects is not None:
            return objects
        if self._objects is None:
            raise ConfigurationError(
                "no point set: pass objects explicitly or build the solver "
                "with MaxRSSolver.from_snapshot(...)"
            )
        return self._objects

    def solve(self, objects: Optional[Sequence[WeightedPoint]] = None) -> MaxRSResult:
        """Return the optimal placement of the query rectangle over ``objects``.

        ``objects`` may be omitted for a solver built via
        :meth:`from_snapshot`, which solves over the loaded snapshot.
        """
        return solve_point_set(self._resolve_objects(objects),
                               self.width, self.height,
                               config=self.config,
                               force_external=self.force_external)

    def solve_top_k(self, objects: Optional[Sequence[WeightedPoint]] = None,
                    k: int = 1) -> List[MaxRSResult]:
        """Return the ``k`` best vertically-disjoint placements (MaxkRS).

        Follows the same strategy contract as :meth:`solve`: small inputs are
        answered by the in-memory sweep, large ones (or ``force_external``)
        by the external-memory recursion.  As with :meth:`solve`, ``objects``
        may be omitted for a snapshot-loaded solver.

        Raises
        ------
        ConfigurationError
            If ``k < 1``.
        """
        # Catch solve_top_k(3) on a snapshot-loaded solver early: the 3 binds
        # to ``objects``, not ``k``, and would otherwise surface as a cryptic
        # TypeError deep inside the dispatch.
        if isinstance(objects, int):
            raise ConfigurationError(
                f"objects must be a sequence of WeightedPoint, got the int "
                f"{objects}; on a snapshot-loaded solver pass k by keyword, "
                "e.g. solve_top_k(k=3)"
            )
        if k < 1:
            raise ConfigurationError(f"k must be at least 1, got {k}")
        return solve_point_set_top_k(self._resolve_objects(objects),
                                     self.width, self.height, k,
                                     config=self.config,
                                     force_external=self.force_external)


class MaxCRSSolver:
    """Solve MaxCRS instances: where should a circle of a given diameter go?

    Uses ApproxMaxCRS (the paper's (1/4)-approximation); optionally also runs
    the exact solver (:func:`~repro.circles.exact_maxcrs.exact_maxcrs`) to
    report the achieved approximation ratio, which is what the paper's
    Figure 17 measures.

    Parameters
    ----------
    diameter:
        The circle diameter ``d``.
    config:
        Optional external-memory configuration (defaults to the paper's).
    sigma:
        Optional shift distance for the four extra candidates (defaults to
        ``sqrt(2) d / 4``).
    """

    def __init__(self, diameter: float, *, config: Optional[EMConfig] = None,
                 sigma: Optional[float] = None) -> None:
        if not is_positive_finite(diameter):
            raise ConfigurationError(
                f"diameter must be positive and finite, got {diameter}")
        self.diameter = diameter
        self.config = config if config is not None else EMConfig()
        self.sigma = sigma

    def solve(self, objects: Sequence[WeightedPoint]) -> MaxCRSResult:
        """Return the (approximately) optimal circle placement over ``objects``."""
        ctx = EMContext(self.config)
        solver = ApproxMaxCRS(ctx, self.diameter, sigma=self.sigma)
        return solver.solve(objects)

    def solve_with_ratio(self, objects: Sequence[WeightedPoint]
                         ) -> tuple[MaxCRSResult, float]:
        """Solve approximately and report the achieved approximation ratio.

        Returns ``(result, ratio)`` where ``ratio = W(c_hat) / W(c*)`` (1.0
        for empty datasets).  The exact solver costs ``O(n + P log P)`` for
        the ``P`` pairs of objects closer than the diameter: fast on sparse
        inputs, quadratic when most objects lie within one diameter of each
        other.  Empty inputs short-circuit before the exact solver is
        invoked at all.
        """
        result = self.solve(objects)
        if not objects:
            return result, 1.0
        _, optimum = exact_maxcrs(objects, self.diameter)
        if optimum <= 0:
            return result, 1.0
        return result, min(1.0, result.total_weight / optimum)


def solve_many(objects: Sequence[WeightedPoint],
               sizes: Sequence[Tuple[float, float]], *,
               refine: bool = True,
               engine: Optional["object"] = None) -> List[MaxRSResult]:
    """Answer many MaxRS queries over one dataset via the resident engine.

    This is the engine-backed counterpart of calling
    ``MaxRSSolver(w, h).solve(objects)`` once per ``(w, h)`` in ``sizes``: the
    dataset is ingested and indexed **once**, repeated sizes are served from
    the result cache, and distinct sizes are answered from the pruned exact
    sweep (see :mod:`repro.service`).  With ``refine=True`` (default) the
    answers are identical to the one-shot in-memory solver's.

    Parameters
    ----------
    objects:
        The dataset, ingested once.
    sizes:
        The ``(width, height)`` of every query, in answer order.
    refine:
        ``False`` trades exactness for speed (grid-window approximation).
    engine:
        An existing :class:`~repro.service.MaxRSEngine` to reuse (so its
        cache and indexes persist across calls); a private one is created
        when omitted.
    """
    from repro.service.engine import MaxRSEngine, QuerySpec

    if engine is None:
        engine = MaxRSEngine()
    handle = engine.register_dataset(objects)
    specs = [QuerySpec.maxrs(width, height, refine=refine)
             for width, height in sizes]
    return engine.query_batch(handle, specs)
