"""ApproxMaxCRS -- Algorithm 3 of the paper.

The MaxCRS problem (place a circle of diameter ``d`` to maximise the covered
weight) is 3SUM-hard to solve exactly in subquadratic time, so the paper
reduces it to MaxRS:

1. each transformed circle is replaced by its minimum bounding rectangle -- a
   ``d x d`` square centred at the object -- and ExactMaxRS is run on those
   squares (equivalently: MaxRS with a ``d x d`` query rectangle on the same
   objects);
2. the centre ``p0`` of the resulting max-region, together with four points
   shifted diagonally by ``sigma`` (:mod:`repro.circles.shifting`), are
   evaluated as circle centres with one scan of the dataset;
3. the best of the five candidates is returned.

Theorem 3 proves the returned circle covers at least ``1/4`` of the optimal
weight for any admissible ``sigma``; Theorem 4 shows the bound is tight for
this algorithm.  Empirically (Figure 17) the ratio is far better -- usually
above 0.8 -- which the experiment harness reproduces by comparing against the
exact solver in :mod:`repro.circles.exact_maxcrs`.

The I/O cost is that of ExactMaxRS plus one linear scan, hence still
``O((N/B) log_{M/B}(N/B))``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.circles.coverage import best_candidate, coverage_of_candidates_file
from repro.circles.shifting import candidate_points
from repro.core.exact_maxrs import ExactMaxRS
from repro.core.result import MaxCRSResult
from repro.core.transform import write_objects_file
from repro.em.context import EMContext
from repro.em.record_file import RecordFile
from repro.errors import ConfigurationError
from repro.geometry import WeightedPoint, is_positive_finite

__all__ = ["ApproxMaxCRS"]


class ApproxMaxCRS:
    """(1/4)-approximate external-memory solver for the MaxCRS problem.

    Parameters
    ----------
    ctx:
        External-memory context (shared with the underlying ExactMaxRS run).
    diameter:
        The circle diameter ``d``.
    sigma:
        Shift distance for the four extra candidates; defaults to
        ``sqrt(2) d / 4`` (see :mod:`repro.circles.shifting`).  Must lie in
        Lemma 5's open interval for the approximation bound to hold.
    fanout, memory_records:
        Forwarded to :class:`~repro.core.exact_maxrs.ExactMaxRS`; tests use
        them to force external recursions on small datasets.

    Examples
    --------
    >>> from repro.em import EMContext
    >>> objs = [WeightedPoint(0, 0), WeightedPoint(0.4, 0.3), WeightedPoint(8, 8)]
    >>> result = ApproxMaxCRS(EMContext(), diameter=2.0).solve(objs)
    >>> result.total_weight >= 2.0 / 4.0
    True
    """

    def __init__(self, ctx: EMContext, diameter: float, *,
                 sigma: Optional[float] = None,
                 fanout: Optional[int] = None,
                 memory_records: Optional[int] = None) -> None:
        if not is_positive_finite(diameter):
            raise ConfigurationError(
                f"diameter must be positive and finite, got {diameter}")
        self.ctx = ctx
        self.diameter = diameter
        self.sigma = sigma
        self._maxrs = ExactMaxRS(ctx, diameter, diameter,
                                 fanout=fanout, memory_records=memory_records)

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def solve(self, objects: Sequence[WeightedPoint]) -> MaxCRSResult:
        """Solve MaxCRS (approximately) for an in-memory list of objects."""
        objects_file = write_objects_file(self.ctx, objects, name="maxcrs-objects")
        try:
            return self.solve_objects_file(objects_file)
        finally:
            objects_file.delete()

    def solve_objects_file(self, objects_file: RecordFile) -> MaxCRSResult:
        """Solve MaxCRS (approximately) for a disk-resident dataset."""
        start = self.ctx.stats.snapshot()

        # Step 1: MaxRS over the d x d MBRs of the transformed circles.  The
        # MBR of the circle centred at an object *is* the d x d dual rectangle
        # of that object, so this is exactly ExactMaxRS with a square query.
        rect_result = self._maxrs.solve_objects_file(objects_file)

        # Step 2: candidate centres -- the max-region's centre plus the four
        # shifted points of Figure 9.
        p0 = rect_result.location
        candidates = candidate_points(p0, self.diameter, self.sigma)

        # Step 3: one scan of the dataset evaluates all candidates at once.
        weights = coverage_of_candidates_file(objects_file, candidates, self.diameter)
        chosen, chosen_weight, _ = best_candidate(candidates, weights)

        io = self.ctx.io_since(start)
        return MaxCRSResult(
            location=chosen,
            total_weight=chosen_weight,
            candidates=tuple(candidates),
            candidate_weights=tuple(weights),
            rectangle_result=rect_result,
            io=io,
        )
