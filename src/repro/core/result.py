"""Result types returned by the MaxRS / MaxCRS solvers.

A MaxRS answer is more than a single point: the set of optimal centres forms a
region (the *max-region* of the transformed problem, Definition 4).  The
solvers therefore report the full region together with one representative
optimal location, the achieved weight, and -- because the whole point of the
paper is I/O behaviour -- the number of block transfers the computation cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.em.counters import IOSnapshot
from repro.geometry import Point, Rect

__all__ = ["MaxRegion", "MaxRSResult", "MaxCRSResult"]


@dataclass(frozen=True, slots=True)
class MaxRegion:
    """A region of optimal rectangle centres and the weight achieved there.

    The region may be unbounded (e.g. an empty dataset makes every placement
    optimal with weight zero), so the bounds are plain floats that may be
    infinite rather than a :class:`~repro.geometry.Rect`.
    """

    x1: float
    y1: float
    x2: float
    y2: float
    weight: float

    @property
    def is_bounded(self) -> bool:
        """``True`` when all four region bounds are finite."""
        return all(math.isfinite(v) for v in (self.x1, self.y1, self.x2, self.y2))

    def as_rect(self) -> Rect:
        """Return the region as a :class:`~repro.geometry.Rect`.

        Infinite bounds are preserved; callers that need a drawable rectangle
        should first check :attr:`is_bounded`.
        """
        return Rect(self.x1, self.y1, self.x2, self.y2)

    def representative_point(self) -> Point:
        """Return one optimal location inside the region.

        The centre is used when the region is bounded; for unbounded regions a
        finite coordinate is chosen on each axis (the midpoint of the finite
        part, or 0 when both bounds are infinite).
        """
        return Point(_finite_mid(self.x1, self.x2), _finite_mid(self.y1, self.y2))


def _finite_mid(lo: float, hi: float) -> float:
    """Return a finite representative coordinate of the range ``[lo, hi]``."""
    lo_finite = math.isfinite(lo)
    hi_finite = math.isfinite(hi)
    if lo_finite and hi_finite:
        return (lo + hi) / 2.0
    if lo_finite:
        return lo
    if hi_finite:
        return hi
    return 0.0


@dataclass(frozen=True, slots=True)
class MaxRSResult:
    """The answer to a MaxRS instance.

    Attributes
    ----------
    location:
        One optimal centre for the query rectangle.
    region:
        The full max-region (every point of it is an optimal centre).
    total_weight:
        The maximal covered weight (the objective value).
    io:
        Block transfers performed by the computation, or ``None`` when the
        solver ran purely in memory.
    recursion_levels:
        Depth of the ExactMaxRS recursion (0 when the input fit in memory).
    leaf_count:
        Number of leaf sub-problems solved by the in-memory plane sweep.
    gap:
        Certified relative optimality gap of a bounded-error answer: the true
        optimum is at most ``total_weight * (1 + gap)``.  ``0.0`` when the
        bounded-error path happened to finish exactly; ``None`` for answers
        from the exact path.
    cost:
        Per-query cost ledger attached by the serving engine
        (:meth:`repro.service.MaxRSEngine.query`): a plain JSON-ready dict of
        what answering cost -- wall/CPU seconds, swept vs pruned points,
        the bounded-error certificate, cache outcome, sweeps, block I/O.
        ``None`` for answers from the bare solvers.  Excluded from equality
        so ledger-carrying answers compare bit-identical to plain ones.
    """

    location: Point
    region: MaxRegion
    total_weight: float
    io: Optional[IOSnapshot] = None
    recursion_levels: int = 0
    leaf_count: int = 1
    gap: Optional[float] = None
    cost: Optional[dict] = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class MaxCRSResult:
    """The answer to a MaxCRS instance produced by ApproxMaxCRS.

    Attributes
    ----------
    location:
        The chosen circle centre (the best of the five candidate points).
    total_weight:
        The weight covered by the circle centred at :attr:`location`.
    candidates:
        The five candidate centres that were evaluated (p0 plus the four
        shifted points), in evaluation order.
    candidate_weights:
        The covered weight at each candidate, aligned with :attr:`candidates`.
    rectangle_result:
        The underlying ExactMaxRS answer on the MBRs, kept for diagnostics.
    io:
        Block transfers performed by the whole computation, or ``None``.
    gap:
        Certified relative optimality gap of a bounded-error answer (relative
        to the best *rectangle* weight the circle heuristic starts from), or
        ``None`` for answers from the exact path.
    cost:
        Per-query cost ledger attached by the serving engine (see
        :class:`MaxRSResult`); ``None`` for answers from the bare solvers.
        Excluded from equality.
    """

    location: Point
    total_weight: float
    candidates: tuple = field(default_factory=tuple)
    candidate_weights: tuple = field(default_factory=tuple)
    rectangle_result: Optional[MaxRSResult] = None
    io: Optional[IOSnapshot] = None
    gap: Optional[float] = None
    cost: Optional[dict] = field(default=None, compare=False)
