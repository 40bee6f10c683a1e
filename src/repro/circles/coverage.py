"""Evaluating circle coverage for candidate centres.

The last step of ApproxMaxCRS (Algorithm 3, line 7) picks, among its five
candidate centres, the one whose circle covers the most weight.  The paper
notes this "requires only a single scan of C": all candidates are evaluated
simultaneously while streaming the objects once.  This module provides that
single-scan evaluation both over an in-memory object list and over a
disk-resident object file (where the scan is charged as I/O).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.em.record_file import RecordFile
from repro.errors import ConfigurationError
from repro.geometry import Point, WeightedPoint, is_positive_finite

__all__ = ["coverage_of_candidates", "coverage_of_candidates_file", "best_candidate"]


def coverage_of_candidates(objects: Sequence[WeightedPoint],
                           candidates: Sequence[Point],
                           diameter: float) -> List[float]:
    """Return the covered weight of a circle of ``diameter`` at each candidate.

    One pass over ``objects``; boundary objects are excluded (open disks),
    matching the problem definition.
    """
    if not is_positive_finite(diameter):
        raise ConfigurationError(
            f"diameter must be positive and finite, got {diameter}")
    radius_sq = (diameter / 2.0) ** 2
    totals = [0.0] * len(candidates)
    for obj in objects:
        for index, candidate in enumerate(candidates):
            dx = obj.x - candidate.x
            dy = obj.y - candidate.y
            if dx * dx + dy * dy < radius_sq:
                totals[index] += obj.weight
    return totals


def coverage_of_candidates_file(objects_file: RecordFile,
                                candidates: Sequence[Point],
                                diameter: float) -> List[float]:
    """Single-scan candidate evaluation over a disk-resident object file.

    Reading the file is charged through the buffer pool, so ApproxMaxCRS's
    final step costs exactly one linear pass of I/O regardless of how many
    candidates are evaluated.

    The scan tests a whole block against every candidate at once, with one
    ``pool.get`` per block in file order.  Each total still adds its covered
    weights one at a time in file order (``np.add.accumulate`` is
    sequential, adding ``0.0`` for an uncovered object leaves a total as it
    is, and no total is ever ``-0.0``), so the totals are those of
    :func:`coverage_of_candidates`' loop over the same objects, bit for bit.
    """
    if not is_positive_finite(diameter):
        raise ConfigurationError(
            f"diameter must be positive and finite, got {diameter}")
    radius_sq = (diameter / 2.0) ** 2
    centre_x = np.array([candidate.x for candidate in candidates])
    centre_y = np.array([candidate.y for candidate in candidates])
    totals = np.zeros((1, len(candidates)))
    # inf - inf and 1e300 * 1e300 stay as quiet as in a loop over floats.
    with np.errstate(invalid="ignore", over="ignore"):
        for block in objects_file.iter_block_arrays():   # (x, y, weight)
            dx = block[:, :1] - centre_x
            dy = block[:, 1:2] - centre_y
            covered = np.where(dx * dx + dy * dy < radius_sq,
                               block[:, 2:], 0.0)
            totals = np.add.accumulate(
                np.concatenate((totals, covered)))[-1:]
    return totals[0].tolist()


def best_candidate(candidates: Sequence[Point],
                   weights: Sequence[float]) -> Tuple[Point, float, int]:
    """Return ``(point, weight, index)`` of the best candidate.

    Ties are broken in favour of the earliest candidate, so ``p0`` (the
    rectangle optimum's centre) wins ties against the shifted points.
    """
    if not candidates or len(candidates) != len(weights):
        raise ConfigurationError("candidates and weights must be non-empty and aligned")
    best_index = 0
    for index in range(1, len(candidates)):
        if weights[index] > weights[best_index]:
            best_index = index
    return candidates[best_index], weights[best_index], best_index
