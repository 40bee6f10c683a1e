"""MaxCRS: the circular variant of the range-sum maximisation problem.

* :class:`~repro.circles.approx_maxcrs.ApproxMaxCRS` -- the paper's
  (1/4)-approximation algorithm (Algorithm 3), built on top of ExactMaxRS.
* :mod:`repro.circles.shifting` -- the shifted candidate points of Figure 9
  and the admissible shift-distance interval of Lemma 5.
* :mod:`repro.circles.coverage` -- single-scan evaluation of candidate circle
  centres (in memory or over a disk-resident dataset).
* :mod:`repro.circles.exact_maxcrs` -- the classical exact solver (the
  angular sweep over circle intersections, every circle in one vectorised
  pass): the accuracy yardstick of the Figure 17 experiment and the resident
  engine's exact MaxCRS solver.
"""

from repro.circles.approx_maxcrs import ApproxMaxCRS
from repro.circles.coverage import (
    best_candidate,
    coverage_of_candidates,
    coverage_of_candidates_file,
)
from repro.circles.exact_maxcrs import exact_maxcrs
from repro.circles.shifting import (
    candidate_points,
    default_shift_distance,
    shift_distance_bounds,
    shifted_points,
)

__all__ = [
    "ApproxMaxCRS",
    "best_candidate",
    "candidate_points",
    "coverage_of_candidates",
    "coverage_of_candidates_file",
    "default_shift_distance",
    "exact_maxcrs",
    "shift_distance_bounds",
    "shifted_points",
]
