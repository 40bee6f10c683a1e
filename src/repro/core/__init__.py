"""The paper's primary contribution: the ExactMaxRS machinery.

Layout of the package (bottom-up):

* :mod:`repro.core.transform` -- the dual transformation from objects to
  query-sized rectangles (Section 4), written as the sweep-event records
  (:data:`repro.em.codecs.EVENT_CODEC`) used throughout the recursion.
* :mod:`repro.core.segment_tree` -- the lazy max/argmax segment tree shared by
  the plane sweep and MergeSweep.
* :mod:`repro.core.plane_sweep` -- the in-memory plane sweep, both the base
  case of the recursion and the exact reference solver.
* :mod:`repro.core.backends` -- the two implementations of that sweep: the
  pure-Python reference tree and a numpy-vectorised one, which every solve
  runs on.
* :mod:`repro.core.slab` -- slabs, boundary selection and the division phase.
* :mod:`repro.core.slabfile` -- slab-files of max-interval tuples
  (Definition 6).
* :mod:`repro.core.merge_sweep` -- Algorithm 1 (MergeSweep).
* :mod:`repro.core.exact_maxrs` -- Algorithm 2 (ExactMaxRS), the public
  external-memory solver, plus the MaxkRS extension.
* :mod:`repro.core.result` -- result value objects.
"""

from repro.core.backends import (
    SweepBackend,
    available_backends,
    get_backend,
)
from repro.core.beststrip import BestStrip, BestStripTracker
from repro.core.dispatch import (
    fits_in_memory,
    solve_point_set,
    solve_point_set_top_k,
)
from repro.core.exact_maxrs import (
    ExactMaxRS,
    records_to_strips,
    select_disjoint_strips,
)
from repro.core.merge_sweep import merge_sweep
from repro.core.plane_sweep import solve_in_memory, sweep_events
from repro.core.result import MaxCRSResult, MaxRegion, MaxRSResult
from repro.core.segment_tree import MaxAddSegmentTree
from repro.core.slab import (
    Slab,
    choose_boundaries,
    collect_edge_xs,
    make_subslabs,
    partition_event_file,
)
from repro.core.slabfile import validate_slab_file_records, write_slab_file
from repro.core.transform import (
    build_event_file,
    dual_rectangle,
    dual_rectangles,
    objects_file_to_event_file,
    objects_to_event_records,
    write_objects_file,
)

__all__ = [
    "BestStrip",
    "BestStripTracker",
    "ExactMaxRS",
    "SweepBackend",
    "available_backends",
    "get_backend",
    "MaxAddSegmentTree",
    "MaxCRSResult",
    "MaxRSResult",
    "MaxRegion",
    "Slab",
    "build_event_file",
    "choose_boundaries",
    "collect_edge_xs",
    "dual_rectangle",
    "dual_rectangles",
    "fits_in_memory",
    "make_subslabs",
    "merge_sweep",
    "objects_file_to_event_file",
    "objects_to_event_records",
    "partition_event_file",
    "records_to_strips",
    "select_disjoint_strips",
    "solve_in_memory",
    "solve_point_set",
    "solve_point_set_top_k",
    "sweep_events",
    "validate_slab_file_records",
    "write_objects_file",
    "write_slab_file",
]
