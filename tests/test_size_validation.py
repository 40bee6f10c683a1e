"""Every one-shot entry point rejects NaN, infinite and non-positive sizes.

A plain ``size <= 0`` test lets NaN through.  Before the shared
``0 < size < inf`` rule (:func:`repro.geometry.is_positive_finite`), a NaN
diameter made ``exact_maxcrs`` answer a weight, the MaxRS entry points
answered weight 0.0, and ``MaxCRSSolver``, ``ApproxMaxCRS`` and
``ExactMaxRS`` never returned.  Each entry point keeps its own exception
type.
"""

import math

import numpy as np
import pytest

from repro import MaxCRSSolver, MaxRSSolver
from repro.baselines.asb_tree import ASBTreeSweep
from repro.baselines.naive_sweep import NaivePlaneSweep
from repro.circles import (
    ApproxMaxCRS,
    coverage_of_candidates,
    exact_maxcrs,
    shift_distance_bounds,
)
from repro.core import ExactMaxRS
from repro.core.dispatch import solve_point_set, solve_point_set_top_k
from repro.core.plane_sweep import solve_columns, solve_in_memory
from repro.core.transform import (
    build_event_file,
    columns_to_event_array,
    dual_rectangle,
    objects_file_to_event_file,
    objects_to_event_records,
    write_objects_file,
)
from repro.em import EMContext
from repro.errors import ConfigurationError, GeometryError
from repro.geometry import Point, WeightedPoint, is_positive_finite
from repro.service import QuerySpec
from repro.service.grid_index import GridIndex

POINTS = [WeightedPoint(0.0, 0.0), WeightedPoint(1.0, 0.0),
          WeightedPoint(0.5, 0.5)]
COLUMNS = tuple(np.array(column, dtype=np.float64) for column in
                zip(*((p.x, p.y, p.weight) for p in POINTS)))
BAD_SIZES = [math.nan, math.inf, -math.inf, 0.0]


def _objects_file():
    return write_objects_file(EMContext(), POINTS)


def _grid():
    return GridIndex(*COLUMNS)


#: (name, exception, call with the size under test) per entry point.
ENTRY_POINTS = [
    ("exact_maxcrs", ConfigurationError, lambda s: exact_maxcrs(POINTS, s)),
    ("ApproxMaxCRS", ConfigurationError,
     lambda s: ApproxMaxCRS(EMContext(), s).solve(POINTS)),
    ("MaxCRSSolver", ConfigurationError,
     lambda s: MaxCRSSolver(s).solve(POINTS)),
    ("MaxRSSolver.width", ConfigurationError,
     lambda s: MaxRSSolver(s, 1.0).solve(POINTS)),
    ("MaxRSSolver.height", ConfigurationError,
     lambda s: MaxRSSolver(1.0, s).solve(POINTS)),
    ("ExactMaxRS", ConfigurationError,
     lambda s: ExactMaxRS(EMContext(), 1.0, s).solve(POINTS)),
    ("solve_point_set", ConfigurationError,
     lambda s: solve_point_set(POINTS, s, 1.0)),
    ("solve_point_set_top_k", ConfigurationError,
     lambda s: solve_point_set_top_k(POINTS, 1.0, s, 2)),
    ("solve_in_memory", GeometryError,
     lambda s: solve_in_memory(POINTS, s, 1.0)),
    ("solve_columns", GeometryError,
     lambda s: solve_columns(*COLUMNS, 1.0, s)),
    ("dual_rectangle", GeometryError,
     lambda s: dual_rectangle(POINTS[0], s, 1.0)),
    ("objects_to_event_records", GeometryError,
     lambda s: objects_to_event_records(POINTS, 1.0, s)),
    ("columns_to_event_array", GeometryError,
     lambda s: columns_to_event_array(*COLUMNS, s, 1.0)),
    ("build_event_file", GeometryError,
     lambda s: build_event_file(EMContext(), POINTS, s, 1.0)),
    ("objects_file_to_event_file", GeometryError,
     lambda s: objects_file_to_event_file(EMContext(), _objects_file(),
                                          1.0, s)),
    ("coverage_of_candidates", ConfigurationError,
     lambda s: coverage_of_candidates(POINTS, [Point(0.0, 0.0)], s)),
    ("shift_distance_bounds", ConfigurationError,
     lambda s: shift_distance_bounds(s)),
    ("NaivePlaneSweep", ConfigurationError,
     lambda s: NaivePlaneSweep(EMContext(), s, 1.0)),
    ("ASBTreeSweep", ConfigurationError,
     lambda s: ASBTreeSweep(EMContext(), 1.0, s)),
    ("GridIndex.halo", ConfigurationError, lambda s: _grid().halo(s, 1.0)),
    ("QuerySpec.maxrs", ConfigurationError,
     lambda s: QuerySpec.maxrs(1.0, s)),
    ("QuerySpec.maxcrs", ConfigurationError, lambda s: QuerySpec.maxcrs(s)),
]


@pytest.mark.parametrize("size", BAD_SIZES, ids=str)
@pytest.mark.parametrize("error, call", [entry[1:] for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_point_rejects_size(error, call, size):
    with pytest.raises(error):
        call(size)


@pytest.mark.parametrize("name, call", [(entry[0], entry[2])
                                        for entry in ENTRY_POINTS],
                         ids=[entry[0] for entry in ENTRY_POINTS])
def test_entry_point_accepts_a_valid_size(name, call):
    call(1.0)


def test_rule():
    assert is_positive_finite(1e-300, 1.0, 1e300)
    for size in BAD_SIZES + [-1.0]:
        assert not is_positive_finite(size)
        assert not is_positive_finite(1.0, size)
