"""External-memory cases shared by the tests of the solvers and passes.

* :data:`IO_PINS` -- the exact (block reads, block writes) of ExactMaxRS,
  ApproxMaxCRS and the two baselines on three small configurations: the
  literal counts of the block passes, which are those of the
  record-at-a-time references in ``tests/record_passes.py``, so any pass
  that reorders its reads and writes (and with them the buffer pool's
  hits) shows here.
* :func:`check_against_in_memory` -- ExactMaxRS must report
  :func:`~repro.core.plane_sweep.solve_in_memory`'s region and weight.
* :func:`use_record_paths` and :func:`pool_state` -- the tests' switch to
  the record-at-a-time references in whole solves, and what a pass leaves
  behind.
"""

from __future__ import annotations

import importlib
import math
import random
from typing import Dict, List, Tuple

import record_passes
from repro.baselines.asb_tree import ASBTreeSweep
from repro.baselines.naive_sweep import NaivePlaneSweep
from repro.circles.approx_maxcrs import ApproxMaxCRS
from repro.core import ExactMaxRS, solve_in_memory
from repro.em import EMConfig, EMContext
from repro.geometry import WeightedPoint

#: (block reads, block writes) per (configuration, solver).
#:
#: * A: 2,000 objects uniform on [0, 1000)^2 (``random.Random(18)``),
#:   weights 1-3, a 40 x 40 window, 512 B blocks and a 4 KB buffer: a
#:   multi-run sort with two merge levels and four recursion levels;
#: * B: A's first 200 objects, 256 B blocks, a 2 KB buffer, ``fanout=4``
#:   and ``memory_records=16``;
#: * C: 200 objects uniform on [0, 100)^2 (``random.Random(3)``), weight 1,
#:   a 10 x 10 window, B's setup; a partition re-reads two blocks its edge
#:   scan left in the pool.
#:
#: The baselines run with ``simulate_io=True``.
IO_PINS: Dict[Tuple[str, str], Tuple[int, int]] = {
    ("A", "exact"): (6743, 5481),
    ("A", "approx"): (6839, 5481),
    ("A", "naive"): (18127, 18031),
    ("A", "asb"): (12868, 12878),
    ("B", "exact"): (1115, 977),
    ("B", "naive"): (785, 765),
    ("B", "asb"): (1182, 1187),
    ("C", "exact"): (1308, 1098),
}


def _objects_a() -> List[WeightedPoint]:
    rng = random.Random(18)
    return [WeightedPoint(rng.uniform(0, 1000), rng.uniform(0, 1000),
                          float(rng.randint(1, 3))) for _ in range(2000)]


def _objects_c() -> List[WeightedPoint]:
    rng = random.Random(3)
    return [WeightedPoint(rng.uniform(0, 100), rng.uniform(0, 100), 1.0)
            for _ in range(200)]


def measure_io() -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Run every pinned solve on a fresh context; the keys of
    :data:`IO_PINS` to their (block reads, block writes)."""
    a = _objects_a()
    config_a = EMConfig(block_size=512, buffer_size=4096)
    config_b = EMConfig(block_size=256, buffer_size=2048)

    def ctx(config):
        return EMContext(config)

    def small(config, width):
        return ExactMaxRS(ctx(config), width, width, fanout=4,
                          memory_records=16)

    solves = {
        ("A", "exact"): lambda: ExactMaxRS(ctx(config_a), 40.0, 40.0).solve(a),
        ("A", "approx"): lambda: ApproxMaxCRS(ctx(config_a), 40.0).solve(a),
        ("A", "naive"): lambda: NaivePlaneSweep(
            ctx(config_a), 40.0, 40.0, simulate_io=True).solve(a),
        ("A", "asb"): lambda: ASBTreeSweep(
            ctx(config_a), 40.0, 40.0, simulate_io=True).solve(a),
        ("B", "exact"): lambda: small(config_b, 40.0).solve(a[:200]),
        ("B", "naive"): lambda: NaivePlaneSweep(
            ctx(config_b), 40.0, 40.0, simulate_io=True).solve(a[:200]),
        ("B", "asb"): lambda: ASBTreeSweep(
            ctx(config_b), 40.0, 40.0, simulate_io=True).solve(a[:200]),
        ("C", "exact"): lambda: small(config_b, 10.0).solve(_objects_c()),
    }
    measured = {}
    for key, solve in solves.items():
        io = solve().io
        measured[key] = (io.block_reads, io.block_writes)
    return measured


#: x-coordinates off the lattice: an object there has a dual rectangle
#: whose x-range clips away (x +- w/2 rounds to x, or is infinite).
SPECIAL_XS = (math.inf, -math.inf, 1e300, -1e300)


def check_against_in_memory(objects: List[WeightedPoint], width: float,
                            height: float, block_size: int, fanout: int,
                            memory_records: int) -> None:
    """ExactMaxRS on a tiny EM configuration reports the in-memory
    sweep's region and weight."""
    ctx = EMContext(EMConfig(block_size=block_size,
                             buffer_size=4 * block_size))
    result = ExactMaxRS(ctx, width, height, fanout=fanout,
                        memory_records=memory_records).solve(objects)
    reference = solve_in_memory(objects, width, height)
    assert (result.region, result.total_weight) == \
        (reference.region, reference.total_weight), (objects, width, height)


#: The solver modules and the passes each one looks up by name.
_PASS_USERS = {
    "repro.core.exact_maxrs": (
        "objects_file_to_event_file", "external_sort", "collect_edge_xs",
        "choose_boundaries", "partition_event_file", "merge_sweep"),
    "repro.baselines.naive_sweep": (
        "objects_file_to_event_file", "external_sort"),
    "repro.baselines.asb_tree": (
        "objects_file_to_event_file", "external_sort"),
    "repro.circles.approx_maxcrs": ("coverage_of_candidates_file",),
}


def use_record_paths(patch) -> None:
    """Run every solver on the record-at-a-time references of its
    external-memory passes (``tests/record_passes.py``), so a test can
    compare whole solves on both.  ``patch`` is a ``pytest.MonkeyPatch``.
    """
    for module_name, passes in _PASS_USERS.items():
        module = importlib.import_module(module_name)
        for name in passes:
            patch.setattr(module, name, getattr(record_passes, name))


def pool_state(ctx: EMContext):
    """Block reads, block writes, pool hits and the resident blocks in LRU
    order: everything a pass leaves behind that decides later I/O."""
    return (ctx.stats.block_reads, ctx.stats.block_writes,
            ctx.stats.cache_hits, tuple(ctx.pool._frames))
