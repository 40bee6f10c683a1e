"""End-to-end integration tests across subsystems.

These tests wire together the dataset generators, the external-memory
substrate, the three MaxRS algorithms and the circle algorithms exactly the
way the experiment harness does, and check the paper's headline claims on
small (but externally processed) workloads:

* every algorithm returns the same optimum (Theorem 1 -- correctness);
* ExactMaxRS transfers fewer blocks than both baselines, and the gap widens
  with the dataset (Theorem 2 + Figures 12--16);
* ApproxMaxCRS stays within its approximation bound and well above it in
  practice (Theorems 3/4 + Figure 17).
"""

import pytest

from repro.baselines import ASBTreeSweep, NaivePlaneSweep
from repro.circles import ApproxMaxCRS, exact_maxcrs
from repro.core import ExactMaxRS, solve_in_memory
from repro.datasets import DatasetSpec, Distribution, dataset_to_em_file, load_dataset
from repro.em import EMConfig, EMContext


def _fresh_ctx(block=512, buffer_blocks=8):
    return EMContext(EMConfig(block_size=block, buffer_size=buffer_blocks * block))


@pytest.mark.parametrize("distribution", list(Distribution))
def test_all_maxrs_algorithms_agree_on_every_distribution(distribution):
    objects = load_dataset(DatasetSpec(distribution, 500, seed=11))
    width = height = 60_000.0
    results = {}
    for name, factory in (
        ("exact", lambda ctx: ExactMaxRS(ctx, width, height, fanout=4,
                                         memory_records=128)),
        ("naive", lambda ctx: NaivePlaneSweep(ctx, width, height, simulate_io=True)),
        ("asb", lambda ctx: ASBTreeSweep(ctx, width, height, simulate_io=True)),
    ):
        ctx = _fresh_ctx()
        file = dataset_to_em_file(ctx, objects)
        results[name] = factory(ctx).solve_objects_file(file).total_weight
    reference = solve_in_memory(objects, width, height).total_weight
    assert results["exact"] == pytest.approx(reference)
    assert results["naive"] == pytest.approx(reference)
    assert results["asb"] == pytest.approx(reference)


def test_exactmaxrs_beats_baselines_and_gap_grows_with_cardinality():
    width = height = 40_000.0
    gaps = []
    orderings = []
    for cardinality in (900, 2700):
        objects = load_dataset(DatasetSpec(Distribution.UNIFORM, cardinality, seed=5))
        costs = {}
        for name in ("exact", "naive", "asb"):
            ctx = _fresh_ctx()
            file = dataset_to_em_file(ctx, objects)
            ctx.reset_io()
            ctx.clear_cache()
            if name == "exact":
                result = ExactMaxRS(ctx, width, height,
                                    memory_records=256).solve_objects_file(file)
            elif name == "naive":
                result = NaivePlaneSweep(ctx, width, height,
                                         simulate_io=True).solve_objects_file(file)
            else:
                result = ASBTreeSweep(ctx, width, height,
                                      simulate_io=True).solve_objects_file(file)
            costs[name] = result.io.total
        # ExactMaxRS always transfers the fewest blocks.
        assert costs["exact"] < costs["asb"]
        assert costs["exact"] < costs["naive"]
        gaps.append(costs["naive"] / costs["exact"])
        orderings.append(costs["asb"] < costs["naive"])
    # The naive-vs-exact gap widens as the dataset grows (quadratic vs
    # near-linear I/O) -- the mechanism behind the paper's two orders of
    # magnitude at 250k objects.
    assert gaps[1] > gaps[0]
    # The aSB-tree's logarithmic updates overtake the naive rescans once the
    # dataset is large enough to amortise the structure's build cost.
    assert orderings[-1]


def test_larger_buffer_reduces_exactmaxrs_io():
    objects = load_dataset(DatasetSpec(Distribution.GAUSSIAN, 1200, seed=3))
    width = height = 30_000.0
    costs = []
    for buffer_blocks in (4, 16, 64):
        ctx = _fresh_ctx(block=512, buffer_blocks=buffer_blocks)
        file = dataset_to_em_file(ctx, objects)
        ctx.reset_io()
        ctx.clear_cache()
        result = ExactMaxRS(ctx, width, height).solve_objects_file(file)
        costs.append(result.io.total)
    assert costs[0] >= costs[1] >= costs[2]
    assert costs[0] > costs[2]


def test_approx_maxcrs_quality_on_generated_workloads():
    for distribution in (Distribution.UNIFORM, Distribution.NE):
        objects = load_dataset(DatasetSpec(distribution, 300, seed=13))
        diameter = 80_000.0
        ctx = _fresh_ctx()
        approx = ApproxMaxCRS(ctx, diameter, memory_records=256).solve(objects)
        _, optimum = exact_maxcrs(objects, diameter)
        assert approx.total_weight >= optimum / 4.0 - 1e-9
        # In practice the ratio is far better than the worst case (Figure 17).
        assert approx.total_weight >= 0.5 * optimum


def test_full_pipeline_releases_all_disk_blocks():
    """No temporary file of the recursion, sort or baselines may leak."""
    objects = load_dataset(DatasetSpec(Distribution.UNIFORM, 400, seed=2))
    ctx = _fresh_ctx()
    file = dataset_to_em_file(ctx, objects)
    ExactMaxRS(ctx, 20_000.0, 20_000.0, memory_records=128).solve_objects_file(file)
    NaivePlaneSweep(ctx, 20_000.0, 20_000.0, simulate_io=True).solve_objects_file(file)
    ASBTreeSweep(ctx, 20_000.0, 20_000.0, simulate_io=True).solve_objects_file(file)
    # Only the dataset itself remains on the simulated disk.
    assert ctx.device.num_allocated_blocks == file.num_blocks
