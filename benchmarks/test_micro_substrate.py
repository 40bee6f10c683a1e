"""Microbenchmarks of the external-memory substrate and the in-memory sweep.

These use pytest-benchmark's normal calibration (they are cheap and
deterministic) and serve as regression guards for the building blocks whose
cost dominates every figure: sequential record file scans, the external merge
sort, and the in-memory plane sweep used at the base of the recursion.
"""

from repro.core import solve_in_memory
from repro.core.plane_sweep import sweep_events
from repro.core.transform import objects_to_event_records
from repro.datasets import generate_uniform
from repro.em import EMConfig, EMContext, OBJECT_CODEC, external_sort


def _context():
    return EMContext(EMConfig(block_size=4096, buffer_size=64 * 4096))


def test_micro_record_file_scan(benchmark):
    ctx = _context()
    objects = generate_uniform(20_000, seed=3, domain=1_000_000.0)
    file = ctx.create_file(OBJECT_CODEC)
    file.write_all((o.x, o.y, o.weight) for o in objects)

    def scan():
        ctx.clear_cache()
        return sum(1 for _ in file.reader())

    assert benchmark(scan) == 20_000


def test_micro_external_sort(benchmark):
    objects = generate_uniform(20_000, seed=5, domain=1_000_000.0)

    def sort_once():
        ctx = _context()
        file = ctx.create_file(OBJECT_CODEC)
        file.write_all((o.x, o.y, o.weight) for o in objects)
        # Whole-record order on (x, y, weight) sorts by x first.
        result = external_sort(ctx, file, OBJECT_CODEC)
        return len(result)

    assert benchmark(sort_once) == 20_000


def test_micro_plane_sweep(benchmark):
    objects = generate_uniform(5_000, seed=7, domain=100_000.0)
    records = objects_to_event_records(objects, 1_000.0, 1_000.0)

    def sweep():
        _, best = sweep_events(records)
        return best.weight

    assert benchmark(sweep) >= 1.0


def test_micro_solve_in_memory(benchmark):
    objects = generate_uniform(2_000, seed=9, domain=50_000.0)

    def solve():
        return solve_in_memory(objects, 1_000.0, 1_000.0).total_weight

    assert benchmark(solve) >= 1.0
