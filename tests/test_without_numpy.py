"""The package on a host without numpy.

numpy is optional: the package imports without it, and the pure sweep, the
record-at-a-time passes (external sort, transform, division, MergeSweep)
and ApproxMaxCRS answer; only the numpy backend, the resident engine and
the exact circle solver need it.  The checks run in a child interpreter
where ``import numpy`` fails, and include the block-count pins and the
in-memory agreement cases of ``tests/external_cases.py``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_TESTS = Path(__file__).resolve().parent
_SRC = _TESTS.parents[0] / "src"

_SCRIPT = textwrap.dedent("""
    import random
    import sys

    sys.modules["numpy"] = None   # every ``import numpy`` now fails

    import repro
    from repro import MaxCRSSolver, MaxRSSolver
    from repro.core.backends import available_backends, platform_backend
    from repro.core.plane_sweep import solve_in_memory
    from repro.em import EMConfig
    from repro.errors import ConfigurationError
    from repro.geometry import WeightedPoint

    assert available_backends() == ("pure",), available_backends()
    assert platform_backend().name == "pure"

    merge_module = sys.modules["repro.core.merge_sweep"]
    heap_merges = []
    real_heap_merge = merge_module._heap_merge

    def counting_heap_merge(*args):
        heap_merges.append(len(args[0]))
        return real_heap_merge(*args)

    merge_module._heap_merge = counting_heap_merge

    rng = random.Random(3)
    points = [WeightedPoint(float(rng.randint(0, 300)),
                            float(rng.randint(0, 300)),
                            float(rng.randint(1, 3))) for _ in range(600)]
    config = EMConfig(block_size=512, buffer_size=8 * 512)
    result = MaxRSSolver(14.0, 9.0, config=config,
                         force_external=True).solve(points)
    reference = solve_in_memory(points, 14.0, 9.0)
    assert result.recursion_levels >= 2 and heap_merges, heap_merges
    assert (result.region, result.total_weight) == \\
        (reference.region, reference.total_weight), (result, reference)

    circle = MaxCRSSolver(12.0, config=config).solve(points)
    assert circle.total_weight > 0

    from repro.circles.exact_maxcrs import exact_maxcrs
    try:
        exact_maxcrs(points, 12.0)
    except ConfigurationError as exc:
        assert "numpy" in str(exc)
    else:
        raise AssertionError("exact_maxcrs answered without numpy")

    import external_cases   # the tests directory is on sys.path

    measured = external_cases.measure_io()
    assert measured == external_cases.IO_PINS, measured
    cases = random.Random(5)
    for _ in range(150):
        external_cases.check_against_in_memory(
            *external_cases.random_special_case(cases))
    print("ok", len(heap_merges))
""")


def test_solvers_answer_without_numpy():
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join((str(_SRC), str(_TESTS))),
             "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("ok")
