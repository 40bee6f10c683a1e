"""What the benchmark's workloads (``perfbench/workloads.py``, run by
``perfbench/run.py``) import and read from the program.

Every workload starts with ``host_config()``, warms the sweep backends and
records ``engine_config()`` of its engine; a program change that deletes a
name they use (``auto_crossover``, ``available_backends``, ``get_backend``,
``effective_cpu_count``, ``stats()["sharding"]``) fails every workload, so
it fails here first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.service import MaxRSEngine

_SCRIPT = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while the module
    # body runs.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_workload_configuration_reads_what_the_program_offers(workloads):
    host = workloads.host_config()
    assert host["cores"] >= 1
    assert host["sweep_crossover_events"] == 0
    workloads.warm_sweep_backends()
    with MaxRSEngine() as engine:
        assert workloads.engine_config(engine) == {"shards": 1,
                                                   "executor": "serial"}
