"""Workload generators and dataset plumbing for the empirical study.

* :mod:`repro.datasets.synthetic` -- the uniform and Gaussian synthetic
  workloads of Figures 12--14.
* :mod:`repro.datasets.real` -- deterministic stand-ins for the UX and NE real
  datasets of Table 2 and Figures 15--17 (the portal's files cannot ship with
  the package, so the stand-ins keep their cardinalities and density).
* :mod:`repro.datasets.spec` -- hashable workload descriptions.
* :mod:`repro.datasets.io` -- CSV import/export and loading onto the simulated
  disk.

:func:`load_dataset` is the one-stop entry point the experiment harness uses:
give it a :class:`~repro.datasets.spec.DatasetSpec` of any distribution family
and it returns the objects.
"""

from typing import List

from repro.datasets.io import dataset_to_em_file, load_csv, save_csv
from repro.datasets.real import (
    NE_CARDINALITY,
    UX_CARDINALITY,
    generate_ne,
    generate_real,
    generate_ux,
)
from repro.datasets.spec import DEFAULT_DOMAIN, DatasetSpec, Distribution
from repro.datasets.synthetic import (
    generate_from_spec,
    generate_gaussian,
    generate_uniform,
)
from repro.geometry import WeightedPoint

__all__ = [
    "DEFAULT_DOMAIN",
    "DatasetSpec",
    "Distribution",
    "NE_CARDINALITY",
    "UX_CARDINALITY",
    "dataset_to_em_file",
    "generate_from_spec",
    "generate_gaussian",
    "generate_ne",
    "generate_real",
    "generate_uniform",
    "generate_ux",
    "load_csv",
    "load_dataset",
    "save_csv",
]


def load_dataset(spec: DatasetSpec) -> List[WeightedPoint]:
    """Generate the dataset described by ``spec``, whatever its family."""
    if spec.distribution in (Distribution.UNIFORM, Distribution.GAUSSIAN):
        return generate_from_spec(spec)
    return generate_real(spec)
