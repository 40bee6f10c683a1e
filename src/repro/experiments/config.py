"""Experiment configuration: Table 3 defaults and the sweep grids.

Every constant in this module is taken directly from Section 7.1 of the paper
(Tables 2 and 3 and the figure axes).  The benchmark suite shrinks the
workloads through an :class:`ExperimentScale`, which scales the cardinalities
(and, proportionally, the buffer sizes, so the ratio of dataset size to memory
-- the quantity that shapes every curve -- is preserved) without touching the
block size or the geometric parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.datasets.spec import DatasetSpec, Distribution
from repro.datasets.real import NE_CARDINALITY, UX_CARDINALITY
from repro.em.config import KIB
from repro.errors import ConfigurationError

__all__ = [
    "PaperDefaults",
    "ExperimentScale",
    "CARDINALITY_SWEEP",
    "BUFFER_SWEEP_SYNTHETIC_KB",
    "BUFFER_SWEEP_REAL_KB",
    "RANGE_SWEEP",
    "DIAMETER_SWEEP",
    "ALGORITHMS",
]

#: Algorithm names as used throughout the experiment harness and reports.
ALGORITHMS = ("Naive", "aSB-Tree", "ExactMaxRS")

#: Figure 12 x-axis: dataset cardinalities (paper: 100k .. 500k).
CARDINALITY_SWEEP: Sequence[int] = (100_000, 200_000, 300_000, 400_000, 500_000)

#: Figure 13 x-axis: buffer sizes in KB for synthetic datasets.
BUFFER_SWEEP_SYNTHETIC_KB: Sequence[int] = (256, 512, 1024, 1536, 2048)

#: Figure 15 x-axis: buffer sizes in KB for real datasets.
BUFFER_SWEEP_REAL_KB: Sequence[int] = (64, 128, 256, 384, 512)

#: Figures 14/16 x-axis: query range sizes (square side length).
RANGE_SWEEP: Sequence[float] = (1_000.0, 2_500.0, 5_000.0, 7_500.0, 10_000.0)

#: Figure 17 x-axis: circle diameters.
DIAMETER_SWEEP: Sequence[float] = (1_000.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0)


@dataclass(frozen=True, slots=True)
class PaperDefaults:
    """The default parameter values of Table 3."""

    cardinality: int = 250_000
    block_size: int = 4 * KIB
    buffer_size_real: int = 256 * KIB
    buffer_size_synthetic: int = 1024 * KIB
    space_size: float = 1_000_000.0
    rectangle_size: float = 1_000.0
    circle_diameter: float = 1_000.0

    def as_rows(self) -> List[tuple]:
        """Rows of (parameter, default value) matching Table 3's layout."""
        return [
            ("Cardinality (|O|)", f"{self.cardinality:,}"),
            ("Block size", f"{self.block_size // KIB}KB"),
            ("Buffer size", f"{self.buffer_size_real // KIB}KB (real dataset), "
                            f"{self.buffer_size_synthetic // KIB}KB (synthetic dataset)"),
            ("Space size", f"{int(self.space_size) // 1000}K x {int(self.space_size) // 1000}K"),
            ("Rectangle size (d1 x d2)", f"{int(self.rectangle_size) // 1000}K x "
                                         f"{int(self.rectangle_size) // 1000}K"),
            ("Circle diameter (d)", f"{int(self.circle_diameter) // 1000}K"),
        ]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """How much to shrink the paper's workloads for a run of the harness.

    Parameters
    ----------
    cardinality_scale:
        Multiplier applied to every dataset cardinality (1.0 = paper scale).
    buffer_scale:
        Multiplier applied to every buffer size.  Scaling the buffer together
        with the cardinality keeps the dataset-to-memory ratio -- and hence
        the recursion depth of ExactMaxRS and the caching behaviour of the
        baselines -- close to the paper's, so the curves keep their shape.
    simulate_baselines:
        Run the two baselines in their I/O-faithful simulation mode (the only
        practical option near paper scale, where the real mode would move
        billions of blocks).
    quality_cardinality_scale:
        Extra multiplier for the approximation-quality experiment (Figure 17).
        Its exact-MaxCRS yardstick costs ``O(n + P log P)`` for the ``P``
        object pairs closer than the diameter: near-linear on sparse data,
        quadratic when most objects lie within one diameter of each other.
    """

    cardinality_scale: float = 0.1
    buffer_scale: float = 0.25
    simulate_baselines: bool = True
    quality_cardinality_scale: float = 0.04

    def __post_init__(self) -> None:
        for name in ("cardinality_scale", "buffer_scale", "quality_cardinality_scale"):
            value = getattr(self, name)
            if value <= 0 or value > 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1], got {value}")

    # ------------------------------------------------------------------ #
    # Scaled quantities
    # ------------------------------------------------------------------ #
    def cardinality(self, paper_value: int) -> int:
        """Scaled dataset cardinality (at least 16 objects)."""
        return max(16, int(round(paper_value * self.cardinality_scale)))

    def quality_cardinality(self, paper_value: int) -> int:
        """Scaled cardinality for the Figure 17 experiment."""
        return max(16, int(round(paper_value * self.quality_cardinality_scale)))

    def buffer_size(self, paper_value: int, block_size: int) -> int:
        """Scaled buffer size, never below two blocks."""
        return max(2 * block_size, int(round(paper_value * self.buffer_scale)))

    # ------------------------------------------------------------------ #
    # Common dataset specs
    # ------------------------------------------------------------------ #
    def synthetic_spec(self, distribution: Distribution, cardinality: int,
                       seed: int = 7) -> DatasetSpec:
        """Spec for a synthetic workload at this scale."""
        return DatasetSpec(distribution=distribution,
                           cardinality=self.cardinality(cardinality), seed=seed)

    def ux_spec(self) -> DatasetSpec:
        """Spec for the UX stand-in at this scale."""
        return DatasetSpec(distribution=Distribution.UX,
                           cardinality=self.cardinality(UX_CARDINALITY), seed=17)

    def ne_spec(self) -> DatasetSpec:
        """Spec for the NE stand-in at this scale."""
        return DatasetSpec(distribution=Distribution.NE,
                           cardinality=self.cardinality(NE_CARDINALITY), seed=19)


#: Scale presets: "paper" runs the full workloads (hours in pure Python),
#: "bench" is the pytest-benchmark default, "smoke" is for quick checks/tests.
PRESETS = {
    "paper": ExperimentScale(cardinality_scale=1.0, buffer_scale=1.0,
                             simulate_baselines=True,
                             quality_cardinality_scale=0.02),
    "bench": ExperimentScale(),
    "smoke": ExperimentScale(cardinality_scale=0.01, buffer_scale=0.05,
                             simulate_baselines=True,
                             quality_cardinality_scale=0.004),
}

__all__.append("PRESETS")
