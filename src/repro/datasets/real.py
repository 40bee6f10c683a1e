"""Stand-ins for the paper's real datasets (UX and NE).

The paper evaluates on two real point sets downloaded from the R-tree Portal
(Table 2): **UX** -- "United States of America and Mexico", 19,499 points --
and **NE** -- "North East", 123,593 points -- both normalized to the
``[0, 1,000,000]^2`` domain.  The portal datasets are not redistributable with
this reproduction and the environment has no network access, so this module
generates deterministic synthetic stand-ins that preserve the properties the
experiments actually depend on:

* the exact cardinalities of Table 2;
* the normalized domain;
* the qualitative density structure: UX is small and sparse -- population
  centres scattered over a wide area with large empty regions ("a macro view
  of NE" as the paper puts it) -- while NE is six times denser and heavily
  concentrated along a coastal band with strong urban clusters.

Both generators are deterministic for a given seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.datasets.spec import DEFAULT_DOMAIN, DatasetSpec, Distribution
from repro.errors import DatasetError
from repro.geometry import WeightedPoint

__all__ = ["UX_CARDINALITY", "NE_CARDINALITY", "generate_ux", "generate_ne",
           "generate_real"]

#: Cardinality of the UX dataset (Table 2 of the paper).
UX_CARDINALITY = 19_499

#: Cardinality of the NE dataset (Table 2 of the paper).
NE_CARDINALITY = 123_593


def generate_ux(cardinality: int = UX_CARDINALITY, *,
                domain: float = DEFAULT_DOMAIN, seed: int = 17,
                weighted: bool = False) -> List[WeightedPoint]:
    """Generate the UX stand-in: sparse, widely scattered population centres.

    Roughly 60% of the points belong to a few dozen compact clusters (cities)
    whose centres are spread over the whole domain; the remaining 40% are
    low-density background spread along broad corridors, leaving large empty
    areas -- the overall look of a continent-scale populated-places dataset.
    """
    return _clustered(cardinality, domain=domain, seed=seed, weighted=weighted,
                      clusters=40, cluster_fraction=0.6,
                      cluster_spread=0.012, background="uniform")


def generate_ne(cardinality: int = NE_CARDINALITY, *,
                domain: float = DEFAULT_DOMAIN, seed: int = 19,
                weighted: bool = False) -> List[WeightedPoint]:
    """Generate the NE stand-in: dense points concentrated along a coastal band.

    Roughly 75% of the points form many tight urban clusters whose centres lie
    along a diagonal band (the north-east corridor); the rest fills the band
    more diffusely.  The result is much denser than UX over the same domain,
    which is what drives the UX-vs-NE differences in Figures 15 and 16.
    """
    return _clustered(cardinality, domain=domain, seed=seed, weighted=weighted,
                      clusters=120, cluster_fraction=0.75,
                      cluster_spread=0.006, background="band")


def generate_real(spec: DatasetSpec) -> List[WeightedPoint]:
    """Generate the real-dataset stand-in described by ``spec``."""
    if spec.distribution is Distribution.UX:
        return generate_ux(spec.cardinality, domain=spec.domain, seed=spec.seed,
                           weighted=spec.weighted)
    if spec.distribution is Distribution.NE:
        return generate_ne(spec.cardinality, domain=spec.domain, seed=spec.seed,
                           weighted=spec.weighted)
    raise DatasetError(f"spec {spec.name!r} is not a real-dataset stand-in")


# ---------------------------------------------------------------------- #
# Internal helpers
# ---------------------------------------------------------------------- #
def _clustered(cardinality: int, *, domain: float, seed: int, weighted: bool,
               clusters: int, cluster_fraction: float, cluster_spread: float,
               background: str) -> List[WeightedPoint]:
    if cardinality < 0:
        raise DatasetError(f"cardinality must be non-negative, got {cardinality}")
    if domain <= 0:
        raise DatasetError(f"domain must be positive, got {domain}")
    if cardinality == 0:
        return []
    rng = np.random.default_rng(seed)

    clustered_count = int(cardinality * cluster_fraction)
    background_count = cardinality - clustered_count

    if background == "band":
        # Cluster centres along a diagonal band with mild perpendicular jitter.
        positions = rng.uniform(0.05, 0.95, size=clusters)
        offsets = rng.normal(0.0, 0.06, size=clusters)
        centre_x = np.clip(positions + offsets, 0.02, 0.98) * domain
        centre_y = np.clip(positions - offsets, 0.02, 0.98) * domain
    else:
        centre_x = rng.uniform(0.05 * domain, 0.95 * domain, size=clusters)
        centre_y = rng.uniform(0.05 * domain, 0.95 * domain, size=clusters)

    # Cluster sizes follow a heavy-ish tail so a few "metros" dominate.
    raw_sizes = rng.pareto(1.5, size=clusters) + 0.5
    probabilities = raw_sizes / raw_sizes.sum()
    assignment = rng.choice(clusters, size=clustered_count, p=probabilities)
    spread = cluster_spread * domain
    xs = centre_x[assignment] + rng.normal(0.0, spread, size=clustered_count)
    ys = centre_y[assignment] + rng.normal(0.0, spread, size=clustered_count)

    if background == "band":
        positions = rng.uniform(0.0, 1.0, size=background_count)
        offsets = rng.normal(0.0, 0.08, size=background_count)
        bx = np.clip(positions + offsets, 0.0, 1.0) * domain
        by = np.clip(positions - offsets, 0.0, 1.0) * domain
    else:
        bx = rng.uniform(0.0, domain, size=background_count)
        by = rng.uniform(0.0, domain, size=background_count)

    all_x = np.clip(np.concatenate([xs, bx]), 0.0, domain)
    all_y = np.clip(np.concatenate([ys, by]), 0.0, domain)
    order = rng.permutation(cardinality)
    all_x = all_x[order]
    all_y = all_y[order]

    if weighted:
        weights = rng.integers(1, 5, size=cardinality).astype(np.float64)
        return [WeightedPoint(float(x), float(y), float(w))
                for x, y, w in zip(all_x, all_y, weights)]
    return [WeightedPoint(float(x), float(y)) for x, y in zip(all_x, all_y)]
