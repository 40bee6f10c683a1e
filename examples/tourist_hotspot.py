#!/usr/bin/env python3
"""Tourist hotspot: the MaxCRS scenario from the paper's introduction.

"Consider a tourist who wants to find the most representative spot in a city.
The tourist will prefer to visit as many attractions as possible around the
spot, and at the same time s/he usually does not want to go too far away from
the spot."  A circular walking range fits this better than a rectangle, which
is exactly the MaxCRS problem.

This example:

1. builds an attraction map for a city: a stand-in for a real points-of-
   interest dataset with popularity weights;
2. runs ApproxMaxCRS (the paper's (1/4)-approximation) with a 1 km walking
   diameter on the simulated external-memory substrate;
3. compares the answer against the exact MaxCRS optimum (the angular sweep
   the paper uses as its accuracy yardstick) and prints the achieved
   approximation ratio -- in practice far better than the worst-case 1/4;
4. shows the five candidate centres the algorithm evaluated.

Run with::

    python examples/tourist_hotspot.py
"""

from __future__ import annotations

from repro.circles import ApproxMaxCRS, exact_maxcrs
from repro.datasets import generate_ux
from repro.em import EMConfig, EMContext, KIB
from repro.geometry import Circle, weight_in_circle

CITY_EXTENT = 20_000.0        # a 20 km x 20 km city, in metres
ATTRACTIONS = 4_000
WALKING_DIAMETER = 1_000.0    # the tourist is happy within a 1 km diameter


def main() -> None:
    print("Tourist hotspot (MaxCRS with ApproxMaxCRS)")
    print("------------------------------------------")
    # Reuse the clustered "populated places" generator as a stand-in for an
    # attractions dataset, rescaled to city size; weights model popularity.
    attractions = [a.with_weight(1.0 + (i % 4))
                   for i, a in enumerate(generate_ux(ATTRACTIONS, domain=CITY_EXTENT,
                                                     seed=99))]
    print(f"attractions           : {len(attractions):,}")
    print(f"walking diameter      : {WALKING_DIAMETER:,.0f} m")

    ctx = EMContext(EMConfig(block_size=4 * KIB, buffer_size=256 * KIB))
    approx = ApproxMaxCRS(ctx, WALKING_DIAMETER).solve(attractions)

    print(f"chosen spot           : ({approx.location.x:,.0f}, {approx.location.y:,.0f})")
    print(f"popularity covered    : {approx.total_weight:,.1f}")
    print(f"I/O cost              : {approx.io.total:,} block transfers")

    print("\ncandidate centres evaluated (centre of the max-region + 4 shifted):")
    for candidate, weight in zip(approx.candidates, approx.candidate_weights):
        marker = "  <-- chosen" if weight == approx.total_weight else ""
        print(f"  ({candidate.x:10,.1f}, {candidate.y:10,.1f})  covers {weight:8,.1f}{marker}")

    # Accuracy check against the exact solver.
    _, optimum = exact_maxcrs(attractions, WALKING_DIAMETER)
    ratio = approx.total_weight / optimum if optimum else 1.0
    print(f"\nexact optimum          : {optimum:,.1f}")
    print(f"approximation ratio    : {ratio:.3f} "
          f"(theoretical guarantee: 0.25)")

    achieved = weight_in_circle(attractions, Circle(approx.location, WALKING_DIAMETER))
    assert abs(achieved - approx.total_weight) < 1e-9
    print("verified               : the circle at the chosen spot covers "
          f"{achieved:,.1f}")


if __name__ == "__main__":
    main()
