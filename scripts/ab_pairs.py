#!/usr/bin/env python
"""Alternating parent/change pairs of one benchmark workload.

Runs ``perfbench/run.py`` on two versions of the repository: a parent
revision, exported with ``git archive`` into a temporary directory outside
the checkout, and the checkout's working tree (the change).  Each pair runs
both sides on the same seed, and the side that runs first alternates from
pair to pair, so a drift of the host's speed falls on both sides alike.

For every end-to-end metric ``BENCHMARK.json`` declares, it prints each
side's median and quartiles, how many pairs the change won (ties count for
neither side) and whether a gain may be claimed: the change wins at least
nine tenths of the pairs and the medians differ, in the metric's better
direction, by more than the parent's interquartile range.  It also prints
the metric's no-regression verdict against the ``bound`` the file gives it
(a fraction of the parent's median):

* ``worse than bound`` -- the change's median is worse than the parent's
  by more than the bound;
* ``unresolved`` -- otherwise, when the parent's interquartile range is
  wider than the bound, unless every change run beats every parent run;
* ``within bound`` -- otherwise.

Last it prints each side's attempted and failed operation totals.

With ``--trace`` both sides run ``perfbench/run.py --trace 1``, and it
prints the same medians, quartiles and wins for every per-layer metric
``BENCHMARK.json`` declares, with no bound and no gain verdict (per-layer
metrics have neither): the before/after of the layers a change moved.
Metrics that read 0 on every run of both sides are left out.

Usage, from the repository root::

    python scripts/ab_pairs.py --parent HEAD~1 --workload paper-external \\
        --pairs 10 --seconds 20 --seed-base 500 [--trace]

Pair ``i`` runs seed ``seed-base + i``.  Nothing is written into the
checkout: the export lives in a temporary directory that is removed at the
end, and the benchmark writes no bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9

#: The no-regression verdicts of one metric against its bound.
WORSE, UNRESOLVED, WITHIN = "worse than bound", "unresolved", "within bound"


def quartiles(values: Sequence[float]):
    """``(Q1, median, Q3)``, inclusive method; one value is its own spread."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: Optional[float] = None) -> Dict[str, object]:
    """Compare paired runs of one metric (``better`` is higher or lower).

    ``parent[i]`` and ``change[i]`` come from pair ``i``.  With a
    ``bound`` (a fraction of the parent's median) the result's
    ``"regression"`` is :data:`WORSE`, :data:`UNRESOLVED` or
    :data:`WITHIN`; without one it is ``None``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    if bound is not None and bound < 0:
        raise ValueError(f"bound must not be negative, got {bound}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gap = sign * (c_median - p_median)
    regression = None
    if bound is not None:
        allowed = bound * abs(p_median)
        if min(sign * c for c in change) > max(sign * p for p in parent):
            regression = WITHIN    # every change run beats every parent run
        elif -gap > allowed:
            regression = WORSE
        elif p_q3 - p_q1 > allowed:
            regression = UNRESOLVED
        else:
            regression = WITHIN
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1,
        "regression": regression,
    }


def run_benchmark(root: Path, workload: str, seed: int, seconds: float,
                  trace: int = 0) -> Dict[str, object]:
    """One ``perfbench/run.py --trace trace`` run in ``root``; its result
    object."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)   # each side imports its own src/
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise RuntimeError(
            f"perfbench failed in {root} (seed {seed}):\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def export_revision(checkout: Path, revision: str, into: Path) -> Path:
    """``git archive`` ``revision`` of ``checkout`` into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(checkout), "archive", "--format=tar", revision],
        capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)
    return into


def _format(values) -> str:
    q1, median, q3 = values
    return f"{median:.4g} [{q1:.4g}-{q3:.4g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    checkout = Path.cwd()
    declared = json.loads((checkout / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {spec["name"]: (spec["better"], None)
                   for spec in declared["per_layer"]}
    else:
        metrics = {spec["name"]: (spec["better"], spec["bound"])
                   for spec in declared["end_to_end"]}
    runs: Dict[str, List[Dict[str, object]]] = {"parent": [], "change": []}
    scratch = Path(tempfile.mkdtemp(prefix="ab-pairs-"))
    try:
        sides = {"parent": export_revision(checkout, args.parent, scratch),
                 "change": checkout}
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for side in order:
                result = run_benchmark(sides[side], args.workload, seed,
                                       args.seconds, int(args.trace))
                runs[side].append(result)
                values = {name: result["metrics"][name]["value"]
                          for name in metrics}
                print(f"pair {pair} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()
                                 if v)
                      + f" failed={result['failed']}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"\n{args.workload}: {args.pairs} pairs, parent {args.parent} "
          f"vs working tree{', traced' if args.trace else ''}; "
          "median [Q1-Q3]")
    for name, (better, bound) in metrics.items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        if not any(parent + change):
            continue
        v = verdict(parent, change, better, bound)
        line = (f"  {name} ({better} is better): parent "
                f"{_format(v['parent'])}, change {_format(v['change'])}, "
                f"change wins {v['wins']}/{v['pairs']}")
        if bound is not None:
            line += (f", gain claimable: {v['gain']}, {v['regression']} "
                     f"({bound:g})")
        print(line)
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        print(f"  {side}: attempted {attempted}, failed {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
