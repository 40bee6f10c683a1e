#!/usr/bin/env python
"""Benchmark regression gate for the ``BENCH_*.json`` perf artefacts.

The serving benchmarks (``make bench-json``) emit machine-readable
``benchmarks/BENCH_<name>.json`` entries -- host fingerprint, workload,
config, wall-clock, latency percentiles and speedup vs baseline.  Those
files are checked in as the repository's perf trajectory.  This script
closes the loop: it re-runs the emitting benchmarks, compares the fresh
numbers against the checked-in ones, and fails when a tracked metric has
slipped beyond tolerance.

Tracked metrics (compared only when present in the checked-in entry):

``speedup``
    Higher is better.  Fails when ``fresh < baseline * (1 - tolerance)``,
    except that once both numbers sit above ``SPEEDUP_SATURATION`` the
    metric counts as saturated and passes: a warm-start that is 77x
    instead of 168x faster than re-ingest is run-to-run noise in a
    microsecond-scale denominator, while dropping below the saturation
    floor is a real regression and still fails.
``latency.<kind>.p50_seconds``
    Lower is better, one metric per query kind recorded in the entry's
    latency block.  Fails when ``fresh > baseline * (1 + tolerance)`` *and*
    the fresh value exceeds ``LATENCY_FLOOR_SECONDS``: below the floor the
    log-bucketed histograms quantise microsecond cache hits into adjacent
    buckets, so the ratio is noise by construction.

Entries whose host fingerprint (machine / schedulable cores) or preset does
not match the current run are *skipped with a warning* rather than failed:
a checked-in number from an 8-core CI box says nothing about a 1-core
laptop.  Pass ``--strict-host`` to compare them anyway (useful on the
machine that produced the baselines).

The default tolerance is 0.30 (30%), wide enough to absorb normal
wall-clock noise at the fast preset; override with ``--tolerance`` or the
``REPRO_BENCH_TOLERANCE`` environment variable.  After the comparison the
checked-in ``BENCH_*.json`` files and the ``reproduced_artefacts.txt`` log
the benchmarks rewrite are restored byte for byte (and artefacts the run
created are removed), so the gate never dirties the working tree; pass
``--keep-fresh`` to keep the re-run's files instead (e.g. when
intentionally re-baselining).

Usage::

    make bench-gate                       # run + compare + restore
    python scripts/check_bench_regression.py --tolerance 0.5
    python scripts/check_bench_regression.py --no-run --fresh-dir /tmp/out

Exit status is 0 when every comparable metric is within tolerance and 1
when anything regressed or a checked-in benchmark no longer produces its
artefact.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Default fractional tolerance before a tracked metric counts as regressed.
DEFAULT_TOLERANCE = 0.30

#: Directions of goodness for tracked metrics.
HIGHER = "higher"
LOWER = "lower"

#: Speedups at or above this are "order-of-magnitude" wins whose exact
#: ratio is noise-dominated; two saturated numbers compare as equal.
SPEEDUP_SATURATION = 10.0

#: Latencies below this are timer/bucket quantisation, not signal: the
#: engine's log-bucketed histograms quantise a ~5 us cache hit into one of
#: two adjacent buckets (3.5 us vs 7 us -- a 2x "regression" from noise
#: alone), so a p50 comparison only fails once the fresh value also exceeds
#: this absolute floor.  A real hot-path regression (a cache hit turning
#: into a solve) clears it by orders of magnitude.
LATENCY_FLOOR_SECONDS = 100e-6

#: Host-fingerprint keys that must match for cross-run numbers to be
#: comparable at all.  Kernel build and python patch level are deliberately
#: excluded -- they churn without changing what the benchmarks measure.
HOST_KEYS = ("machine", "cpu_count")

#: The human-readable log every benchmark run rewrites.
ARTEFACT_LOG = "reproduced_artefacts.txt"


def load_entries(directory: Path) -> dict[str, dict]:
    """Load every ``BENCH_<name>.json`` in *directory*, keyed by name."""
    entries: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with path.open("r", encoding="utf-8") as fh:
            entry = json.load(fh)
        name = entry.get("name") or path.stem[len("BENCH_"):]
        entries[name] = entry
    return entries


def artefact_paths(directory: Path) -> list[Path]:
    """The files a benchmark run writes into *directory*: every
    ``BENCH_*.json`` plus the artefact log."""
    return [*directory.glob("BENCH_*.json"), *directory.glob(ARTEFACT_LOG)]


def bench_modules(directory: Path) -> list[Path]:
    """Benchmark modules that emit BENCH json (self-maintaining discovery)."""
    modules = []
    for path in sorted(directory.glob("test_*.py")):
        if re.search(r"\bwrite_bench_json\s*\(", path.read_text(encoding="utf-8")):
            modules.append(path)
    return modules


def emitted_names(module: Path) -> list[str]:
    """BENCH names a module emits: its ``write_bench_json("<name>", ...)``
    string-literal first arguments (dynamic names are invisible here and
    simply cannot be selected with ``--only``)."""
    text = module.read_text(encoding="utf-8")
    return re.findall(r"""write_bench_json\s*\(\s*["']([^"']+)["']""", text)


def modules_for(directory: Path, names: set[str]) -> list[Path]:
    """The emitting modules behind the selected BENCH *names*."""
    return [module for module in bench_modules(directory)
            if names & set(emitted_names(module))]


def lookup(entry: dict, dotted: str):
    """Resolve a dotted metric path (``latency.p50_seconds``) or None."""
    node = entry
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node if isinstance(node, (int, float)) else None


def tracked_metrics(entry: dict) -> list[tuple[str, str]]:
    """The ``(dotted_path, direction)`` metrics an entry is gated on.

    ``speedup`` when present, plus one p50 metric per query kind in the
    entry's latency block (``write_bench_json`` nests percentiles under the
    kind, e.g. ``latency.maxrs.p50_seconds``; a flat percentile dict is
    accepted too).
    """
    metrics: list[tuple[str, str]] = []
    if isinstance(entry.get("speedup"), (int, float)):
        metrics.append(("speedup", HIGHER))
    latency = entry.get("latency")
    if isinstance(latency, dict):
        if isinstance(latency.get("p50_seconds"), (int, float)):
            metrics.append(("latency.p50_seconds", LOWER))
        for kind in sorted(latency):
            node = latency[kind]
            if (isinstance(node, dict)
                    and isinstance(node.get("p50_seconds"), (int, float))):
                metrics.append((f"latency.{kind}.p50_seconds", LOWER))
    return metrics


def host_mismatches(baseline: dict, fresh: dict) -> list[str]:
    """Host-fingerprint keys on which the two entries disagree."""
    base_host = baseline.get("host") or {}
    fresh_host = fresh.get("host") or {}
    return [key for key in HOST_KEYS if base_host.get(key) != fresh_host.get(key)]


def compare_entries(
    baselines: dict[str, dict],
    fresh: dict[str, dict],
    *,
    tolerance: float,
    strict_host: bool = False,
) -> tuple[list[dict], list[str]]:
    """Compare fresh entries against baselines.

    Returns ``(rows, failures)``: one row per (name, metric) verdict for the
    report, and the list of human-readable failure reasons (empty == gate
    passes).
    """
    rows: list[dict] = []
    failures: list[str] = []

    for name, base in sorted(baselines.items()):
        new = fresh.get(name)
        if new is None:
            failures.append(
                f"{name}: checked-in artefact has no fresh counterpart "
                "(benchmark no longer emits it?)"
            )
            rows.append({"name": name, "metric": "-", "verdict": "MISSING"})
            continue

        if base.get("preset") != new.get("preset"):
            rows.append({
                "name": name, "metric": "-", "verdict": "SKIP",
                "note": (f"preset mismatch ({base.get('preset')} vs "
                         f"{new.get('preset')})"),
            })
            continue

        mismatched = host_mismatches(base, new)
        if mismatched and not strict_host:
            rows.append({
                "name": name, "metric": "-", "verdict": "SKIP",
                "note": "host mismatch on " + ", ".join(mismatched),
            })
            continue

        compared = 0
        for metric, direction in tracked_metrics(base):
            base_value = lookup(base, metric)
            fresh_value = lookup(new, metric)
            if fresh_value is None:
                failures.append(f"{name}: fresh entry lost tracked metric {metric}")
                rows.append({"name": name, "metric": metric, "verdict": "MISSING"})
                continue
            compared += 1
            if direction == HIGHER:
                ok = fresh_value >= base_value * (1.0 - tolerance)
                if (not ok and metric == "speedup"
                        and base_value >= SPEEDUP_SATURATION
                        and fresh_value >= SPEEDUP_SATURATION):
                    ok = True
            else:
                ok = fresh_value <= max(base_value * (1.0 + tolerance),
                                        LATENCY_FLOOR_SECONDS)
            delta = (fresh_value - base_value) / base_value if base_value else 0.0
            rows.append({
                "name": name, "metric": metric,
                "baseline": base_value, "fresh": fresh_value, "delta": delta,
                "verdict": "ok" if ok else "REGRESSED",
            })
            if not ok:
                failures.append(
                    f"{name}: {metric} regressed beyond {tolerance:.0%} "
                    f"tolerance ({base_value:.6g} -> {fresh_value:.6g}, "
                    f"{delta:+.1%})"
                )
        if compared == 0 and not any(r["name"] == name and r["verdict"] == "MISSING"
                                     for r in rows):
            rows.append({"name": name, "metric": "-", "verdict": "SKIP",
                         "note": "no tracked metrics in baseline"})

    for name in sorted(set(fresh) - set(baselines)):
        rows.append({"name": name, "metric": "-", "verdict": "NEW",
                     "note": "no checked-in baseline (commit it to track)"})
    return rows, failures


def render_report(rows: list[dict], failures: list[str], tolerance: float) -> str:
    lines = [f"bench-gate: tolerance {tolerance:.0%}"]
    for row in rows:
        if "baseline" in row:
            lines.append(
                "  {name:<22s} {metric:<20s} {baseline:>12.6g} -> "
                "{fresh:>12.6g} ({delta:+7.1%})  {verdict}".format(**row)
            )
        else:
            note = row.get("note", "")
            lines.append(
                f"  {row['name']:<22s} {row['metric']:<20s} "
                f"{row['verdict']}{'  (' + note + ')' if note else ''}"
            )
    if failures:
        lines.append("FAIL: " + failures[0])
        lines.extend("      " + reason for reason in failures[1:])
    else:
        lines.append("PASS: no tracked metric regressed")
    return "\n".join(lines)


def run_benchmarks(bench_dir: Path, only: set[str] | None = None) -> int:
    """Re-run the BENCH-emitting benchmark modules; returns pytest's rc.

    ``only`` restricts the run to the modules emitting those BENCH names.
    """
    modules = modules_for(bench_dir, only) if only else bench_modules(bench_dir)
    if not modules:
        print("bench-gate: no benchmark modules emit write_bench_json", file=sys.stderr)
        return 1
    env = dict(os.environ)
    # The benchmarks then write their BENCH files into the checkout, where
    # the gate reads them back (by default they go to a temporary dir).
    env["REPRO_BENCH_ARTEFACTS"] = "1"
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", *[str(m) for m in modules]]
    print("bench-gate: running", " ".join(cmd))
    return subprocess.run(cmd, cwd=REPO_ROOT, env=env).returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks-dir", type=Path,
                        default=REPO_ROOT / "benchmarks",
                        help="directory holding the checked-in BENCH_*.json")
    parser.add_argument("--fresh-dir", type=Path, default=None,
                        help="directory holding freshly produced BENCH_*.json "
                             "(required with --no-run)")
    parser.add_argument("--no-run", action="store_true",
                        help="skip re-running benchmarks; compare --fresh-dir "
                             "against the checked-in entries")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get("REPRO_BENCH_TOLERANCE",
                                                     DEFAULT_TOLERANCE)),
                        help="fractional slack before a metric counts as "
                             f"regressed (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--strict-host", action="store_true",
                        help="compare entries even when the host fingerprint "
                             "differs from the checked-in one")
    parser.add_argument("--keep-fresh", action="store_true",
                        help="leave the re-run's BENCH files in place instead "
                             "of restoring the checked-in ones")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="gate only this BENCH name (repeatable); other "
                             "checked-in artefacts are neither re-run nor "
                             "compared")
    parser.add_argument("--list", action="store_true", dest="list_benchmarks",
                        help="list the checked-in BENCH names and their "
                             "emitting modules, then exit")
    args = parser.parse_args(argv)

    if args.no_run and args.fresh_dir is None:
        parser.error("--no-run requires --fresh-dir")

    bench_dir: Path = args.benchmarks_dir
    baselines = load_entries(bench_dir)

    if args.list_benchmarks:
        by_name: dict[str, Path] = {}
        for module in bench_modules(bench_dir):
            for name in emitted_names(module):
                by_name.setdefault(name, module)
        for name in sorted(set(baselines) | set(by_name)):
            module = by_name.get(name)
            status = "" if name in baselines else "  (no checked-in baseline)"
            print(f"{name:<22s} {module.name if module else '<unknown module>'}"
                  f"{status}")
        return 0

    if not baselines:
        print(f"bench-gate: no BENCH_*.json under {bench_dir}; nothing to gate")
        return 0

    only: set[str] | None = set(args.only) if args.only else None
    if only:
        unknown = only - set(baselines)
        if unknown:
            parser.error("unknown BENCH name(s): " + ", ".join(sorted(unknown))
                         + " (see --list)")
        baselines = {name: entry for name, entry in baselines.items()
                     if name in only}

    if args.no_run:
        fresh = load_entries(args.fresh_dir)
    else:
        # Snapshot the checked-in artefacts: the benchmarks overwrite the
        # BENCH files and append to the log in place, and the gate must not
        # dirty the working tree.
        with tempfile.TemporaryDirectory(prefix="bench-gate-") as tmp:
            snapshot = Path(tmp)
            before = artefact_paths(bench_dir)
            for path in before:
                shutil.copy2(path, snapshot / path.name)
            rc = run_benchmarks(bench_dir, only)
            fresh = load_entries(bench_dir)
            if not args.keep_fresh:
                for path in set(artefact_paths(bench_dir)) - set(before):
                    path.unlink()
                for path in before:
                    shutil.copy2(snapshot / path.name, path)
            if rc != 0:
                print("bench-gate: benchmark run failed", file=sys.stderr)
                return 1

    if only:
        fresh = {name: entry for name, entry in fresh.items() if name in only}

    rows, failures = compare_entries(
        baselines, fresh, tolerance=args.tolerance, strict_host=args.strict_host,
    )
    print(render_report(rows, failures, args.tolerance))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
