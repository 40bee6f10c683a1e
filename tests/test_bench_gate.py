"""The benchmark regression gate (``scripts/check_bench_regression.py``).

The gate compares freshly produced ``BENCH_*.json`` entries against the
checked-in perf trajectory and fails when a tracked metric (speedup, p50
latency) slips beyond tolerance.  These tests drive the comparison logic
and the CLI's ``--no-run`` path with fabricated entries -- no benchmarks
are actually executed.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).resolve().parents[1]
           / "scripts" / "check_bench_regression.py")


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

_HOST = {
    "platform": "Linux-test", "python": "3.11.7", "machine": "x86_64",
    "cpu_count": 4, "numpy": "2.0.0", "sweep_backend": "auto",
}


def _entry(name, *, speedup=None, p50=None, host=None, preset="fast"):
    entry = {
        "schema": 1, "name": name, "written_unix": 1.0, "preset": preset,
        "host": dict(host if host is not None else _HOST),
        "workload": {"cardinality": 1000},
        "config": {"shards": 4, "executor": "process"},
    }
    if speedup is not None:
        entry["speedup"] = speedup
    if p50 is not None:
        # write_bench_json nests percentiles under the query kind.
        entry["latency"] = {"maxrs": {"count": 64, "p50_seconds": p50,
                                      "p95_seconds": p50 * 2,
                                      "p99_seconds": p50 * 3}}
    return entry


def _write(directory, entries):
    directory.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        path = directory / f"BENCH_{entry['name']}.json"
        path.write_text(json.dumps(entry), encoding="utf-8")


class TestCompareEntries:
    def test_within_tolerance_passes(self):
        base = {"shards": _entry("shards", speedup=2.0, p50=0.010)}
        fresh = {"shards": _entry("shards", speedup=1.8, p50=0.012)}
        rows, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures == []
        verdicts = {(r["name"], r["metric"]): r["verdict"] for r in rows}
        assert verdicts[("shards", "speedup")] == "ok"
        assert verdicts[("shards", "latency.maxrs.p50_seconds")] == "ok"

    def test_speedup_regression_fails(self):
        base = {"shards": _entry("shards", speedup=2.0)}
        fresh = {"shards": _entry("shards", speedup=1.0)}
        rows, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert len(failures) == 1
        assert "speedup" in failures[0] and "shards" in failures[0]
        assert any(r["verdict"] == "REGRESSED" for r in rows)

    def test_p50_regression_fails_but_improvement_passes(self):
        base = {"q": _entry("q", p50=0.010)}
        slow = {"q": _entry("q", p50=0.020)}
        fast = {"q": _entry("q", p50=0.002)}
        _, failures = gate.compare_entries(base, slow, tolerance=0.30)
        assert failures and "latency.maxrs.p50_seconds" in failures[0]
        _, failures = gate.compare_entries(base, fast, tolerance=0.30)
        assert failures == []

    def test_saturated_speedups_compare_as_equal(self):
        # Both orders-of-magnitude: exact ratio is noise, not a regression.
        base = {"q": _entry("q", speedup=168.0)}
        fresh = {"q": _entry("q", speedup=77.0)}
        _, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures == []
        # Falling out of the saturated regime is a real regression.
        fresh = {"q": _entry("q", speedup=3.0)}
        _, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures and "speedup" in failures[0]

    def test_sub_floor_p50s_never_fail(self):
        """Microsecond p50s live inside one histogram-bucket quantum: a
        3.5us -> 7us flip is adjacent-bucket noise, not a regression."""
        base = {"q": _entry("q", p50=3.5e-06)}
        fresh = {"q": _entry("q", p50=7e-06)}
        _, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures == []
        # Blowing past the absolute floor is a real hot-path regression
        # (a cache hit turning into a solve) and still fails.
        fresh = {"q": _entry("q", p50=2 * gate.LATENCY_FLOOR_SECONDS)}
        _, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures and "latency.maxrs.p50_seconds" in failures[0]

    def test_tolerance_boundary_is_inclusive(self):
        base = {"q": _entry("q", speedup=2.0)}
        fresh = {"q": _entry("q", speedup=2.0 * 0.7)}
        _, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures == []

    def test_missing_fresh_entry_fails(self):
        base = {"gone": _entry("gone", speedup=2.0)}
        _, failures = gate.compare_entries(base, {}, tolerance=0.30)
        assert failures and "gone" in failures[0]

    def test_lost_tracked_metric_fails(self):
        base = {"q": _entry("q", speedup=2.0, p50=0.010)}
        fresh = {"q": _entry("q", speedup=2.0)}
        _, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures and "latency.maxrs.p50_seconds" in failures[0]

    def test_host_mismatch_skips_unless_strict(self):
        other_host = dict(_HOST, cpu_count=64)
        base = {"q": _entry("q", speedup=4.0)}
        fresh = {"q": _entry("q", speedup=1.0, host=other_host)}
        rows, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures == []
        assert rows[0]["verdict"] == "SKIP"
        assert "cpu_count" in rows[0]["note"]
        _, failures = gate.compare_entries(base, fresh, tolerance=0.30,
                                           strict_host=True)
        assert failures and "speedup" in failures[0]

    def test_preset_mismatch_skips(self):
        base = {"q": _entry("q", speedup=4.0)}
        fresh = {"q": _entry("q", speedup=1.0, preset="smoke")}
        rows, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures == []
        assert rows[0]["verdict"] == "SKIP" and "preset" in rows[0]["note"]

    def test_new_fresh_entry_is_reported_not_failed(self):
        fresh = {"brand_new": _entry("brand_new", speedup=3.0)}
        rows, failures = gate.compare_entries({}, fresh, tolerance=0.30)
        assert failures == []
        assert rows[0]["verdict"] == "NEW"

    def test_baseline_without_tracked_metrics_skips(self):
        base = {"q": _entry("q")}
        fresh = {"q": _entry("q")}
        rows, failures = gate.compare_entries(base, fresh, tolerance=0.30)
        assert failures == []
        assert rows[0]["verdict"] == "SKIP"


class TestHelpers:
    def test_lookup_resolves_dotted_paths(self):
        entry = _entry("q", speedup=2.5, p50=0.01)
        assert gate.lookup(entry, "speedup") == 2.5
        assert gate.lookup(entry, "latency.maxrs.p50_seconds") == 0.01
        assert gate.lookup(entry, "latency.nope.p50_seconds") is None
        assert gate.lookup(entry, "host") is None  # dicts are not metrics

    def test_load_entries_keys_by_name(self, tmp_path):
        _write(tmp_path, [_entry("alpha", speedup=1.0),
                          _entry("beta", p50=0.5)])
        (tmp_path / "not_a_bench.json").write_text("{}", encoding="utf-8")
        entries = gate.load_entries(tmp_path)
        assert set(entries) == {"alpha", "beta"}

    def test_bench_modules_finds_emitters(self):
        modules = {p.name for p in
                   gate.bench_modules(gate.REPO_ROOT / "benchmarks")}
        assert "test_service_shards.py" in modules
        assert "test_service_throughput.py" in modules
        assert "test_figure12_cardinality.py" not in modules

    def test_real_checked_in_artefacts_load_and_self_compare(self):
        baselines = gate.load_entries(gate.REPO_ROOT / "benchmarks")
        assert "shards" in baselines
        assert any(gate.tracked_metrics(e) for e in baselines.values())
        assert baselines["shards"]["config"]["executor"] in (
            "serial", "threaded", "process")
        rows, failures = gate.compare_entries(
            baselines, copy.deepcopy(baselines), tolerance=0.0,
            strict_host=True)
        assert failures == []


class TestCli:
    def _run(self, argv, capsys):
        rc = gate.main(argv)
        return rc, capsys.readouterr().out

    def test_no_run_passes_within_tolerance(self, tmp_path, capsys):
        base_dir, fresh_dir = tmp_path / "base", tmp_path / "fresh"
        _write(base_dir, [_entry("shards", speedup=2.0, p50=0.01)])
        _write(fresh_dir, [_entry("shards", speedup=1.9, p50=0.011)])
        rc, out = self._run(["--no-run", "--benchmarks-dir", str(base_dir),
                             "--fresh-dir", str(fresh_dir)], capsys)
        assert rc == 0
        assert "PASS" in out

    def test_no_run_fails_on_regression(self, tmp_path, capsys):
        base_dir, fresh_dir = tmp_path / "base", tmp_path / "fresh"
        _write(base_dir, [_entry("shards", speedup=2.0)])
        _write(fresh_dir, [_entry("shards", speedup=0.5)])
        rc, out = self._run(["--no-run", "--benchmarks-dir", str(base_dir),
                             "--fresh-dir", str(fresh_dir)], capsys)
        assert rc == 1
        assert "FAIL" in out and "speedup" in out

    def test_tolerance_flag_overrides_default(self, tmp_path, capsys):
        base_dir, fresh_dir = tmp_path / "base", tmp_path / "fresh"
        _write(base_dir, [_entry("shards", speedup=2.0)])
        _write(fresh_dir, [_entry("shards", speedup=1.2)])
        rc, _ = self._run(["--no-run", "--benchmarks-dir", str(base_dir),
                           "--fresh-dir", str(fresh_dir),
                           "--tolerance", "0.5"], capsys)
        assert rc == 0

    def test_no_baselines_is_a_pass(self, tmp_path, capsys):
        rc, out = self._run(["--no-run", "--benchmarks-dir", str(tmp_path),
                             "--fresh-dir", str(tmp_path)], capsys)
        assert rc == 0
        assert "nothing to gate" in out

    def test_run_leaves_bench_files_and_artefact_log_untouched(
            self, tmp_path, monkeypatch, capsys):
        """The gate restores what the re-run rewrites or appends to, and
        removes what it creates."""
        bench_dir = tmp_path / "benchmarks"
        _write(bench_dir, [_entry("shards", speedup=2.0, p50=0.01)])
        (bench_dir / gate.ARTEFACT_LOG).write_text("checked-in entry\n",
                                                   encoding="utf-8")
        before = {p.name: p.read_bytes() for p in bench_dir.iterdir()}

        def fake_run(directory, only=None):
            _write(directory, [_entry("shards", speedup=1.9, p50=0.011),
                               _entry("brand_new", speedup=1.0)])
            with (directory / gate.ARTEFACT_LOG).open(
                    "a", encoding="utf-8") as log:
                log.write("fresh entry\n")
            return 0

        monkeypatch.setattr(gate, "run_benchmarks", fake_run)
        rc, out = self._run(["--benchmarks-dir", str(bench_dir)], capsys)
        assert rc == 0, out
        assert {p.name: p.read_bytes() for p in bench_dir.iterdir()} == before

    def test_no_run_requires_fresh_dir(self, tmp_path):
        with pytest.raises(SystemExit):
            gate.main(["--no-run", "--benchmarks-dir", str(tmp_path)])
