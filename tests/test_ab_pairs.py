"""The paired-run verdict of ``scripts/ab_pairs.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.40, 0.42, 0.39, 0.45, 0.41, 0.43, 0.38, 0.44, 0.40, 0.42]


def test_clear_gain_is_claimable(ab_pairs):
    change = [p * 1.7 for p in PARENT]
    result = ab_pairs.verdict(PARENT, change, "higher")
    assert result["wins"] == 10 and result["pairs"] == 10
    assert result["parent"] == pytest.approx((0.4, 0.415, 0.4275))
    assert result["change"][1] == pytest.approx(0.415 * 1.7)
    assert result["gain"] is True


def test_nine_of_ten_wins_is_enough_ten_percent_loss_is_not(ab_pairs):
    change = [p * 1.7 for p in PARENT]
    change[3] = PARENT[3]           # a tie counts for neither side
    assert ab_pairs.verdict(PARENT, change, "higher")["wins"] == 9
    assert ab_pairs.verdict(PARENT, change, "higher")["gain"] is True
    change[4] = PARENT[4] - 0.01    # a second pair not won
    result = ab_pairs.verdict(PARENT, change, "higher")
    assert result["wins"] == 8 and result["gain"] is False


def test_gap_must_exceed_the_parent_spread(ab_pairs):
    # Every pair won, but by less than the parent's own quartile distance.
    change = [p + 0.01 for p in PARENT]
    result = ab_pairs.verdict(PARENT, change, "higher")
    assert result["wins"] == 10
    spread = result["parent"][2] - result["parent"][0]
    assert 0.01 < spread
    assert result["gain"] is False


def test_lower_is_better_metrics(ab_pairs):
    parent = [68.0, 67.5, 68.2, 67.9, 68.1, 67.7, 68.0, 67.6, 68.3, 67.8]
    smaller = [p - 5.0 for p in parent]
    assert ab_pairs.verdict(parent, smaller, "lower")["gain"] is True
    larger = [p + 5.0 for p in parent]
    result = ab_pairs.verdict(parent, larger, "lower")
    assert result["wins"] == 0 and result["gain"] is False


def test_bad_input_rejected(ab_pairs):
    with pytest.raises(ValueError):
        ab_pairs.verdict([1.0], [1.0, 2.0], "higher")
    with pytest.raises(ValueError):
        ab_pairs.verdict([], [], "higher")
    with pytest.raises(ValueError):
        ab_pairs.verdict([1.0], [2.0], "faster")


def test_no_regression_verdicts(ab_pairs):
    # PARENT's spread is 0.0275 / 0.415, well inside a 0.25 bound.
    assert ab_pairs.verdict(PARENT, PARENT, "higher")["regression"] is None
    slower = [p * 0.9 for p in PARENT]
    assert ab_pairs.verdict(PARENT, slower, "higher", 0.25)["regression"] \
        == ab_pairs.WITHIN
    much_slower = [p * 0.7 for p in PARENT]
    assert ab_pairs.verdict(PARENT, much_slower, "higher", 0.25)[
        "regression"] == ab_pairs.WORSE
    # Lower is better: 30% more memory breaks a 0.2 bound, 10% does not.
    rss = [68.0, 67.5, 68.2, 67.9, 68.1, 67.7, 68.0, 67.6, 68.3, 67.8]
    assert ab_pairs.verdict(rss, [r * 1.3 for r in rss], "lower", 0.2)[
        "regression"] == ab_pairs.WORSE
    assert ab_pairs.verdict(rss, [r * 1.1 for r in rss], "lower", 0.2)[
        "regression"] == ab_pairs.WITHIN


def test_a_spread_wider_than_the_bound_is_unresolved(ab_pairs):
    wide = [1.0, 1.6, 0.8, 1.5, 0.9, 1.4, 1.0, 1.3, 0.7, 1.6]
    result = ab_pairs.verdict(wide, [w * 0.95 for w in wide], "higher", 0.25)
    q1, median, q3 = result["parent"]
    assert q3 - q1 > 0.25 * median
    assert result["regression"] == ab_pairs.UNRESOLVED
    # Unless every change run beats every parent run.
    assert ab_pairs.verdict(wide, [1.7] * 10, "higher", 0.25)[
        "regression"] == ab_pairs.WITHIN
    # A median worse by more than the bound is worse, spread or not.
    assert ab_pairs.verdict(wide, [w * 0.5 for w in wide], "higher", 0.25)[
        "regression"] == ab_pairs.WORSE


def test_negative_bound_rejected(ab_pairs):
    with pytest.raises(ValueError):
        ab_pairs.verdict(PARENT, PARENT, "higher", -0.1)


def test_trace_compares_the_per_layer_metrics(ab_pairs, monkeypatch,
                                              capsys, tmp_path):
    # Stubbed runs: the change halves the sweep layer and leaves the event
    # build alone; every other per-layer metric reads 0.
    calls = []

    def run_benchmark(root, workload, seed, seconds, trace=0):
        change = root == Path.cwd()
        calls.append((change, workload, seed, trace))
        sweep = (0.5 if change else 1.0) + seed / 100.0
        values = {"core.backends.numpy.sweep_s": sweep,
                  "core.transform.events_s": 0.2 + seed / 1000.0}
        return {"attempted": 7, "failed": 0,
                "metrics": {name: {"value": values.get(name, 0.0)}
                            for name in _per_layer_names()}}

    monkeypatch.chdir(_SCRIPT.parents[1])
    monkeypatch.setattr(ab_pairs, "run_benchmark", run_benchmark)
    monkeypatch.setattr(ab_pairs, "export_revision",
                        lambda checkout, revision, into: tmp_path)
    assert ab_pairs.main(["--parent", "HEAD", "--workload", "uniform-exact",
                          "--pairs", "4", "--seconds", "1", "--seed-base",
                          "10", "--trace"]) == 0
    assert len(calls) == 8
    assert {trace for *_, trace in calls} == {1}
    summary = capsys.readouterr().out.split("median [Q1-Q3]")[1]
    lines = [line.strip() for line in summary.strip().splitlines()]
    sweep = next(line for line in lines
                 if line.startswith("core.backends.numpy.sweep_s"))
    assert "parent 1.115 [1.107-1.123]" in sweep
    assert "change 0.615 [0.6075-0.6225]" in sweep
    assert sweep.endswith("change wins 4/4")
    events = next(line for line in lines
                  if line.startswith("core.transform.events_s"))
    assert events.endswith("change wins 0/4")
    # No bound, no claim, and no line for a metric that read 0 throughout.
    assert not any("claimable" in line or "bound" in line for line in lines)
    assert not any(line.startswith("em.block_reads") for line in lines)
    assert lines[-2:] == ["parent: attempted 28, failed 0",
                          "change: attempted 28, failed 0"]


def _per_layer_names():
    declared = json.loads((_SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    return [spec["name"] for spec in declared["per_layer"]]
