"""The paired-run verdict of ``scripts/ab_pairs.py``."""

from __future__ import annotations

import importlib.util
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
