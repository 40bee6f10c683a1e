"""A Prometheus text-exposition *linter* over the real metrics surface.

``metrics_text`` output is consumed by real scrapers, which are strict
about things nothing else in the test suite would catch: metric/label name
charsets, HELP/TYPE pairing per family, sample ordering within a family,
and -- for histograms -- monotone ``le`` bounds with cumulative bucket
counts that reconcile with ``_count``.  This test parses the exposition
line-by-line against those rules, driven by an engine exercising the full
surface (counters, stages, gauges, histograms).
"""

import math
import re

import pytest

from repro import obs
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec
from repro.service.metrics import EngineMetrics

METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")
SAMPLE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>\S+)\Z")
LABEL_PAIR = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\Z')


def family_of(sample_name: str) -> str:
    """The family a sample belongs to (histogram suffixes fold in)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    return float(text)


def lint(text: str):
    """Parse one exposition payload, asserting the format rules; returns
    ``(samples, types)``: the parsed samples and each family's TYPE."""
    assert text.endswith("\n"), "exposition must end with a newline"
    helps, types, samples = {}, {}, []
    for line in text.splitlines():
        assert line == line.rstrip(), f"trailing whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert METRIC_NAME.match(name), name
            assert name not in helps, f"duplicate HELP for {name}"
            assert help_text.strip(), f"empty HELP for {name}"
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_text = rest.partition(" ")
            assert type_text in ("counter", "gauge", "histogram"), line
            assert name not in types, f"duplicate TYPE for {name}"
            assert name in helps, f"TYPE before HELP for {name}"
            types[name] = type_text
        elif line.startswith("#"):
            raise AssertionError(f"unknown comment line: {line!r}")
        else:
            match = SAMPLE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            name = match.group("name")
            family = family_of(name)
            assert family in types, f"sample {name} has no TYPE ({line!r})"
            labels = {}
            raw = match.group("labels")
            if raw is not None:
                for pair in _split_labels(raw):
                    pair_match = LABEL_PAIR.match(pair)
                    assert pair_match, f"bad label pair {pair!r} in {line!r}"
                    label = pair_match.group("name")
                    assert not label.startswith("__"), \
                        f"reserved label {label!r}"
                    assert label not in labels, \
                        f"duplicate label {label!r} in {line!r}"
                    labels[label] = pair_match.group("value")
            samples.append((name, labels, parse_value(match.group("value"))))
    # Histogram suffixes may not collide with declared scalar families.
    for family, type_text in types.items():
        family_samples = [s for s in samples if family_of(s[0]) == family]
        assert family_samples, f"family {family} declared but empty-bodied" \
            if type_text == "histogram" else True
    return samples, types


def _split_labels(raw: str):
    """Split ``a="x",b="y"`` respecting escaped quotes inside values."""
    parts, depth_in_string, start = [], False, 0
    index = 0
    while index < len(raw):
        char = raw[index]
        if char == "\\" and depth_in_string:
            index += 2
            continue
        if char == '"':
            depth_in_string = not depth_in_string
        elif char == "," and not depth_in_string:
            parts.append(raw[start:index])
            start = index + 1
        index += 1
    if raw[start:]:
        parts.append(raw[start:])
    return parts


def assert_histograms_are_cumulative(samples, types):
    """Per histogram series (family + non-le labels): ``le`` bounds strictly
    increase, bucket counts never decrease, the series ends at ``+Inf``,
    and the +Inf bucket equals the family's ``_count`` sample."""
    series = {}
    for name, labels, value in samples:
        family = family_of(name)
        if types.get(family) != "histogram" or not name.endswith("_bucket"):
            continue
        key = (family, tuple(sorted((k, v) for k, v in labels.items()
                                    if k != "le")))
        series.setdefault(key, []).append((parse_value(labels["le"]), value))
    assert series, "no histogram series found"
    counts = {(family_of(name),
               tuple(sorted(labels.items()))): value
              for name, labels, value in samples if name.endswith("_count")
              and types.get(family_of(name)) == "histogram"}
    for (family, label_key), buckets in series.items():
        bounds = [bound for bound, _ in buckets]
        assert bounds == sorted(bounds), f"{family}{label_key}: le not sorted"
        assert len(set(bounds)) == len(bounds), \
            f"{family}{label_key}: duplicate le"
        assert bounds[-1] == math.inf, f"{family}{label_key}: missing +Inf"
        values = [value for _, value in buckets]
        assert values == sorted(values), \
            f"{family}{label_key}: bucket counts not cumulative"
        assert values[-1] == counts[(family, label_key)], \
            f"{family}{label_key}: +Inf bucket != _count"


def exercised_engine():
    engine = MaxRSEngine()
    points = [WeightedPoint(float(i % 30) * 3.0, float(i // 30) * 3.0,
                            1.0 + i % 5) for i in range(900)]
    dataset = engine.register_dataset(points)
    for spec in (QuerySpec.maxrs(10.0, 10.0), QuerySpec.maxrs(4.0, 20.0),
                 QuerySpec.maxkrs(8.0, 8.0, 2),
                 QuerySpec.maxrs(10.0, 10.0, refine=False)):
        engine.query(dataset, spec)
    return engine


def test_real_exposition_passes_the_linter():
    engine = exercised_engine()
    try:
        text = engine.metrics_text()  # includes sampled gauges
        samples, types = lint(text)
        assert_histograms_are_cumulative(samples, types)
        families = set(types)
        assert {"repro_counter_total", "repro_stage_seconds_total",
                "repro_stage_count_total", "repro_latency_seconds",
                "repro_process_rss_bytes", "repro_cache_entries"} <= families
        # Gauges are typed gauge; cumulative series are typed counter.
        assert types["repro_process_rss_bytes"] == "gauge"
        assert types["repro_counter_total"] == "counter"
        assert types["repro_latency_seconds"] == "histogram"
    finally:
        engine.close()


def test_escaped_gauge_labels_pass_the_linter():
    """Synthetic state: stage timings plus a gauge whose label needs
    escaping."""
    metrics = EngineMetrics()
    metrics.increment("queries", 2)
    metrics.observe_latency("maxrs", 0.01)
    metrics.observe_seconds("refine", 0.5)
    metrics.set_gauge("custom_gauge", 1.5, path='tricky"\\name\n')
    text = obs.metrics_text(metrics)
    samples, types = lint(text)
    assert_histograms_are_cumulative(samples, types)
    by_name = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))
    assert ({"name": "queries"}, 2.0) in by_name["repro_counter_total"]
    assert ({"stage": "refine"}, 0.5) in \
        by_name["repro_stage_seconds_total"]
    # The escaped label round-trips through the linter's unescape-free
    # parser as its escaped form.
    tricky = by_name["repro_custom_gauge"][0][0]["path"]
    assert tricky == 'tricky\\"\\\\name\\n'


def test_malformed_expositions_fail_the_linter():
    """The linter itself has teeth (guards against a vacuous pass)."""
    with pytest.raises(AssertionError):
        lint("repro_orphan_total 1\n")  # sample without TYPE
    with pytest.raises(AssertionError):
        lint("# HELP m h\n# TYPE m counter\n# TYPE m counter\nm 1\n")
    with pytest.raises(AssertionError):
        lint("# TYPE m counter\nm 1\n")  # TYPE before HELP
    bad_hist = (
        "# HELP h x\n# TYPE h histogram\n"
        'h_bucket{le="0.1"} 5\nh_bucket{le="1"} 3\n'  # not cumulative
        'h_bucket{le="+Inf"} 5\nh_sum 1\nh_count 5\n')
    samples, types = lint(bad_hist)
    with pytest.raises(AssertionError):
        assert_histograms_are_cumulative(samples, types)
