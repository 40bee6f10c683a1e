"""Tests for the experiment harness (:mod:`repro.experiments`).

These run the real figure-reproduction code at a very small scale, checking
both that the machinery works end to end and that the *qualitative* claims of
the paper hold: all algorithms agree on the optimum, ExactMaxRS transfers the
fewest blocks, and the ApproxMaxCRS quality ratios respect the 1/4 bound.
"""

import pytest

from repro.experiments import ExperimentScale, PRESETS, figures, reporting, run_maxrs
from repro.experiments.config import ALGORITHMS, PaperDefaults
from repro.experiments.results import FigureResult, TableResult
from repro.experiments.sweeps import consistency_check
from repro.datasets import DatasetSpec, Distribution, load_dataset
from repro.errors import ConfigurationError

#: A deliberately tiny scale so harness tests run in a few seconds.
_TINY = ExperimentScale(cardinality_scale=0.004, buffer_scale=0.03,
                        simulate_baselines=True, quality_cardinality_scale=0.002)


class TestConfig:
    def test_presets_exist(self):
        assert set(PRESETS) == {"paper", "bench", "smoke"}
        assert PRESETS["paper"].cardinality_scale == 1.0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(cardinality_scale=0.0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(buffer_scale=2.0)

    def test_scaled_quantities(self):
        scale = ExperimentScale(cardinality_scale=0.1, buffer_scale=0.5)
        assert scale.cardinality(250_000) == 25_000
        assert scale.buffer_size(1024 * 1024, 4096) == 512 * 1024
        assert scale.buffer_size(4096, 4096) == 8192  # never below two blocks

    def test_paper_defaults_match_table3(self):
        defaults = PaperDefaults()
        assert defaults.cardinality == 250_000
        assert defaults.block_size == 4096
        assert defaults.rectangle_size == 1000.0
        assert defaults.circle_diameter == 1000.0
        assert len(defaults.as_rows()) == 6


class TestRunner:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            run_maxrs("Quadtree", [], dataset_name="x", width=1, height=1,
                      block_size=512, buffer_size=2048)

    def test_all_algorithms_agree_on_small_workload(self):
        objects = load_dataset(DatasetSpec(Distribution.UNIFORM, 400, seed=3))
        records = [
            run_maxrs(name, objects, dataset_name="uniform-400",
                      width=50_000.0, height=50_000.0,
                      block_size=4096, buffer_size=16 * 4096)
            for name in ALGORITHMS
        ]
        weights = {round(record.total_weight, 6) for record in records}
        assert len(weights) == 1
        assert all(record.io_total > 0 for record in records)

    def test_io_total_is_reads_plus_writes(self):
        objects = load_dataset(DatasetSpec(Distribution.UNIFORM, 200, seed=3))
        record = run_maxrs("ExactMaxRS", objects, dataset_name="u",
                           width=10_000.0, height=10_000.0,
                           block_size=4096, buffer_size=8 * 4096)
        assert record.io_total == record.io_reads + record.io_writes


class TestTables:
    def test_table2_contains_both_datasets(self):
        table = figures.table2(_TINY)
        assert isinstance(table, TableResult)
        names = [row[0] for row in table.rows]
        assert names == ["UX", "NE"]
        assert table.rows[0][1] == 19_499
        assert table.rows[1][1] == 123_593

    def test_table3_lists_all_defaults(self):
        table = figures.table3(_TINY)
        assert len(table.rows) == 6
        parameters = [row[0] for row in table.rows]
        assert "Cardinality (|O|)" in parameters
        assert "Circle diameter (d)" in parameters


class TestFigures:
    def test_figure12_shape(self):
        results = figures.figure12(_TINY)
        assert len(results) == 2
        for figure in results:
            assert isinstance(figure, FigureResult)
            assert set(figure.series) == set(ALGORITHMS)
            assert len(figure.x_values()) == 5
            # All algorithms agreed on the optimum at every swept point.
            assert all(consistency_check(figure).values())
            # ExactMaxRS never transfers more blocks than the naive sweep.
            for x in figure.x_values():
                assert figure.value_at("ExactMaxRS", x) <= figure.value_at("Naive", x)

    def test_figure14_exactmaxrs_least_io(self):
        for figure in figures.figure14(_TINY):
            for x in figure.x_values():
                exact = figure.value_at("ExactMaxRS", x)
                assert exact <= figure.value_at("Naive", x)
                assert exact <= figure.value_at("aSB-Tree", x)

    def test_figure15_buffer_growth_never_hurts(self):
        for figure in figures.figure15(_TINY):
            for algorithm in ALGORITHMS:
                series = [y for _, y in figure.series[algorithm]]
                # Larger buffers never increase the I/O cost.
                assert all(later <= earlier + 1e-9
                           for earlier, later in zip(series, series[1:]))

    def test_figure17_ratios_respect_bound(self):
        figure = figures.figure17(_TINY)
        assert set(figure.series) == {"Uniform", "Gaussian", "UX", "NE"}
        for points in figure.series.values():
            for _, ratio in points:
                assert 0.25 - 1e-9 <= ratio <= 1.0 + 1e-9


class TestReporting:
    def test_format_table(self):
        text = reporting.format_table(figures.table3(_TINY))
        assert "Table 3" in text
        assert "Cardinality" in text

    def test_format_figure(self):
        figure = FigureResult("figX", "Figure X: demo", "n", "io")
        figure.add_point("A", 1.0, 10.0)
        figure.add_point("A", 2.0, 20.0)
        figure.add_point("B", 1.0, 5.0)
        text = reporting.format_figure(figure)
        assert "Figure X: demo" in text
        assert "A" in text and "B" in text
        assert "-" in text  # missing point for B at x=2 rendered as '-'

    def test_format_artefacts(self):
        artefacts = {"table3": figures.table3(_TINY)}
        assert "Table 3" in reporting.format_artefacts(artefacts)
