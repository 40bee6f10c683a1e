"""Reproduction of every table and figure in the paper's evaluation (Section 7).

Each function regenerates one artefact:

========  ==========================================================
table2    Table 2 -- cardinalities of the real datasets
table3    Table 3 -- default parameter values
figure12  I/O cost vs dataset cardinality (Gaussian / uniform)
figure13  I/O cost vs buffer size (Gaussian / uniform)
figure14  I/O cost vs range size (Gaussian / uniform)
figure15  I/O cost vs buffer size on the real datasets (UX / NE)
figure16  I/O cost vs range size on the real datasets (UX / NE)
figure17  ApproxMaxCRS approximation quality vs circle diameter
========  ==========================================================

All functions accept an :class:`~repro.experiments.config.ExperimentScale`
that shrinks the workloads (the default preset is suitable for the pytest
benchmarks); pass ``PRESETS["paper"]`` to run the paper-scale sweeps.  The
absolute I/O numbers differ from the paper's (different substrate), but the
qualitative conclusions -- who wins, by how many orders of magnitude, where
the curves flatten -- are preserved; EXPERIMENTS.md records a measured run
next to the paper's reported behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.circles.exact_maxcrs import exact_maxcrs
from repro.datasets import DatasetSpec, Distribution, load_dataset
from repro.datasets.real import NE_CARDINALITY, UX_CARDINALITY
from repro.em.config import KIB
from repro.experiments.config import (
    BUFFER_SWEEP_REAL_KB,
    BUFFER_SWEEP_SYNTHETIC_KB,
    CARDINALITY_SWEEP,
    DIAMETER_SWEEP,
    RANGE_SWEEP,
    ExperimentScale,
    PaperDefaults,
)
from repro.experiments.results import FigureResult, TableResult
from repro.experiments.runner import run_maxcrs
from repro.experiments.sweeps import sweep_maxrs_series
from repro.geometry import WeightedPoint

__all__ = [
    "table2",
    "table3",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "run_all",
]

_DEFAULTS = PaperDefaults()


# ---------------------------------------------------------------------- #
# Tables
# ---------------------------------------------------------------------- #
def table2(scale: ExperimentScale | None = None) -> TableResult:
    """Table 2: the cardinalities of the real datasets (and their stand-ins)."""
    scale = scale or ExperimentScale()
    table = TableResult(
        table_id="table2",
        title="Table 2: cardinalities of the real datasets",
        header=("Dataset", "Paper cardinality", "Stand-in cardinality (this run)"),
        notes="The stand-ins are deterministic synthetic datasets with the "
              "paper's cardinalities scaled by the harness's cardinality scale.",
    )
    ux = load_dataset(scale.ux_spec())
    ne = load_dataset(scale.ne_spec())
    table.add_row("UX", UX_CARDINALITY, len(ux))
    table.add_row("NE", NE_CARDINALITY, len(ne))
    return table


def table3(scale: ExperimentScale | None = None) -> TableResult:
    """Table 3: the default values of the experiment parameters."""
    table = TableResult(
        table_id="table3",
        title="Table 3: default parameter values",
        header=("Parameter", "Default value"),
    )
    for parameter, value in _DEFAULTS.as_rows():
        table.add_row(parameter, value)
    if scale is not None and scale.cardinality_scale != 1.0:
        table.notes = (
            f"This run scales cardinalities by {scale.cardinality_scale} and "
            f"buffer sizes by {scale.buffer_scale}."
        )
    return table


# ---------------------------------------------------------------------- #
# Figure 12: effect of the dataset cardinality
# ---------------------------------------------------------------------- #
def figure12(scale: ExperimentScale | None = None) -> List[FigureResult]:
    """Figure 12: I/O cost vs cardinality, (a) Gaussian and (b) uniform."""
    scale = scale or ExperimentScale()
    results = []
    for sub, distribution in (("a", Distribution.GAUSSIAN), ("b", Distribution.UNIFORM)):
        figure = FigureResult(
            figure_id=f"figure12{sub}",
            title=f"Figure 12({sub}): effect of the dataset cardinality "
                  f"({distribution.value} distribution)",
            x_label="cardinality",
            y_label="I/O cost (transferred blocks)",
        )

        def environment(x: float, _distribution=distribution):
            spec = scale.synthetic_spec(_distribution, int(x))
            objects = load_dataset(spec)
            buffer_size = scale.buffer_size(_DEFAULTS.buffer_size_synthetic,
                                            _DEFAULTS.block_size)
            return (objects, spec.name, _DEFAULTS.rectangle_size,
                    _DEFAULTS.rectangle_size, _DEFAULTS.block_size, buffer_size)

        sweep_maxrs_series(figure, CARDINALITY_SWEEP, environment, scale)
        results.append(figure)
    return results


# ---------------------------------------------------------------------- #
# Figure 13: effect of the buffer size (synthetic datasets)
# ---------------------------------------------------------------------- #
def figure13(scale: ExperimentScale | None = None) -> List[FigureResult]:
    """Figure 13: I/O cost vs buffer size, (a) Gaussian and (b) uniform."""
    scale = scale or ExperimentScale()
    results = []
    for sub, distribution in (("a", Distribution.GAUSSIAN), ("b", Distribution.UNIFORM)):
        spec = scale.synthetic_spec(distribution, _DEFAULTS.cardinality)
        objects = load_dataset(spec)
        figure = FigureResult(
            figure_id=f"figure13{sub}",
            title=f"Figure 13({sub}): effect of the buffer size "
                  f"({distribution.value} distribution)",
            x_label="buffer size (KB)",
            y_label="I/O cost (transferred blocks)",
        )

        def environment(x: float, _objects=objects, _name=spec.name):
            buffer_size = scale.buffer_size(int(x) * KIB, _DEFAULTS.block_size)
            return (_objects, _name, _DEFAULTS.rectangle_size,
                    _DEFAULTS.rectangle_size, _DEFAULTS.block_size, buffer_size)

        sweep_maxrs_series(figure, BUFFER_SWEEP_SYNTHETIC_KB, environment, scale)
        results.append(figure)
    return results


# ---------------------------------------------------------------------- #
# Figure 14: effect of the range size (synthetic datasets)
# ---------------------------------------------------------------------- #
def figure14(scale: ExperimentScale | None = None) -> List[FigureResult]:
    """Figure 14: I/O cost vs range size, (a) Gaussian and (b) uniform."""
    scale = scale or ExperimentScale()
    results = []
    for sub, distribution in (("a", Distribution.GAUSSIAN), ("b", Distribution.UNIFORM)):
        spec = scale.synthetic_spec(distribution, _DEFAULTS.cardinality)
        objects = load_dataset(spec)
        buffer_size = scale.buffer_size(_DEFAULTS.buffer_size_synthetic,
                                        _DEFAULTS.block_size)
        figure = FigureResult(
            figure_id=f"figure14{sub}",
            title=f"Figure 14({sub}): effect of the range size "
                  f"({distribution.value} distribution)",
            x_label="range size",
            y_label="I/O cost (transferred blocks)",
        )

        def environment(x: float, _objects=objects, _name=spec.name,
                        _buffer=buffer_size):
            return (_objects, _name, float(x), float(x),
                    _DEFAULTS.block_size, _buffer)

        sweep_maxrs_series(figure, RANGE_SWEEP, environment, scale)
        results.append(figure)
    return results


# ---------------------------------------------------------------------- #
# Figures 15 and 16: real datasets
# ---------------------------------------------------------------------- #
def figure15(scale: ExperimentScale | None = None) -> List[FigureResult]:
    """Figure 15: I/O cost vs buffer size on the real datasets (a) UX, (b) NE."""
    scale = scale or ExperimentScale()
    results = []
    for sub, spec in (("a", (scale or ExperimentScale()).ux_spec()),
                      ("b", (scale or ExperimentScale()).ne_spec())):
        objects = load_dataset(spec)
        figure = FigureResult(
            figure_id=f"figure15{sub}",
            title=f"Figure 15({sub}): effect of the buffer size "
                  f"({spec.distribution.value.upper()} dataset)",
            x_label="buffer size (KB)",
            y_label="I/O cost (transferred blocks)",
        )

        def environment(x: float, _objects=objects, _name=spec.name):
            buffer_size = scale.buffer_size(int(x) * KIB, _DEFAULTS.block_size)
            return (_objects, _name, _DEFAULTS.rectangle_size,
                    _DEFAULTS.rectangle_size, _DEFAULTS.block_size, buffer_size)

        sweep_maxrs_series(figure, BUFFER_SWEEP_REAL_KB, environment, scale)
        results.append(figure)
    return results


def figure16(scale: ExperimentScale | None = None) -> List[FigureResult]:
    """Figure 16: I/O cost vs range size on the real datasets (a) UX, (b) NE."""
    scale = scale or ExperimentScale()
    results = []
    for sub, spec in (("a", scale.ux_spec()), ("b", scale.ne_spec())):
        objects = load_dataset(spec)
        buffer_size = scale.buffer_size(_DEFAULTS.buffer_size_real,
                                        _DEFAULTS.block_size)
        figure = FigureResult(
            figure_id=f"figure16{sub}",
            title=f"Figure 16({sub}): effect of the range size "
                  f"({spec.distribution.value.upper()} dataset)",
            x_label="range size",
            y_label="I/O cost (transferred blocks)",
        )

        def environment(x: float, _objects=objects, _name=spec.name,
                        _buffer=buffer_size):
            return (_objects, _name, float(x), float(x),
                    _DEFAULTS.block_size, _buffer)

        sweep_maxrs_series(figure, RANGE_SWEEP, environment, scale)
        results.append(figure)
    return results


# ---------------------------------------------------------------------- #
# Figure 17: approximation quality of ApproxMaxCRS
# ---------------------------------------------------------------------- #
def figure17(scale: ExperimentScale | None = None) -> FigureResult:
    """Figure 17: ratio W(c_hat) / W(c*) as the circle diameter varies.

    The exact optimum ``W(c*)`` comes from the angular sweep the paper called
    "not practical" at ``O(n^2 log n)``.  Swept for every circle in one
    vectorised pass it costs ``O(n + P log P)`` for the ``P`` object pairs
    closer than the diameter; the workloads use the harness's quality scale.
    """
    scale = scale or ExperimentScale()
    figure = FigureResult(
        figure_id="figure17",
        title="Figure 17: approximation quality of ApproxMaxCRS",
        x_label="diameter",
        y_label="ratio W(c_hat) / W(c*)",
    )
    datasets: Dict[str, Sequence[WeightedPoint]] = {
        "Uniform": load_dataset(DatasetSpec(
            Distribution.UNIFORM,
            scale.quality_cardinality(_DEFAULTS.cardinality), seed=7)),
        "Gaussian": load_dataset(DatasetSpec(
            Distribution.GAUSSIAN,
            scale.quality_cardinality(_DEFAULTS.cardinality), seed=7)),
        "UX": load_dataset(DatasetSpec(
            Distribution.UX, scale.quality_cardinality(UX_CARDINALITY), seed=17)),
        "NE": load_dataset(DatasetSpec(
            Distribution.NE, scale.quality_cardinality(NE_CARDINALITY), seed=19)),
    }
    buffer_size = scale.buffer_size(_DEFAULTS.buffer_size_synthetic,
                                    _DEFAULTS.block_size)
    for name, objects in datasets.items():
        for diameter in DIAMETER_SWEEP:
            record = run_maxcrs(
                list(objects), dataset_name=name.lower(), diameter=diameter,
                block_size=_DEFAULTS.block_size, buffer_size=buffer_size,
                extra_parameters={"diameter": diameter},
            )
            _, optimum = exact_maxcrs(list(objects), diameter)
            ratio = 1.0 if optimum <= 0 else min(1.0, record.total_weight / optimum)
            figure.add_point(name, diameter, ratio, record)
    figure.notes = ("The theoretical guarantee is 1/4; the measured ratios are "
                    "expected to be far higher and to stabilise as the diameter grows.")
    return figure


# ---------------------------------------------------------------------- #
# Everything at once
# ---------------------------------------------------------------------- #
def run_all(scale: ExperimentScale | None = None) -> Dict[str, object]:
    """Reproduce every table and figure; returns a mapping id -> result object."""
    scale = scale or ExperimentScale()
    artefacts: Dict[str, object] = {}
    artefacts["table2"] = table2(scale)
    artefacts["table3"] = table3(scale)
    for figure in (*figure12(scale), *figure13(scale), *figure14(scale),
                   *figure15(scale), *figure16(scale)):
        artefacts[figure.figure_id] = figure
    fig17 = figure17(scale)
    artefacts[fig17.figure_id] = fig17
    return artefacts
