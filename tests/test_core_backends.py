"""Tests for the pluggable sweep backends (:mod:`repro.core.backends`).

The heart of this module is the cross-backend parity property test: on
randomised datasets with integer-valued weights (whose location-weight sums
are exactly representable, the determinism contract of the backend layer),
the numpy backend must produce **bit-identical** slab-files and best strips
to the pure-Python reference sweep -- including argmax tie-breaking and
maximal-run extension.
"""

import contextlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.backends as backends_module
from repro.core.backends import (
    auto_crossover,
    available_backends,
    get_backend,
    numpy_available,
    platform_backend,
)
from repro.core.backends.pure import PurePythonBackend
from repro.core.beststrip import BestStrip
from repro.core.dispatch import solve_point_set, solve_point_set_top_k
from repro.core.plane_sweep import solve_columns, solve_in_memory, sweep_events
from repro.core.transform import (
    ColumnEvents,
    columns_to_event_array,
    objects_to_event_records,
)
from repro.errors import ConfigurationError
from repro.geometry import Interval, WeightedPoint

np = pytest.importorskip("numpy")

import repro.core.backends.numpy_backend as numpy_backend_module  # noqa: E402
from repro.core.backends.numpy_backend import NumpySweepBackend  # noqa: E402


def _random_dataset(rng, count, *, domain=100.0, weight_choices=(0.0, 1.0, 2.0, 3.0),
                    snap=None):
    """Random weighted points; ``snap`` coarsens coordinates to force ties."""
    objs = []
    for _ in range(count):
        x = rng.uniform(0.0, domain)
        y = rng.uniform(0.0, domain)
        if snap:
            x = round(x / snap) * snap
            y = round(y / snap) * snap
        objs.append(WeightedPoint(x, y, rng.choice(weight_choices)))
    return objs


class TestRegistry:
    def test_available_backends_include_pure_first(self):
        names = available_backends()
        assert names[0] == "pure"
        assert "numpy" in names  # numpy importable in this environment

    def test_get_backend_by_name(self):
        assert get_backend("pure").name == "pure"
        assert get_backend("numpy").name == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("cuda")

    def test_auto_resolves_to_numpy_whatever_the_size(self, monkeypatch):
        # No size rule: the platform picks numpy for every sweep (the
        # crossover is 0 events, so 0, 1 and 10**9 events all qualify), pure
        # without numpy.
        assert auto_crossover() == 0
        assert platform_backend().name == "numpy"
        # The smallest sweeps take it too: a one-point engine query.
        from repro.service import MaxRSEngine, QuerySpec

        with MaxRSEngine(tracer="ring") as engine:
            handle = engine.register_dataset([WeightedPoint(0.0, 0.0)])
            engine.query(handle, QuerySpec.maxrs(1.0, 1.0))
            sweeps = engine.tracer.recorder.last().find_all("backend.sweep")
            assert {span.attributes["backend"] for span in sweeps
                    if span.name == "backend.sweep"} == {"numpy"}
        monkeypatch.setattr(backends_module, "numpy_available", lambda: False)
        assert platform_backend().name == "pure"
        with pytest.raises(ConfigurationError, match="numpy"):
            get_backend("numpy")


def _traced(solve):
    """``solve()``'s answer and the backends its ``backend.sweep`` spans
    name."""
    from repro import obs

    recorder = obs.RingRecorder()
    with obs.Tracer(recorder).trace("solve"):
        answer = solve()
    return answer, {span.attributes["backend"]
                    for span in recorder.last().find_all("backend.sweep")
                    if span.name == "backend.sweep"}


def _both_backends(pure_backend, solve):
    """``(reference answer, numpy answer)`` of ``solve()``, checking that
    each ran on the backend it names."""
    numpy_answer, swept_on = _traced(solve)
    assert swept_on == {"numpy"}
    with pure_backend():
        pure_answer, swept_on = _traced(solve)
    assert swept_on == {"pure"}
    return pure_answer, numpy_answer


@contextlib.contextmanager
def _chunk_hlines(rows):
    """Cap the numpy loop's rows per step at ``rows`` (``None``: the
    default) inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(numpy_backend_module, "_CHUNK_HLINES", rows)
        yield


@contextlib.contextmanager
def _step_levels():
    """Record, per best-only sweep inside the block, ``(long steps, most
    short steps in one long step, most own h-lines of a slab)``; a sweep
    that runs its short loop over the cells directly (its slabs fit one
    long step, or are too narrow for long steps) counts one long step."""
    sweeps, active = [], []
    steps = numpy_backend_module._steps
    best_lines = NumpySweepBackend._sweep_best_lines

    def counted(*args):
        made = list(steps(*args))
        if active:
            active[-1].append(len(made))
        return iter(made)

    def spy(self, starts, lines, *edges):
        active.append([])
        try:
            return best_lines(self, starts, lines, *edges)
        finally:
            counts = active.pop()
            long, short = ((len(counts) - 1, max(counts[1:]))
                           if len(counts) > 1 else (1, counts[0]))
            sweeps.append((long, short, int(lines.max())))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numpy_backend_module, "_steps", counted)
        patch.setattr(NumpySweepBackend, "_sweep_best_lines", spy)
        yield sweeps


def _slab_file(records, slab_range=None):
    """The numpy slab-file and best strip of one slab."""
    return NumpySweepBackend().sweep_slabs([(records, slab_range)])[0]


class TestParityProperty:
    """Randomised cross-backend equality of slab-files and best strips."""

    def _assert_parity(self, records, slab_range, levels=None):
        """Numpy equals the reference; with ``levels`` (a list), each
        best-only sweep at 3 rows per step adds its step levels to it."""
        pure_out = sweep_events(records, slab_range)
        for rows in (None, 3):
            with _chunk_hlines(rows), _step_levels() as seen:
                numpy_rows, numpy_best = _slab_file(records, slab_range)
                # Slab-files, bit for bit, and the best strip.
                assert numpy_rows.tobytes() == _slab_file_bytes(pure_out[0])
                assert numpy_best == pure_out[1]
                assert NumpySweepBackend().sweep(records, slab_range) \
                    == pure_out[1]
            if rows == 3 and levels is not None:
                levels += seen

    def test_random_datasets(self):
        rng = random.Random(20260729)
        levels = []
        for trial in range(25):
            count = rng.randrange(0, 60)
            snap = rng.choice((None, None, 1.0))  # 1/3 of trials force ties
            objs = _random_dataset(rng, count, snap=snap)
            width = rng.uniform(0.5, 30.0)
            height = rng.uniform(0.5, 30.0)
            records = objects_to_event_records(objs, width, height) if objs else []
            self._assert_parity(records, None, levels)
        # 3 rows per step: several long steps of several short steps.
        assert any(long > 1 and short > 1 for long, short, _ in levels)

    def test_random_datasets_clipped_slab(self):
        rng = random.Random(42)
        levels = []
        for trial in range(15):
            objs = _random_dataset(rng, rng.randrange(1, 50))
            records = objects_to_event_records(
                objs, rng.uniform(1.0, 20.0), rng.uniform(1.0, 20.0))
            slab = Interval(rng.uniform(0.0, 40.0), rng.uniform(60.0, 100.0))
            self._assert_parity(records, slab, levels)
        assert any(long > 1 and short > 1 for long, short, _ in levels)

    def test_empty_and_degenerate(self):
        empty = sweep_events([], None)
        assert NumpySweepBackend().sweep([], None) == empty[1]
        # Degenerate slab: zero width, nothing can be strictly inside.
        records = objects_to_event_records([WeightedPoint(1.0, 1.0)], 2.0, 2.0)
        degenerate = Interval(5.0, 5.0)
        expected = sweep_events(records, degenerate)
        assert expected[0] == []
        assert NumpySweepBackend().sweep(records, degenerate) == expected[1]
        rows, best = _slab_file(records, degenerate)
        assert rows.shape == (0, 4) and best == expected[1]

    def test_duplicate_coordinates_and_plateaus(self):
        # A grid of identical weights maximises argmax ties and long runs.
        objs = [WeightedPoint(float(x), float(y), 1.0)
                for x in range(7) for y in range(7)]
        records = objects_to_event_records(objs, 2.0, 2.0)
        self._assert_parity(records, None)

    def test_zero_weight_events_contribute_boundaries_only(self):
        objs = [WeightedPoint(0.0, 0.0, 1.0), WeightedPoint(0.4, 0.1, 0.0),
                WeightedPoint(0.8, 0.2, 2.0)]
        records = objects_to_event_records(objs, 2.0, 2.0)
        self._assert_parity(records, None)

    def test_shared_hlines(self):
        # Many events on the same y-coordinate exercise intra-h-line batching.
        objs = [WeightedPoint(float(i), 5.0, float(1 + i % 3)) for i in range(20)]
        objs += [WeightedPoint(float(i) + 0.5, 7.0, 1.0) for i in range(20)]
        records = objects_to_event_records(objs, 3.0, 4.0)
        self._assert_parity(records, None)


class TestHardRuns:
    """Runs the vectorised fast path leaves open, finished by ragged
    first-hit searches (``_resolve_hard_runs``)."""

    @staticmethod
    def _tolerance_records():
        # At y = 0, x in [0, 1] weighs 1 + 2**-44 and x in [1, 2] weighs 1:
        # within the 1e-12 run tolerance, so the best run spans both cells
        # although they differ.  The edges far right (weight 0.5) make
        # later chunks whose first segment holds both cells, so the run's
        # plateau ends inside the attaining segment.
        tiny = 2.0 ** -44
        records = [(0.0, 1.0, 0.0, 2.0, 1.0), (50.0, -1.0, 0.0, 2.0, 1.0),
                   (0.0, 1.0, 0.0, 1.0, tiny), (50.0, -1.0, 0.0, 1.0, tiny)]
        for y in range(1, 6):
            records.append((float(y), 1.0, 100.0, 101.0, 0.5))
            records.append((y + 0.5, -1.0, 100.0, 101.0, 0.5))
        return records

    @pytest.mark.parametrize("chunk_hlines", [1, 2, 3])
    def test_run_tolerance_case(self, monkeypatch, chunk_hlines):
        reached = []
        resolve = NumpySweepBackend._resolve_hard_runs

        def spy(run, hard, V0, M0, W, bnd, segs, rows, slabs, s_star,
                seg_end, plateau_end, in_seg, thr, thr0):
            reached.append(bool(in_seg[hard].any()))
            return resolve(run, hard, V0, M0, W, bnd, segs, rows, slabs,
                           s_star, seg_end, plateau_end, in_seg, thr, thr0)

        monkeypatch.setattr(NumpySweepBackend, "_resolve_hard_runs",
                            staticmethod(spy))
        monkeypatch.setattr(numpy_backend_module, "_CHUNK_HLINES",
                            chunk_hlines)
        records = self._tolerance_records()
        expected = sweep_events(records)
        rows, best = _slab_file(records)
        assert rows.tobytes() == _slab_file_bytes(expected[0])
        assert best == expected[1]
        assert NumpySweepBackend().sweep(records) == expected[1]
        assert any(reached)            # the tolerance scan ran
        assert expected[0][1] == (1.0, 0.0, 2.0, 1.0 + 2.0 ** -44)

    def test_scans_split_into_bounded_batches(self, monkeypatch):
        # With a 4-cell budget every search is halved down to single
        # ranges; the answers stay the reference's.
        monkeypatch.setattr(numpy_backend_module, "_SCAN_CELLS", 4)
        monkeypatch.setattr(numpy_backend_module, "_CHUNK_HLINES", 4)
        rng = random.Random(11)
        for _ in range(10):
            objs = _random_dataset(rng, 60, snap=rng.choice((None, 1.0)))
            records = objects_to_event_records(objs, 7.0, 5.0)
            records += self._tolerance_records()
            expected = sweep_events(records)
            rows, best = _slab_file(records)
            assert rows.tobytes() == _slab_file_bytes(expected[0])
            assert best == expected[1]

    def test_array_input_on_both_backends(self):
        rng = random.Random(2)
        records = objects_to_event_records(_random_dataset(rng, 50), 6.0, 4.0)
        rows = np.array(records)
        expected = sweep_events(records)
        for backend in (NumpySweepBackend(), PurePythonBackend()):
            assert backend.sweep(rows) == expected[1]
            slab_file, best = backend.sweep_slabs([(rows, None)])[0]
            assert _slab_file_bytes(slab_file) == \
                _slab_file_bytes(expected[0])
            assert best == expected[1]


def _slab_file_bytes(records):
    """A slab-file's bytes as float64 rows (tuples or an array)."""
    return np.asarray(records, dtype=np.float64).reshape(-1, 4).tobytes()


def _strip_bytes(strip):
    """A best strip's fields as float64 bytes (so a signed zero shows)."""
    return [np.float64(getattr(strip, field)).tobytes()
            for field in ("weight", "x1", "x2", "y1", "y2")]


def _assert_batch_matches_alone(slabs):
    """``sweep_slabs`` gives every slab what it gets swept alone, by the
    reference and by numpy ``sweep_slabs``: the same slab-file bytes (so a
    signed zero shows) and the same best strip, which numpy's best-only
    ``sweep`` returns bit for bit."""
    alone = [(sweep_events(list(map(tuple, rows)), slab_range),
              _slab_file(rows, slab_range))
             for rows, slab_range in slabs]
    batch = NumpySweepBackend().sweep_slabs(slabs)
    assert len(batch) == len(slabs)
    for (rows, best), (reference, numpy_alone), (records, slab_range) in zip(
            batch, alone, slabs):
        assert isinstance(rows, np.ndarray) and rows.shape[1:] == (4,)
        assert rows.tobytes() == _slab_file_bytes(reference[0])
        assert rows.tobytes() == numpy_alone[0].tobytes()
        assert best == reference[1] == numpy_alone[1]
        assert _strip_bytes(NumpySweepBackend().sweep(records, slab_range)) \
            == _strip_bytes(best)


_COORD = st.integers(0, 20).map(float)
#: Exactly representable weights, zeros (of both signs) and negatives.
_WEIGHT = st.sampled_from((0.0, -0.0, 1.0, 2.0, 3.0, 0.5, -1.0, -2.0))


@st.composite
def _event_rows(draw, max_rects=10):
    """Raw event rows of up to ``max_rects`` rectangles, in random order;
    small integer y's make shared h-lines common."""
    rows = []
    for xa, xb, y, height, weight in draw(st.lists(st.tuples(
            _COORD, _COORD, st.integers(0, 8), st.integers(1, 4), _WEIGHT),
            max_size=max_rects)):
        x1, x2 = min(xa, xb), max(xa, xb)
        rows.append((float(y), 1.0, x1, x2, weight))
        rows.append((float(y + height), -1.0, x1, x2, weight))
    return draw(st.permutations(rows)) if rows else rows


@st.composite
def _slab_range(draw):
    """Finite or infinite borders; a zero-width slab has no cell."""
    lo = draw(st.one_of(st.just(-math.inf), _COORD))
    hi = draw(st.one_of(st.just(math.inf), _COORD))
    return Interval(min(lo, hi), max(lo, hi))


@st.composite
def _neighbour_slabs(draw):
    """One set of rectangles cut into neighbouring slabs, as ExactMaxRS's
    sibling leaves are: equal maxima meet at the shared borders."""
    rows = draw(_event_rows(max_rects=14))
    inner = sorted(draw(st.sets(_COORD, max_size=12)))
    borders = [-math.inf] + inner + [math.inf]
    return [(rows, Interval(lo, hi)) for lo, hi in zip(borders, borders[1:])]


class TestSweepSlabs:
    """The multi-slab records loop against each slab swept alone."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.lists(st.tuples(_event_rows(), _slab_range()),
                              min_size=1, max_size=40),
                     _neighbour_slabs()))
    def test_batches_match_each_slab_alone(self, slabs):
        for rows in (None, 2):
            with _chunk_hlines(rows):
                _assert_batch_matches_alone(slabs)

    def test_runs_stop_at_slab_borders(self):
        # One rectangle over two neighbouring slabs: both maxima touch the
        # shared border at x = 10, and neither run may cross it.
        rows = [(0.0, 1.0, 5.0, 15.0, 1.0), (1.0, -1.0, 5.0, 15.0, 1.0)]
        slabs = [(rows, Interval(0.0, 10.0)), (rows, Interval(10.0, 20.0))]
        (left, _), (right, _) = NumpySweepBackend().sweep_slabs(slabs)
        assert left[0].tolist() == [0.0, 5.0, 10.0, 1.0]
        assert right[0].tolist() == [0.0, 10.0, 15.0, 1.0]
        _assert_batch_matches_alone(slabs)

    def test_empty_and_cell_less_slabs(self):
        rng = random.Random(5)
        records = objects_to_event_records(_random_dataset(rng, 30), 6.0, 4.0)
        slabs = [([], Interval(0.0, 50.0)), (records, Interval(5.0, 5.0)),
                 (records, Interval(20.0, 70.0)), ([], None)]
        batch = NumpySweepBackend().sweep_slabs(slabs)
        for index in (0, 1, 3):
            assert batch[index][0].shape == (0, 4)
        assert batch[1][1] == BestStrip.empty(5.0, 5.0)
        assert batch[3][1] == BestStrip.empty(-math.inf, math.inf)
        _assert_batch_matches_alone(slabs[:3])

    @pytest.mark.parametrize("chunk_hlines", [1, 2, 3])
    def test_run_tolerance_case_mid_batch(self, monkeypatch, chunk_hlines):
        reached = []
        resolve = NumpySweepBackend._resolve_hard_runs

        def spy(run, hard, V0, M0, W, bnd, segs, rows, slabs, *rest):
            in_seg = rest[3]
            reached.append(bool(in_seg[hard].any()))
            return resolve(run, hard, V0, M0, W, bnd, segs, rows, slabs,
                           *rest)

        monkeypatch.setattr(NumpySweepBackend, "_resolve_hard_runs",
                            staticmethod(spy))
        monkeypatch.setattr(numpy_backend_module, "_CHUNK_HLINES",
                            chunk_hlines)
        rng = random.Random(chunk_hlines)
        others = [objects_to_event_records(_random_dataset(rng, 25), 7.0, 5.0)
                  for _ in range(2)]
        slabs = [(others[0], Interval(0.0, 60.0)),
                 (TestHardRuns._tolerance_records(), None),
                 (others[1], Interval(30.0, 100.0))]
        _assert_batch_matches_alone(slabs)
        assert any(reached)            # the tolerance scan ran

    def test_signed_zero_borders_do_not_depend_on_the_batch(self):
        # Boundaries 0.0 and -0.0 are one cell border; which sign a slab
        # keeps must depend neither on the slabs swept with it (numpy's
        # sort orders equal keys differently in differently sized batches)
        # nor on whether the slab-file is asked for.
        def zero_rows(rng, count):
            rows = []
            for _ in range(count):
                x1, x2 = sorted(rng.choice((-0.0, 0.0, -3.0, 2.0, 5.0))
                                for _ in range(2))
                y = float(rng.randint(0, 9))
                rows += [(y, 1.0, x1, x2, 1.0), (y + 2.0, -1.0, x1, x2, 1.0)]
            return rows

        rng = random.Random(4)
        slab = (zero_rows(rng, 30), Interval(-5.0, 10.0))
        alone = NumpySweepBackend().sweep_slabs([slab])[0]
        for _ in range(8):
            others = [(zero_rows(rng, rng.randint(10, 400)),
                       Interval(-5.0, 10.0))
                      for _ in range(rng.randint(1, 6))]
            batch = others + [slab] + others[:2]
            rows, best = NumpySweepBackend().sweep_slabs(batch)[len(others)]
            assert rows.tobytes() == alone[0].tobytes()
            assert best == alone[1]
        reference = sweep_events(slab[0], slab[1])
        assert np.array_equal(alone[0], np.array(reference[0]))
        # Both best strips end at a signed-zero border.
        for slab in (slab, (zero_rows(random.Random(120), 120),
                            Interval(-5.0, 10.0))):
            best = NumpySweepBackend().sweep_slabs([slab])[0][1]
            assert _strip_bytes(NumpySweepBackend().sweep(*slab)) == \
                _strip_bytes(best)

    def test_pure_backend_sweeps_each_slab(self):
        rng = random.Random(9)
        slabs = [(objects_to_event_records(_random_dataset(rng, 20), 5.0,
                                           5.0), Interval(10.0, 80.0)),
                 ([], None)]
        assert PurePythonBackend().sweep_slabs(slabs) == [
            sweep_events(rows, slab_range) for rows, slab_range in slabs]


@pytest.fixture
def slab_plans(monkeypatch):
    """Record each best-only sweep's slab plan: (slabs, most slabs one
    applying event spans)."""
    plans = []
    plan = NumpySweepBackend._slab_width

    def spy(num_cells, left, right):
        width = plan(num_cells, left, right)
        spanned = (right - 1) // width - left // width + 1
        plans.append((-(-num_cells // width),
                      int(spanned.max()) if len(left) else 0))
        return width

    monkeypatch.setattr(NumpySweepBackend, "_slab_width", staticmethod(spy))
    return plans


def _rect_records(rng, count, *, domain=100.0, sides=(0.5, 4.0),
                  weight_choices=(0.0, 1.0, 2.0, 3.0)):
    """Event records of ``count`` random rectangles with varying sides."""
    records = []
    for _ in range(count):
        x, y = rng.uniform(0.0, domain), rng.uniform(0.0, domain)
        half_w, half_h = (rng.choice(sides) / 2.0 for _ in range(2))
        weight = rng.choice(weight_choices)
        records.append((y - half_h, 1.0, x - half_w, x + half_w, weight))
        records.append((y + half_h, -1.0, x - half_w, x + half_w, weight))
    return records


class TestSlabPlanParity:
    """Best-only sweeps whose slab plan cuts at least four slabs.

    Small inputs plan a single slab, so these inputs are sized to force
    the multi-slab loop; each case asserts that it did.
    """

    def _assert_parity(self, records, slab_plans, slab_range=None):
        expected = sweep_events(records, slab_range)[1]
        for rows in (None, 3, 1):
            with _chunk_hlines(rows), _step_levels() as levels:
                assert NumpySweepBackend().sweep(records, slab_range) \
                    == expected
            if rows is not None:
                # Capped at ``rows`` rows per short step and ``rows`` short
                # steps per long step, every h-line is stepped through.
                (long, short, longest), = levels
                assert long == -(-longest // rows ** 2)
                assert short == min(rows, -(-longest // rows))
        assert min(slabs for slabs, _ in slab_plans) >= 4

    def test_ties_across_slab_borders(self, slab_plans):
        # Snapped coordinates: equal-weight placements tie across slabs.
        rng = random.Random(7)
        for trial in range(6):
            objs = _random_dataset(rng, 500, snap=0.25,
                                   weight_choices=(1.0,))
            self._assert_parity(objects_to_event_records(objs, 2.0, 2.0),
                                slab_plans)

    def test_uniform_grid_plateaus(self, slab_plans):
        # A grid of equal weights: the maximum ties in every slab.
        objs = [WeightedPoint(float(x), float(y), 1.0)
                for x in range(150) for y in range(6)]
        self._assert_parity(objects_to_event_records(objs, 1.5, 1.5),
                            slab_plans)

    def test_shared_hlines(self, slab_plans):
        rng = random.Random(11)
        objs = [WeightedPoint(rng.uniform(0.0, 100.0),
                              float(rng.choice((5, 7, 9))), float(1 + i % 3))
                for i in range(400)]
        self._assert_parity(objects_to_event_records(objs, 1.0, 3.0),
                            slab_plans)

    def test_zero_and_small_integer_weights(self, slab_plans):
        rng = random.Random(13)
        for weights in ((0.0, 1.0, 2.0, 3.0), (0.0, 0.0, 0.0, 1.0)):
            objs = _random_dataset(rng, 400, weight_choices=weights)
            self._assert_parity(objects_to_event_records(objs, 1.0, 5.0),
                                slab_plans)

    def test_negative_weights_keep_untouched_zeros(self, slab_plans):
        # Raw event records may carry negative weights.  Here the first
        # h-line covers three whole slabs (64 one-cell tiles each), so every
        # slab maximum on it is negative; the untouched zeros of the slabs
        # that have no edge on it still make it the answer's h-line.
        def tiles(x0, x1, y0, y1):
            cells = [(x0 + k / 2.0, x0 + (k + 1) / 2.0)
                     for k in range(int(2 * (x1 - x0)))]
            return ([(y0, 1.0, a, b, -1.0) for a, b in cells]
                    + [(y1, -1.0, a, b, -1.0) for a, b in cells])

        records = tiles(0.0, 96.0, 0.0, 1.0) + tiles(96.0, 200.0, 2.0, 3.0)
        self._assert_parity(records, slab_plans, Interval(0.0, 200.0))

    def test_events_spanning_three_or_more_slabs(self, slab_plans):
        # Mostly narrow rectangles keep the slabs narrow; a few wide ones
        # span many of them.
        rng = random.Random(17)
        for trial in range(4):
            records = _rect_records(rng, 400, sides=(0.5,) * 30 + (20.0,))
            self._assert_parity(records, slab_plans)
            assert slab_plans[-1][1] >= 3

    def test_clipped_slab_range(self, slab_plans):
        rng = random.Random(19)
        for trial in range(4):
            objs = _random_dataset(rng, 600)
            slab = Interval(rng.uniform(0.0, 20.0), rng.uniform(80.0, 100.0))
            self._assert_parity(objects_to_event_records(objs, 1.0, 4.0),
                                slab_plans, slab)


class TestTwoLevelSteps:
    """The best-only loop's long steps of short steps against the reference
    sweep, in both slab plans, each case checked to reach its levels."""

    @staticmethod
    def _sweep(records, slab_plans, rows=None):
        """The numpy best strip (equal to the reference's), its slab plan's
        slab count and its step levels."""
        with _chunk_hlines(rows), _step_levels() as levels:
            best = NumpySweepBackend().sweep(records)
        assert best == sweep_events(records)[1]
        (long, short, _), = levels
        return slab_plans[-1][0], long, short

    @pytest.mark.parametrize("rows", [2, 3])
    def test_several_long_and_short_steps_in_both_plans(self, slab_plans,
                                                        rows):
        rng = random.Random(rows)
        # Wide windows plan the slab itself, narrow ones x-slabs.
        for count, side, plan in ((60, 60.0, 1), (500, 1.0, 4)):
            objs = _random_dataset(rng, count, weight_choices=(1.0, 2.0, 3.0))
            records = objects_to_event_records(objs, side, side)
            slabs, long, short = self._sweep(records, slab_plans, rows)
            assert (slabs == 1) if plan == 1 else (slabs >= plan)
            assert long > 1 and short == rows

    def test_plans_that_fit_one_long_step(self, slab_plans):
        # At 3 rows per step a long step holds 9 h-lines, and slabs of 54
        # cells or more are wide enough for long steps.  Points on two rows
        # give 4 h-lines: 30 of them one slab of 60 cells, 400 many x-slabs
        # of at least 64 cells.
        rng = random.Random(3)
        for count, side, plan in ((30, 30.0, 1), (400, 1.0, 4)):
            objs = [WeightedPoint(rng.uniform(0.0, 100.0), float(y), 1.0)
                    for y in (3, 5) for _ in range(count // 2)]
            slabs, long, short = self._sweep(
                objects_to_event_records(objs, side, side), slab_plans, 3)
            assert (slabs == 1) if plan == 1 else (slabs >= plan)
            assert long == 1 and short > 1

    @pytest.mark.parametrize("count, side, long_steps", [
        (5000, 50.0, False), (22000, 400.0, True)])
    def test_uniform_points_at_the_rules_steps(self, slab_plans, count, side,
                                               long_steps):
        # Integer weights, no patched cap: the rule's own steps.  5k points
        # at 5% windows plan x-slabs of ~500 cells, too narrow for long
        # steps; 22k points at 40% plan the slab itself, 44,001 cells wide
        # enough for them.
        objs = _random_dataset(random.Random(count), count, domain=1000.0,
                               weight_choices=(1.0, 2.0, 3.0))
        slabs, long, short = self._sweep(
            objects_to_event_records(objs, side, side), slab_plans)
        assert (slabs == 1) if long_steps else (slabs > 4)
        assert (long > 1) == long_steps and short > 1


class TestDispatchThreading:
    """Every solve path sweeps on the platform's backend, and forcing the
    reference changes no answer."""

    def _dataset(self, seed=7, count=120):
        rng = random.Random(seed)
        return _random_dataset(rng, count, weight_choices=(1.0, 2.0, 3.0))

    def test_solve_point_set_backends_agree(self, pure_backend):
        objs = self._dataset()
        for force in ("force_in_memory", "force_external"):
            pure, vec = _both_backends(pure_backend, lambda: solve_point_set(
                objs, 8.0, 6.0, **{force: True}))
            assert pure.total_weight == vec.total_weight
            assert pure.region == vec.region

    def test_solve_top_k_backends_agree(self, pure_backend):
        objs = self._dataset(seed=11)
        pure, vec = _both_backends(pure_backend, lambda: solve_point_set_top_k(
            objs, 8.0, 6.0, 3, force_in_memory=True))
        assert len(pure) == len(vec)
        for a, b in zip(pure, vec):
            assert a.total_weight == b.total_weight
            assert a.region == b.region

    def test_solve_in_memory_backend_param(self, pure_backend):
        objs = self._dataset(seed=3, count=40)
        pure, vec = _both_backends(pure_backend,
                                   lambda: solve_in_memory(objs, 5.0, 5.0))
        assert pure.total_weight == vec.total_weight
        assert pure.region == vec.region
        # The columnar entry point: numpy sweeps the columns, the reference
        # their event rows.
        columns = [np.array([getattr(o, f) for o in objs])
                   for f in ("x", "y", "weight")]
        for answer in _both_backends(
                pure_backend, lambda: solve_columns(*columns, 5.0, 5.0)):
            assert answer == pure

    def test_exact_maxrs_leaves_use_backend(self, pure_backend):
        """The external recursion's base case sweeps on the selection too."""
        from repro.core.exact_maxrs import ExactMaxRS
        from repro.em.context import EMContext

        objs = self._dataset(seed=19, count=60)
        baseline = solve_in_memory(objs, 6.0, 6.0)
        for result in _both_backends(pure_backend, lambda: ExactMaxRS(
                EMContext(), 6.0, 6.0, fanout=2,
                memory_records=16).solve(objs)):
            assert result.total_weight == baseline.total_weight
            assert result.region == baseline.region
            assert result.recursion_levels >= 1  # genuinely recursed

    def test_api_solver_exposes_backend(self, pure_backend):
        from repro.api import MaxRSSolver

        objs = self._dataset(seed=23, count=50)
        pure, vec = _both_backends(pure_backend, lambda: MaxRSSolver(
            width=6.0, height=6.0).solve(objs))
        assert pure.total_weight == vec.total_weight
        assert pure.region == vec.region


#: Coordinates that tie on a small grid, round into each other (0.1 + 0.1
#: vs 0.3 - 0.1), lose their half-extent (|x| = 1e16), come near or past
#: the largest double with it (1e308, 1.7e308), or are signed zeros,
#: infinities or NaN.
_COLUMN_COORD = st.one_of(
    st.integers(0, 6).map(float),
    st.sampled_from((0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 1e308,
                     -1e308, 1.7e308, -1.7e308, math.inf, -math.inf,
                     math.nan)))
#: Zeros of both signs, and non-integer weights whose sums round.
_COLUMN_WEIGHT = st.sampled_from((0.0, -0.0, 1.0, 2.0, 0.1, 0.7, 1.3))
_COLUMN_SIDE = st.sampled_from((1.0, 2.0, 4.0, 0.2, 0.4, 3e-16, 1e308))


@st.composite
def _columns(draw, max_points=12):
    """``(xs, ys, ws, width, height)`` of 0 to ``max_points`` points, some
    duplicated."""
    points = draw(st.lists(st.tuples(_COLUMN_COORD, _COLUMN_COORD,
                                     _COLUMN_WEIGHT), max_size=max_points))
    points += draw(st.lists(st.sampled_from(points), max_size=3)
                   if points else st.just([]))
    xs, ys, ws = (np.array([p[k] for p in points], dtype=np.float64)
                  for k in range(3))
    return xs, ys, ws, draw(_COLUMN_SIDE), draw(_COLUMN_SIDE)


def _result_bytes(result):
    """A result's weight, region and location as float64 bytes."""
    region = result.region
    return [np.float64(value).tobytes() for value in (
        result.total_weight, region.x1, region.y1, region.x2, region.y2,
        region.weight, result.location.x, result.location.y)]


class TestColumnPrepare:
    """The column route (``_prepare_columns``, from the points' own orders)
    against the event route (``_prepare_slabs`` of the event rows)."""

    @staticmethod
    def _assert_same_prepare(xs, ys, ws, width, height):
        rows = columns_to_event_array(xs, ys, ws, width, height)
        expected = NumpySweepBackend._prepare_slabs([(rows, Interval.full())])
        if not len(xs):
            assert expected is None
            return
        prepared = NumpySweepBackend._prepare_columns(
            ColumnEvents(xs, ys, ws, width, height))
        assert len(prepared) == len(expected) == 9
        for got, want in zip(prepared, expected):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(_columns())
    def test_prepared_arrays_and_answers_are_the_event_routes(self, columns):
        from repro.core.plane_sweep import _solve_best

        def rows():
            return columns_to_event_array(*columns)

        with np.errstate(over="ignore"):  # x -+ w/2 past the largest double
            self._assert_same_prepare(*columns)
            assert _strip_bytes(NumpySweepBackend().sweep(ColumnEvents(
                *columns))) == _strip_bytes(NumpySweepBackend().sweep(rows()))
            assert _result_bytes(solve_columns(*columns)) == \
                _result_bytes(_solve_best(2 * len(columns[0]), rows))

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_tiny_sets(self, count):
        rng = np.random.default_rng(count)
        for _ in range(20):
            xs, ys = (rng.integers(0, 3, count).astype(float)
                      for _ in range(2))
            self._assert_same_prepare(xs, ys, rng.choice((0.0, 0.5, 1.0),
                                                         count), 2.0, 2.0)

    def test_bottoms_tying_tops_go_in_event_order(self):
        # Point 0's bottom (y = 3 - 1) ties point 1's top (1 + 1), and its
        # top (3 + 1) ties point 2's bottom (5 - 1): the stable sort of the
        # rows puts bottom 0 before top 3, and top 1 before bottom 4.
        xs = np.array([0.0, 0.5, 1.0, 1.5])
        ys = np.array([3.0, 1.0, 5.0, 7.0])
        self._assert_same_prepare(xs, ys, np.array([1.0, 2.0, 3.0, 4.0]),
                                  1.0, 2.0)

    def test_clipped_away_and_non_finite_points(self):
        # At |x| = 1e16, x -+ 0.5 round to one end, and infinite or NaN x's
        # give no cell either: none of these edges is a cell boundary.  NaN
        # y's go last, each point's bottom before its top.
        xs = np.array([1e16, -1e16, math.nan, math.inf, 0.0, 1.0, 2.0])
        ys = np.array([0.0, 1.0, 2.0, math.nan, -0.0, math.inf, math.nan])
        ws = np.array([1.0, 2.0, 0.5, 3.0, 0.0, 1.5, 0.25])
        self._assert_same_prepare(xs, ys, ws, 1.0, 1.0)

    def test_uniform_points_at_serving_scale(self):
        rng = np.random.default_rng(29)
        xs, ys = rng.uniform(0.0, 1e6, (2, 20_000))
        ws = rng.choice((0.0, 0.3, 1.0), 20_000)
        for side in (5e3, 3e4):
            self._assert_same_prepare(xs, ys, ws, side, side / 2)
        # Coarsened: ties within and between the bottoms and tops.
        self._assert_same_prepare(np.round(xs, -4), np.round(ys, -4), ws,
                                  2e4, 2e4)

    def test_engine_sweeps_columns_without_event_rows(self, pure_backend,
                                                      monkeypatch):
        from repro.core import transform
        from repro.core.backends import pure
        from repro.service import MaxRSEngine, QuerySpec

        built, swept = [], []
        build, sweep = transform.columns_to_event_array, pure.sweep_events

        def spy_build(*args):
            built.append(args)
            return build(*args)

        def spy_sweep(records, slab_range=None):
            swept.append(records)
            return sweep(records, slab_range)

        monkeypatch.setattr(transform, "columns_to_event_array", spy_build)
        monkeypatch.setattr(pure, "sweep_events", spy_sweep)
        objs = _random_dataset(random.Random(41), 300, domain=1000.0)
        answers = []
        for forced in (contextlib.nullcontext, pure_backend):
            with forced(), MaxRSEngine() as engine:
                handle = engine.register_dataset(objs)
                answers.append(engine.query(handle,
                                            QuerySpec.maxrs(80.0, 60.0)))
                assert answers[-1].cost["sweeps"] >= 1
            if forced is contextlib.nullcontext:
                assert built == [] and swept == []
        # The reference swept the rows built from the same columns.
        assert len(built) == len(swept) == answers[-1].cost["sweeps"]
        for args, records in zip(built, swept):
            assert records == build(*args).tolist()
        assert answers[0].total_weight == answers[1].total_weight
        assert answers[0].region == answers[1].region


class TestEngineBackend:
    """The resident engine's backend, sweep counts and stats reporting."""

    def _dataset(self, count=300, seed=31):
        rng = random.Random(seed)
        return _random_dataset(rng, count, domain=1000.0,
                               weight_choices=(1.0, 2.0, 3.0))

    def test_engine_backends_bit_identical(self, pure_backend):
        from repro.service import MaxRSEngine, QuerySpec

        objs = self._dataset()
        answers = {}
        for name, forced in (("numpy", contextlib.nullcontext),
                             ("pure", pure_backend)):
            with forced(), MaxRSEngine(tracer="ring") as engine:
                handle = engine.register_dataset(objs)
                answers[name] = engine.query(handle,
                                             QuerySpec.maxrs(80.0, 60.0))
                assert engine.stats()["sweep_backend"] == name
                sweeps = [span for span in
                          engine.tracer.recorder.last().find_all(
                              "backend.sweep")
                          if span.name == "backend.sweep"]
                assert {span.attributes["backend"] for span in sweeps} == \
                    {name}
                assert answers[name].cost["sweeps"] == len(sweeps) >= 1
        assert answers["pure"].total_weight == answers["numpy"].total_weight
        assert answers["pure"].region == answers["numpy"].region

    def test_engine_stats_report_backend(self):
        from repro.service import MaxRSEngine, QuerySpec

        engine = MaxRSEngine()
        handle = engine.register_dataset(self._dataset(count=50))
        spec = QuerySpec.maxrs(50.0, 50.0)
        result = engine.query(handle, spec)
        stats = engine.stats()
        assert stats["sweep_backend"] == "numpy"
        assert engine.explain(handle, spec)["backend"] == "numpy"
        assert result.cost["sweeps"] == stats["counters"]["sweeps"] >= 1
        engine.close()
