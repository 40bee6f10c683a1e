"""Disabled-tracing overhead guard for :mod:`repro.obs`.

The tracing subsystem's core bargain: with the default ``NullRecorder`` the
instrumentation sprinkled through the engine must be *near-free*.  Every
disabled ``obs.span(...)`` call is one ``ContextVar.get`` plus a ``None``
check returning a shared singleton; this benchmark pins that promise to a
number by timing the engine's sweep-dominated worst case -- the refined cold
query over a uniform 50k dataset (nothing prunes, the exact sweep runs over
the whole point set) -- in two variants:

* **disabled tracing** -- the engine exactly as shipped (NullRecorder);
* **no tracing** -- the same engine with ``repro.obs``'s ``span`` /
  ``Tracer.trace`` entry points replaced by stubs that return the no-op
  singleton without even touching the ``ContextVar``, approximating a build
  with the instrumentation compiled out.

The variants are interleaved round-robin (so thermal drift and allocator
state hit both equally) and compared on their best-of-rounds -- the standard
way to compare two codepaths under timer noise.  Acceptance: <= 3% added
latency at (near-)paper scale.  Tiny presets answer this query in
milliseconds, where timer jitter alone exceeds 3%; there the guard only
sanity-checks the overhead is not grossly out of line.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import write_bench_json
from repro import obs
from repro.geometry import WeightedPoint
from repro.service import MaxRSEngine, QuerySpec

#: Paper-scale cardinality of the overhead workload.
PAPER_CARDINALITY = 50_000

#: Interleaved measurement rounds per variant (best-of wins).
ROUNDS = 5

_DOMAIN = 1_000_000.0


def _uniform_dataset(cardinality: int, seed: int = 23) -> list[WeightedPoint]:
    """Uniform points: the pruning worst case, i.e. the sweep-heaviest query."""
    rng = np.random.default_rng(seed)
    return [WeightedPoint(float(x), float(y), float(w))
            for x, y, w in zip(rng.uniform(0.0, _DOMAIN, cardinality),
                               rng.uniform(0.0, _DOMAIN, cardinality),
                               rng.choice([1.0, 2.0, 3.0], cardinality))]


def _noop_span(name, **attributes):
    return obs.NOOP_SPAN


def _noop_trace(self, name, *, trace_id=None, **attributes):
    return obs.NOOP_SPAN


class _PatchedOut:
    """Temporarily stub out the tracing entry points entirely.

    Instrumented modules resolve ``obs.span`` through the package attribute
    on every call and ``tracer.trace`` through the class, so swapping both
    here reaches every call site without reloading anything.
    """

    def __enter__(self):
        self._span = obs.span
        self._trace = obs.Tracer.trace
        obs.span = _noop_span
        obs.Tracer.trace = _noop_trace
        return self

    def __exit__(self, *exc_info):
        obs.span = self._span
        obs.Tracer.trace = self._trace
        return None


def _timed_cold_query(engine, dataset, spec) -> float:
    engine.clear_cache()
    start = time.perf_counter()
    engine.query(dataset, spec)
    return time.perf_counter() - start


def test_disabled_tracing_overhead(scale, report, artefact_dir):
    cardinality = scale.cardinality(PAPER_CARDINALITY)
    objects = _uniform_dataset(cardinality)
    spec = QuerySpec.maxrs(0.02 * _DOMAIN, 0.02 * _DOMAIN)

    engine = MaxRSEngine()  # default tracer: NullRecorder, i.e. disabled
    assert not engine.tracer.enabled
    dataset = engine.register_dataset(objects)

    _timed_cold_query(engine, dataset, spec)  # untimed warm-up round

    disabled, stripped = [], []
    for _ in range(ROUNDS):
        disabled.append(_timed_cold_query(engine, dataset, spec))
        with _PatchedOut():
            stripped.append(_timed_cold_query(engine, dataset, spec))

    best_disabled = min(disabled)
    best_stripped = min(stripped)
    overhead = best_disabled / best_stripped - 1.0

    report(
        f"[obs-overhead] disabled tracing vs no tracing, refined cold query "
        f"(|O|={cardinality}, {ROUNDS} interleaved rounds, best-of):\n"
        f"  no tracing (entry points stubbed): {best_stripped * 1e3:9.3f} ms\n"
        f"  disabled tracing (NullRecorder)  : {best_disabled * 1e3:9.3f} ms\n"
        f"  overhead: {overhead:+.2%}  (bound: <= 3% at paper scale)"
    )
    write_bench_json(
        "obs_overhead", artefact_dir,
        workload={"cardinality": cardinality, "rounds": ROUNDS,
                  "width": spec.width, "height": spec.height},
        config={"recorder": "null"},
        seconds=best_disabled, baseline_seconds=best_stripped,
        speedup=best_stripped / best_disabled if best_disabled else None,
        extra={"overhead_fraction": overhead,
               "disabled_seconds": disabled,
               "stripped_seconds": stripped})

    # Also prove the stubbing changed nothing semantically: the answers of
    # both variants are the same object stream (cold solves, equal results).
    with _PatchedOut():
        engine.clear_cache()
        want = engine.query(dataset, spec)
    engine.clear_cache()
    got = engine.query(dataset, spec)
    assert got.total_weight == want.total_weight
    assert got.region == want.region

    if cardinality >= 20_000:
        assert overhead <= 0.03, (best_disabled, best_stripped)
    else:
        # Millisecond-scale queries: jitter dwarfs the handful of span
        # calls; just catch something pathological (an accidental always-on
        # trace path would cost far more than 50%).
        assert overhead <= 0.50, (best_disabled, best_stripped)
