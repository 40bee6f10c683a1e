# Developer entry points for the MaxRS reproduction.
#
#   make test           - the tier-1 verification suite (tests + fast benchmarks)
#   make bench-smoke    - the benchmark suite at its tiny "smoke" preset
#   make bench          - the benchmark suite at its standard preset
#   make bench-backends - sweep-backend A/B comparison (smoke preset)
#   make bench-persist  - warm-start vs cold re-ingest comparison (fast preset)
#   make bench-pyramid  - bounded-error vs exact large queries, one engine (fast preset)
#   make bench-async    - concurrent async clients vs sequential sync (fast preset)
#   make bench-obs      - fleet-telemetry overhead guard (fast preset)
#   make bench-introspect - query-introspection overhead guard (fast preset)
#   make bench-json     - refresh the BENCH_*.json perf-trajectory artefacts
#   make bench-gate     - fail if fresh bench numbers regress vs checked-in
#   make trace-smoke    - observability suite + the traced-query walkthrough
#   make examples       - run every example script end-to-end
#   make verify         - tier-1 tests + bench-gate + examples smoke run
#
# All targets run from the repository checkout without installation: the
# PYTHONPATH export makes the src/ layout importable, matching conftest.py.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke bench bench-backends bench-persist bench-pyramid \
	bench-async bench-obs bench-introspect bench-json bench-gate \
	trace-smoke examples verify

test:
	$(PYTHON) -m pytest -x -q

bench-smoke:
	REPRO_BENCH_PRESET=smoke $(PYTHON) -m pytest benchmarks -q

# Quick A/B of the two sweep backends on the engine's refined cold query:
# the platform's pick (numpy) against the pure-Python reference, which the
# benchmark forces with the `pure_backend` fixture (the library has no
# backend option); full scale runs as part of `make bench`.
bench-backends:
	REPRO_BENCH_PRESET=smoke $(PYTHON) -m pytest \
		benchmarks/test_service_throughput.py -q -k backend

# Warm-start (snapshot restore) vs cold re-ingest for the persistent engine;
# the >= 5x acceptance bound is asserted at (near-)paper scale, e.g.
# REPRO_BENCH_PRESET=paper make bench-persist.
bench-persist:
	$(PYTHON) -m pytest benchmarks/test_service_coldstart.py -q

# Four large cold queries on one engine, exactly and with error_bound=0.05
# (the name is the grid pyramid's, which the bounded path once descended);
# every bounded query certifying, the >= 2x acceptance bound and the
# strictly-fewer-swept-points property are asserted at (near-)paper scale,
# e.g. REPRO_BENCH_PRESET=paper make bench-pyramid.
bench-pyramid:
	$(PYTHON) -m pytest benchmarks/test_service_pyramid.py -q

# Concurrent clients through the asyncio front-end (request coalescing +
# bounded admission) vs the same workload as naive sequential sync queries;
# the >= 2x acceptance bound is asserted at (near-)paper scale on hosts with
# >= 4 cores, e.g. REPRO_BENCH_PRESET=paper make bench-async.
bench-async:
	$(PYTHON) -m pytest benchmarks/test_service_async.py -q

# Fleet-telemetry overhead guard: the engine with the background resource
# sampler + SLO tracking enabled vs the default (sampler idle) engine on the
# refined cold query; the <= 3% acceptance bound is asserted at (near-)paper
# scale, e.g. REPRO_BENCH_PRESET=paper make bench-obs.
bench-obs:
	$(PYTHON) -m pytest benchmarks/test_obs_agg_overhead.py -q

# Query-introspection overhead guard: the engine with the cost ledger,
# per-client accounting and tail-sampling tracer all enabled vs the default
# engine on the refined cold query; the <= 3% acceptance bound is asserted
# at (near-)paper scale, e.g. REPRO_BENCH_PRESET=paper make bench-introspect.
bench-introspect:
	$(PYTHON) -m pytest benchmarks/test_obs_introspect_overhead.py -q

bench:
	REPRO_BENCH_PRESET=bench $(PYTHON) -m pytest benchmarks -q

# Refresh every machine-readable BENCH_<name>.json perf-trajectory artefact
# (host fingerprint, config, p50/p95/p99, speedup vs baseline) by running
# the serving benchmarks that emit them, at the default preset.
bench-json:
	REPRO_BENCH_ARTEFACTS=1 $(PYTHON) -m pytest -q \
		benchmarks/test_service_throughput.py \
		benchmarks/test_service_coldstart.py \
		benchmarks/test_service_pyramid.py \
		benchmarks/test_service_async.py \
		benchmarks/test_obs_overhead.py \
		benchmarks/test_obs_agg_overhead.py \
		benchmarks/test_obs_introspect_overhead.py

# Perf regression gate: re-run the BENCH-emitting benchmarks, compare the
# fresh p50 latency / speedup numbers against the checked-in BENCH_*.json
# trajectory, and fail when a tracked metric slips beyond tolerance
# (REPRO_BENCH_TOLERANCE, default 0.30).  Entries recorded on a different
# host fingerprint are skipped with a warning; the checked-in BENCH files and
# the artefact log are restored afterwards so the gate never dirties the
# working tree.
bench-gate:
	$(PYTHON) scripts/check_bench_regression.py

# The observability smoke: obs unit + propagation + introspection tests,
# the engine's stage contract (span, stage histogram and cost ledger agree),
# the disabled-tracing overhead guard, and the traced-query example --
# which exercises explain(), the cost ledger and trace_profile() end-to-end.
trace-smoke:
	$(PYTHON) -m pytest -q tests/test_obs_span.py tests/test_obs_tail.py \
		tests/test_obs_propagation.py tests/test_introspection.py \
		tests/test_stage_contract.py benchmarks/test_obs_overhead.py
	$(PYTHON) examples/traced_query.py

examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) "$$script"; \
	done

# The full local gate: tier-1 tests, the perf-regression gate over the
# checked-in BENCH_*.json trajectory, and an examples smoke run of the
# service, snapshot and observability walkthroughs.
verify: test bench-gate
	$(PYTHON) examples/query_service.py
	$(PYTHON) examples/persistent_service.py
	$(PYTHON) examples/traced_query.py
	$(PYTHON) examples/health_monitor.py
