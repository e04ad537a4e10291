# Convenience targets for the PseudoLRU insertion/promotion reproduction.

PYTHON ?= python

.PHONY: install test test-report perfbench-test bench bench-quick bench-kernels bench-serving conformance conformance-full regen-goldens smoke-parallel smoke-obs smoke-kernels smoke-analytics smoke-surrogate smoke-serving smoke-slo trend-check figures report wn-vectors examples clean

# Targets that run pytest / the library directly need the src layout on the
# import path; the smoke scripts insert it themselves but inherit it too.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-report:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Self-tests of the repository benchmark (BENCHMARK.json + perfbench/):
# metric lists, span accounting, per-layer attribution.  Pytest's
# testpaths only names tests/, so they run here.
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt

bench-quick:
	REPRO_SCALE=0.4 $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Differential conformance gate: every registered policy against its
# reference oracle over the deterministic stream family, plus the
# per-access invariant battery, LUT-vs-walk kernel identity, Belady
# dominance and the committed golden corpus.  Non-zero exit on any
# divergence or golden drift.  `conformance` is the fast CI gate;
# `conformance-full` runs the default fuzz budget and writes a report
# with a provenance manifest sidecar.
conformance:
	$(PYTHON) -m repro.cli verify --all --quick

conformance-full:
	$(PYTHON) -m repro.cli verify --all --report results/conformance.json

# Deliberate, audited regeneration of the golden miss-count corpus.
regen-goldens:
	$(PYTHON) scripts/regen_goldens.py

# Transition-table kernel throughput: accesses/sec LUT vs bit-walk for
# k in {4,8,16}, the columnar GA-population batch, plus GA-generation wall
# time, written to BENCH_kernels.json
# (with a provenance manifest sidecar) at the repository root.  Each run
# also appends a perf-trend entry to BENCH_history.jsonl keyed by git
# revision (`repro obs trend` inspects it; `--no-history` to skip).
bench-kernels:
	$(PYTHON) benchmarks/bench_kernel_throughput.py

# Streaming serving-scenario throughput: the sharded columnar front-end
# on a churning flash-crowd Zipf stream vs the per-access scalar loop,
# with a tracemalloc flat-memory pass and a {1,2,4} shard sweep, written
# to BENCH_serving.json (manifest sidecar alongside) and appended to the
# BENCH_history.jsonl perf trend as the `bench-serving` series.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

# Soft perf-regression gate: compare the newest BENCH_history.jsonl entry
# against its predecessor; non-zero exit past the threshold (15% default).
trend-check:
	$(PYTHON) -m repro.cli obs trend --check

# Fast check that the parallel runner matches the serial path bit-for-bit
# and that a warm cache rerun performs zero simulations.
smoke-parallel:
	$(PYTHON) scripts/smoke_parallel.py

# End-to-end observability check: a traced run's JSONL validates against
# the event schema and replays to the untraced counts, the Prometheus
# export parses, a provenance manifest is written, and disabled tracing
# stays within its 5% hot-path overhead budget.
smoke-obs:
	$(PYTHON) scripts/smoke_obs.py

# Fast kernel sanity: tables compile (and the compile cache hits), LUT and
# bit-walk miss counts are bit-identical on a randomized stream, the LUT
# path is >=2x faster at k=16 than the walk it falls back to without
# numpy, policy CacheStats agree lut-vs-walk, and run_trace's engine route
# is >=1.5x the per-access cache over PLRU/GIPPR/4-DGIPPR (same misses).
smoke-kernels:
	$(PYTHON) scripts/smoke_kernels.py

# Cache-dynamics analytics check: the vectorized Mattson profiler is
# bit-identical to the trace.analysis oracles (random + SPEC-archetype
# streams), columnar engine counters reconcile exactly with scalar
# CacheStats (batch and duel), the metrics/manifest/event flush surfaces
# validate, and counters=True stays within its 5% overhead budget.
smoke-analytics:
	$(PYTHON) scripts/smoke_analytics.py

# Surrogate prefilter check: the analytic IPV miss-rate model reaches
# the Spearman-rho audit floor on its native LRU substrate, kept
# survivors carry bit-identical simulated fitness, the cross-generation
# memo serves repeated batches with zero simulator calls, a prefiltered
# GA run recovers the unfiltered best, and scoring a 20k population
# takes seconds.
smoke-surrogate:
	$(PYTHON) scripts/smoke_surrogate.py

# Serving-scenario check: sharded front-end miss counts are bit-identical
# across shard counts and engines to a single-cache scalar reference, the
# run_serving report/manifest/status schema holds, seed=None derivation
# is deterministic, and a bounded ingest queue sheds load visibly.
smoke-serving:
	$(PYTHON) scripts/smoke_serving.py

# Serving SLO-telemetry check: a mid-run scrape of the OpenMetrics
# endpoint returns parseable text with per-shard p99 and windowed
# hit-rate gauges, drift detection fires on an injected hot-set flip and
# stays quiet on a stationary stream, attaching telemetry stays within
# the 5% drain-loop overhead budget, and `repro serve --slo-strict`
# exits non-zero on a violated SLO.
smoke-slo:
	$(PYTHON) scripts/smoke_slo.py

figures:
	$(PYTHON) scripts/export_results.py --outdir results

report:
	$(PYTHON) scripts/make_report.py --out results/REPORT.md

wn-vectors:
	$(PYTHON) scripts/evolve_wn1_vectors.py

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script || exit 1; done

clean:
	rm -rf results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
