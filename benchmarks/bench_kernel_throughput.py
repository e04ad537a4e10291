"""Transition-table kernel throughput: LUT vs bit-walk vs columnar.

Measures the claims behind :mod:`repro.kernels` and
:mod:`repro.engine.columnar`:

1. simulator throughput (accesses/second) of the scalar PLRU-IPV executor
   on the precompiled transition tables versus its Figure 5/7/9 bit-walk
   fallback, for k in {4, 8, 16} — asserting bit-identical miss counts;
2. GA generation wall-time of an evaluator on the scalar table path versus
   the same evaluator on the bit-walk — asserting the evolved best vector
   is identical;
3. a GA-population batch (many IPV lanes over one shared trace pass)
   through :class:`repro.engine.columnar.BatchSimulator` versus the
   per-lane scalar table executor that ``FitnessEvaluator`` runs below
   :data:`repro.engine.columnar.MIN_BATCH_LANES` — the evidence for that
   threshold, again bit-identical.

Runs under pytest-benchmark as part of ``make bench``; ``make
bench-check`` runs the same cases once each at a small ``REPRO_SCALE``
with timing disabled, so the bit-identity assertions gate CI.

The walk runs where it runs in production at k=16 — with numpy disabled
at the ``repro.kernels.tables._np`` seam, so no 16-way tables compile —
and under ``repro.verify.differential.forced_bit_walk`` at smaller k.

``REPRO_SCALE`` scales the stream and trace lengths as in the other
benches.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager

import pytest

from repro.engine import columnar as _columnar
from repro.engine.columnar import (
    BatchSimulator,
    ColumnarTrace,
    columnar_supported,
    simulate_misses_plru_columnar,
)
from repro.ga.fitness import (
    FitnessEvaluator,
    simulate_misses_plru_ipv,
)
from repro.ga.genetic import evolve_ipv
from repro.kernels import compile_tables
from repro.kernels import tables as _ktables
from repro.verify.differential import forced_bit_walk

#: Default accesses per simulated stream (the pytest cases use fewer).
DEFAULT_ACCESSES = 200_000
ASSOCIATIVITIES = (4, 8, 16)
NUM_SETS = 256
#: The population batch runs at the GA's geometry and trace length.
POPULATION_SETS = 64
POPULATION_ACCESSES = 8_000
POPULATION_REPEATS = 7


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", "1") or "1")
    except ValueError:
        return 1.0


def make_stream(accesses: int, num_sets: int, assoc: int, seed: int = 42):
    """A mixed hit/miss block-address stream over ~2x the cache footprint."""
    rng = random.Random(seed)
    footprint = 2 * num_sets * assoc
    hot = num_sets * assoc // 2
    stream = []
    for _ in range(accesses):
        # 70 % of references hit a hot working set that fits, the rest
        # sweep a footprint twice the capacity: both paths get exercised.
        if rng.random() < 0.7:
            stream.append(rng.randrange(hot))
        else:
            stream.append(rng.randrange(footprint))
    return stream


@contextmanager
def _numpy_disabled():
    saved = _ktables._np
    _ktables._np = None
    try:
        yield
    finally:
        _ktables._np = saved


def walking(assoc: int):
    """The bit-walk for ``assoc`` ways: the numpy seam at 16, forced below."""
    return _numpy_disabled() if assoc == 16 else forced_bit_walk()


def bench_ipv(k: int, seed: int = 9):
    """A deterministic non-trivial IPV for a k-way set."""
    rng = random.Random(seed + k)
    return tuple(rng.randrange(k) for _ in range(k + 1))


def measure_sim_throughput(assoc: int, accesses: int) -> dict:
    """Time walk vs LUT on one stream; assert bit-identical misses."""
    entries = bench_ipv(assoc)
    stream = make_stream(accesses, NUM_SETS, assoc)
    warmup = accesses // 10
    compile_tables(assoc, entries)  # compile outside the timed region

    with walking(assoc):
        t0 = time.perf_counter()
        walk_misses = simulate_misses_plru_ipv(
            stream, NUM_SETS, assoc, entries, warmup
        )
        walk_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    lut_misses = simulate_misses_plru_ipv(
        stream, NUM_SETS, assoc, entries, warmup
    )
    lut_sec = time.perf_counter() - t0

    if walk_misses != lut_misses:
        raise AssertionError(
            f"k={assoc}: LUT misses {lut_misses} != walk misses {walk_misses}"
        )
    row = {
        "assoc": assoc,
        "accesses": accesses,
        "misses": walk_misses,
        "walk_accesses_per_sec": accesses / walk_sec,
        "lut_accesses_per_sec": accesses / lut_sec,
        "speedup": walk_sec / lut_sec,
        "table_bytes": compile_tables(assoc, entries).nbytes,
    }
    if columnar_supported(assoc):
        t0 = time.perf_counter()
        columnar_misses = simulate_misses_plru_columnar(
            stream, NUM_SETS, assoc, entries, warmup
        )
        columnar_sec = time.perf_counter() - t0
        if columnar_misses != walk_misses:
            raise AssertionError(
                f"k={assoc}: columnar misses {columnar_misses}"
                f" != walk misses {walk_misses}"
            )
        row["columnar_accesses_per_sec"] = accesses / columnar_sec
        row["columnar_speedup"] = walk_sec / columnar_sec
    return row


def measure_population_batch(lanes: int) -> dict:
    """Time a GA population evaluated lane by lane on the scalar table
    executor vs in one columnar batch; assert bit-identical misses on
    every lane.

    The per-lane side is what ``FitnessEvaluator.evaluate_many`` runs for
    batches under :data:`repro.engine.columnar.MIN_BATCH_LANES`, at the
    GA's geometry and trace length (``ga_config``).  Each side reports
    its best of :data:`POPULATION_REPEATS` alternating runs.
    """
    assoc, num_sets, accesses = 16, POPULATION_SETS, POPULATION_ACCESSES
    stream = make_stream(accesses, num_sets, assoc)
    warmup = accesses // 10
    population = [bench_ipv(assoc, seed=100 + i) for i in range(lanes)]
    # Construct the simulator outside the timed region: it holds its own
    # table references, so the per-lane runs below find their tables
    # compiled too.
    simulator = BatchSimulator(num_sets, assoc, population, warmup)

    tables_sec = columnar_sec = float("inf")
    for _ in range(POPULATION_REPEATS):
        t0 = time.perf_counter()
        per_lane = [
            simulate_misses_plru_ipv(stream, num_sets, assoc, entries, warmup)
            for entries in population
        ]
        tables_sec = min(tables_sec, time.perf_counter() - t0)

        # Trace preprocessing is part of the measured columnar cost —
        # unlike table compilation it cannot be cached across fresh
        # streams.
        t0 = time.perf_counter()
        columnar = simulator.run(ColumnarTrace(stream, num_sets))
        columnar_sec = min(columnar_sec, time.perf_counter() - t0)

    mismatched = [
        (i, int(columnar[i]), per_lane[i])
        for i in range(lanes)
        if int(columnar[i]) != per_lane[i]
    ]
    if mismatched:
        raise AssertionError(
            f"columnar misses diverge from the scalar tables on "
            f"{len(mismatched)} lanes: {mismatched[:3]}"
        )
    return {
        "assoc": assoc,
        "num_sets": num_sets,
        "accesses": accesses,
        "lanes": lanes,
        "misses": per_lane,
        "tables_sec": tables_sec,
        "columnar_sec": columnar_sec,
        "speedup": tables_sec / columnar_sec,
        "lane_accesses_per_sec": (lanes * accesses) / columnar_sec,
    }


def measure_population_surrogate(
    trace_length: int = 6_000,
    population: int = 1_500,
    keep: float = 0.05,
    audit: int = 32,
) -> dict:
    """Analytic-prefilter economics at population scale.

    Times one generation-sized batch three ways: pure surrogate scoring
    (the O(1)-per-candidate closed form), full simulation of everybody,
    and the prefiltered path (surrogate ranks, only ``keep`` of the
    batch plus the audit sample is simulated).  Asserts the kept
    survivors' fitness is bit-identical to the full-simulation floats —
    the prefilter only ever decides *who* gets simulated.

    Two fidelity numbers come back: ``audit_rho`` is the prefilter's own
    control-sample rho against the deployment (tree-PLRU) substrate —
    the number the in-run safety net watches — and ``audit_rho_lru`` is
    the same sample correlated against the ``substrate="lru"`` simulator,
    the recency-stack space the model actually approximates (its honest
    fidelity ceiling; the gap between the two is the PLRU-vs-stack
    substrate gap, not model error).
    """
    from repro.eval import default_config
    from repro.ga.parallel import PopulationEvaluator
    from repro.ga.surrogate import (
        FitnessMemo,
        SurrogateModel,
        SurrogatePrefilter,
        spearman_rho,
    )

    benchmarks = ["429.mcf", "462.libquantum"]
    evaluator = FitnessEvaluator(
        benchmarks=benchmarks,
        config=default_config(trace_length=trace_length),
    )
    t0 = time.perf_counter()
    model = SurrogateModel.from_evaluator(evaluator, cache_dir=None)
    feature_sec = time.perf_counter() - t0

    k = evaluator.k
    rng = random.Random(11)
    candidates = [
        tuple(rng.randrange(k) for _ in range(k + 1))
        for _ in range(population)
    ]

    t0 = time.perf_counter()
    model.score_population(candidates)
    score_sec = time.perf_counter() - t0

    with PopulationEvaluator(evaluator) as pop_eval:
        prefilter = SurrogatePrefilter(
            model, keep=keep, audit=audit, seed=3
        )
        memo = FitnessMemo()
        t0 = time.perf_counter()
        kept = prefilter.evaluate_batch(pop_eval, memo, candidates)
        prefiltered_sec = time.perf_counter() - t0

        t0 = time.perf_counter()
        full = dict(zip(candidates, pop_eval.evaluate_all(candidates)))
        simulate_all_sec = time.perf_counter() - t0

    mismatched = [
        entries for fitness, entries in kept if full[entries] != fitness
    ]
    if mismatched:
        raise AssertionError(
            f"prefiltered fitness diverges from full simulation on "
            f"{len(mismatched)} candidates: {mismatched[:3]}"
        )

    # Native-space fidelity: the same control-sample size against the
    # recency-stack simulator the model approximates.
    lru_eval = FitnessEvaluator(
        benchmarks=benchmarks,
        config=default_config(trace_length=trace_length),
        substrate="lru",
    )
    sample_rng = random.Random(7)
    sample = [
        tuple(sample_rng.randrange(k) for _ in range(k + 1))
        for _ in range(max(audit, 32))
    ]
    audit_rho_lru = spearman_rho(
        model.score_population(sample), lru_eval.evaluate_many(sample)
    )
    return {
        "benchmarks": benchmarks,
        "trace_length": trace_length,
        "population": population,
        "keep": keep,
        "audit": audit,
        "feature_sec": feature_sec,
        "score_sec": score_sec,
        "surrogate_score_per_sec": population / score_sec,
        "simulated": len(kept),
        "simulate_all_sec": simulate_all_sec,
        "prefiltered_sec": prefiltered_sec,
        "generation_speedup": simulate_all_sec / prefiltered_sec,
        "audit_rho": prefilter.rho,
        "audit_rho_lru": audit_rho_lru,
    }


def measure_analytics_profile(
    accesses: int = DEFAULT_ACCESSES,
    oracle_accesses: int = 60_000,
    num_sets: int = NUM_SETS,
) -> dict:
    """Vectorized Mattson profiler vs the ``trace.analysis`` oracle.

    The vectorized single pass runs over the full stream; the
    O(n x footprint) OrderedDict oracle is timed on a prefix (running it
    at a million accesses would take minutes) and the two are compared
    as per-access rates.  Bit-equality of the global stack-distance
    histogram and the per-set reuse histogram is asserted on the prefix
    — the speed claim is only meaningful if the numbers match.
    """
    from repro.obs.analytics import profile_trace
    from repro.trace.analysis import (
        per_set_reuse_histogram,
        stack_distance_histogram,
    )
    from repro.trace.record import Trace

    stream = make_stream(accesses, num_sets, 16, seed=17)
    prefix = stream[: min(oracle_accesses, accesses)]
    prefix_trace = Trace(prefix, name="bench-prefix")

    t0 = time.perf_counter()
    profile = profile_trace(stream, num_sets=num_sets)
    profile_sec = time.perf_counter() - t0

    t0 = time.perf_counter()
    oracle_hist = stack_distance_histogram(prefix_trace)
    oracle_reuse = per_set_reuse_histogram(prefix_trace, num_sets)
    oracle_sec = time.perf_counter() - t0

    prefix_profile = profile_trace(prefix, num_sets=num_sets)
    if prefix_profile.stack_distance_histogram() != oracle_hist:
        raise AssertionError(
            "vectorized stack-distance histogram diverges from the oracle"
        )
    if prefix_profile.per_set_reuse_histogram() != oracle_reuse:
        raise AssertionError(
            "vectorized per-set reuse histogram diverges from the oracle"
        )

    profile_rate = accesses / profile_sec
    oracle_rate = len(prefix) / oracle_sec
    return {
        "accesses": accesses,
        "oracle_accesses": len(prefix),
        "num_sets": num_sets,
        "footprint": profile.footprint,
        "profile_sec": profile_sec,
        "oracle_sec": oracle_sec,
        "profile_accesses_per_sec": profile_rate,
        "oracle_accesses_per_sec": oracle_rate,
        "speedup_vs_oracle": profile_rate / oracle_rate,
    }


def measure_ga_generation(trace_length: int = 6_000) -> dict:
    """Wall-time of a short GA run, walk vs LUT evaluator; same best."""
    from repro.eval import default_config

    benchmarks = ["429.mcf", "462.libquantum"]

    def run():
        evaluator = FitnessEvaluator(
            benchmarks=benchmarks,
            config=default_config(trace_length=trace_length),
        )
        t0 = time.perf_counter()
        result = evolve_ipv(
            evaluator, population_size=10, initial_population_size=20,
            generations=3, seed=7,
        )
        return time.perf_counter() - t0, result

    with _numpy_disabled():  # no 16-way tables and no columnar engine
        walk_sec, walk_result = run()
    # Hold every batch under the columnar lane threshold: the scalar
    # table path.
    threshold = _columnar.MIN_BATCH_LANES
    _columnar.MIN_BATCH_LANES = 1 << 30
    try:
        lut_sec, lut_result = run()
    finally:
        _columnar.MIN_BATCH_LANES = threshold
    if tuple(walk_result.best.entries) != tuple(lut_result.best.entries):
        raise AssertionError(
            "GA best vector differs between walk and LUT evaluators: "
            f"{list(walk_result.best.entries)} vs {list(lut_result.best.entries)}"
        )
    if walk_result.best_fitness != lut_result.best_fitness:
        raise AssertionError("GA best fitness differs between walk and LUT")
    generations = len(walk_result.history)
    return {
        "benchmarks": benchmarks,
        "trace_length": trace_length,
        "generations": generations,
        "walk_wall_sec": walk_sec,
        "lut_wall_sec": lut_sec,
        "walk_sec_per_generation": walk_sec / generations,
        "lut_sec_per_generation": lut_sec / generations,
        "speedup": walk_sec / lut_sec,
        "best_entries": list(walk_result.best.entries),
        "best_fitness": walk_result.best_fitness,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points (part of ``make bench``).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("assoc", list(ASSOCIATIVITIES))
def test_kernel_sim_throughput(benchmark, assoc):
    accesses = max(10_000, int(60_000 * _scale()))
    entries = bench_ipv(assoc)
    stream = make_stream(accesses, NUM_SETS, assoc)
    warmup = accesses // 10
    compile_tables(assoc, entries)
    with walking(assoc):
        walk = simulate_misses_plru_ipv(
            stream, NUM_SETS, assoc, entries, warmup
        )
    lut = benchmark(
        simulate_misses_plru_ipv,
        stream, NUM_SETS, assoc, entries, warmup,
    )
    # Bit-exactness is the bench's correctness bar.
    assert lut == walk
    row = measure_sim_throughput(assoc, accesses)
    benchmark.extra_info["speedup_vs_walk"] = row["speedup"]
    benchmark.extra_info["lut_accesses_per_sec"] = row[
        "lut_accesses_per_sec"
    ]
    # The LUT path must never lose to the walk it memoizes.
    assert row["speedup"] > 1.0


@pytest.mark.parametrize("lanes", [2, 4, 8])
def test_kernel_population_batch(benchmark, lanes):
    if not columnar_supported(16):
        pytest.skip("columnar engine needs numpy")
    row = benchmark.pedantic(
        measure_population_batch,
        kwargs={"lanes": lanes},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["speedup_vs_tables"] = row["speedup"]
    benchmark.extra_info["lane_accesses_per_sec"] = row[
        "lane_accesses_per_sec"
    ]
    # From the dispatch threshold up, one batch must beat running the
    # lanes one by one on the tables.
    if lanes >= _columnar.MIN_BATCH_LANES:
        assert row["speedup"] > 1.0


def test_kernel_analytics_profile(benchmark):
    from repro.kernels.tables import numpy_or_none

    if numpy_or_none() is None:
        pytest.skip("vectorized profiler needs numpy")
    accesses = max(10_000, int(60_000 * _scale()))
    row = benchmark.pedantic(
        measure_analytics_profile,
        kwargs={"accesses": accesses, "oracle_accesses": 20_000},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["speedup_vs_oracle"] = row["speedup_vs_oracle"]
    benchmark.extra_info["profile_accesses_per_sec"] = row[
        "profile_accesses_per_sec"
    ]
    # The vectorized pass must beat the OrderedDict stack walk.
    assert row["speedup_vs_oracle"] > 1.0


def test_kernel_population_surrogate(benchmark):
    from repro.kernels.tables import numpy_or_none

    if numpy_or_none() is None:
        pytest.skip("vectorized surrogate scoring needs numpy")
    row = benchmark.pedantic(
        measure_population_surrogate,
        kwargs={
            "trace_length": max(2_000, int(4_000 * _scale())),
            "population": max(120, int(600 * _scale())),
        },
        rounds=1, iterations=1,
    )
    benchmark.extra_info["generation_speedup"] = row["generation_speedup"]
    benchmark.extra_info["surrogate_score_per_sec"] = row[
        "surrogate_score_per_sec"
    ]
    # Skipping ~90% of the simulations must beat simulating everyone
    # (measure_population_surrogate already asserts bit-identity of
    # the survivors' fitness).
    assert row["generation_speedup"] > 1.0


def test_kernel_ga_generation(benchmark):
    # Note: each *new* k=16 vector pays a ~20 ms table compile, so the
    # LUT only wins once traces are long enough to amortize it (tiny
    # REPRO_SCALE runs may not be).  The
    # assertion here is the determinism contract — same evolved best
    # across kernels — which measure_ga_generation itself enforces.
    trace_length = max(2_000, int(4_000 * _scale()))
    row = benchmark.pedantic(
        measure_ga_generation,
        kwargs={"trace_length": trace_length},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["speedup"] = row["speedup"]
    benchmark.extra_info["best_entries"] = row["best_entries"]
    assert row["walk_wall_sec"] > 0 and row["lut_wall_sec"] > 0
