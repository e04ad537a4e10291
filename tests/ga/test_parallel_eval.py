"""Determinism of the parallel population evaluator and workload sharing.

The contract being tested: ``workers=N`` is bit-identical to the serial
path for every N, for every search driver (GA, hill climbing, random
sampling), and the executor the code picks (columnar batch, scalar table
path, or the bit-walk it falls back to without numpy) never changes a
single fitness value — so ``same seed => same evolved vector`` holds
across all execution modes.
"""

import pytest

from repro.engine import columnar
from repro.eval import default_config
from repro.ga import (
    FitnessEvaluator,
    PopulationEvaluator,
    evolve_ipv,
    hill_climb,
    random_search,
)
from repro.ga.fitness import _shared_workloads
from repro.kernels import tables as ktables
from repro.obs.metrics import MetricsRegistry
from repro.obs.shipping import merge_spool

BENCHMARKS = ["429.mcf", "462.libquantum"]

needs_columnar = pytest.mark.skipif(
    not columnar.columnar_supported(16), reason="columnar engine needs numpy"
)


def make_evaluator(trace_length=2_000):
    return FitnessEvaluator(
        benchmarks=BENCHMARKS,
        config=default_config(trace_length=trace_length),
    )


def worker_columnar_calls(spool_root):
    registry = MetricsRegistry()
    for spool in spool_root.glob("ga-*"):
        merge_spool(spool, registry=registry)
    series = registry.to_json()["repro_kernel_columnar_calls"]["series"]
    return sum(point["value"] for point in series)


@pytest.fixture(scope="module")
def evaluator():
    return make_evaluator()


def some_individuals(k, n=6, seed=5):
    import random

    rng = random.Random(seed)
    return [tuple(rng.randrange(k) for _ in range(k + 1)) for _ in range(n)]


# ----------------------------------------------------------------------
# PopulationEvaluator.
# ----------------------------------------------------------------------
def test_parallel_scores_match_serial_in_order(evaluator):
    individuals = some_individuals(evaluator.k)
    with PopulationEvaluator(evaluator, workers=0) as serial:
        base = serial.evaluate_all(individuals)
    with PopulationEvaluator(evaluator, workers=2) as parallel:
        fanned = parallel.evaluate_all(individuals)
    assert fanned == base  # same values, same (submission) order


def test_population_evaluator_counts_and_close(evaluator):
    individuals = some_individuals(evaluator.k, n=3)
    pop = PopulationEvaluator(evaluator, workers=0)
    pop.evaluate_all(individuals)
    assert pop.evaluations == 3
    pop.close()
    pop.close()  # idempotent


def test_spec_roundtrip_preserves_fitness(evaluator):
    rebuilt = FitnessEvaluator.from_spec(evaluator.spec())
    for entries in some_individuals(evaluator.k, n=3, seed=9):
        assert rebuilt.evaluate(entries) == evaluator.evaluate(entries)


# ----------------------------------------------------------------------
# Search drivers: parallel == serial, LUT == walk.
# ----------------------------------------------------------------------
def test_evolve_ipv_parallel_identical_to_serial(evaluator, tmp_path):
    kwargs = dict(
        population_size=8, initial_population_size=12, generations=2, seed=3
    )
    serial = evolve_ipv(evaluator, workers=0, **kwargs)
    parallel = evolve_ipv(evaluator, workers=2, telemetry=tmp_path, **kwargs)
    assert tuple(parallel.best.entries) == tuple(serial.best.entries)
    assert parallel.best_fitness == serial.best_fitness
    assert parallel.history == serial.history
    assert parallel.evaluations == serial.evaluations
    if columnar.columnar_supported(16):
        # The pool scores the population in columnar worker slices.
        assert worker_columnar_calls(tmp_path) > 0


def _evolve_walk(kwargs, monkeypatch):
    """16-way tables need numpy: without it every path is the bit-walk."""
    with monkeypatch.context() as patch:
        patch.setattr(ktables, "_np", None)
        return evolve_ipv(make_evaluator(), **kwargs)


def test_evolve_ipv_lut_identical_to_walk(monkeypatch):
    kwargs = dict(
        population_size=6, initial_population_size=10, generations=2, seed=11
    )
    walk = _evolve_walk(kwargs, monkeypatch)
    # Keep every batch below the columnar threshold: the scalar table path.
    monkeypatch.setattr(columnar, "MIN_BATCH_LANES", 1 << 30)
    lut = evolve_ipv(make_evaluator(), **kwargs)
    assert tuple(lut.best.entries) == tuple(walk.best.entries)
    assert lut.best_fitness == walk.best_fitness
    assert lut.history == walk.history


def test_hill_climb_parallel_identical_to_serial(evaluator):
    from repro.core.ipv import IPV

    start = IPV([0] * (evaluator.k + 1), name="start")
    values = [0, 1, evaluator.k - 1]
    serial = hill_climb(
        evaluator, start, candidate_values=values, max_passes=1, workers=0
    )
    parallel = hill_climb(
        evaluator, start, candidate_values=values, max_passes=1, workers=2
    )
    assert tuple(parallel.best.entries) == tuple(serial.best.entries)
    assert parallel.best_fitness == serial.best_fitness
    assert parallel.steps == serial.steps
    assert parallel.evaluations == serial.evaluations


def test_random_search_parallel_identical_to_serial(evaluator):
    serial = random_search(evaluator, samples=8, seed=2, workers=0)
    parallel = random_search(evaluator, samples=8, seed=2, workers=2)
    assert [(s, tuple(v.entries)) for s, v in serial] == [
        (s, tuple(v.entries)) for s, v in parallel
    ]


# ----------------------------------------------------------------------
# Workload sharing.
# ----------------------------------------------------------------------
def test_evaluators_share_workloads_by_reference():
    a = make_evaluator()
    b = make_evaluator()
    # Identical derivation key -> the module memo hands out the same lists.
    assert a._workloads[0][2] is b._workloads[0][2]
    cfg = a.config
    shared = _shared_workloads(
        BENCHMARKS[0], cfg.trace_length, cfg.capacity_blocks, cfg.seed
    )
    assert a._workloads[0][2] is shared[0][0]


def test_baseline_lru_cycles_shared_and_equal():
    a = make_evaluator()
    b = make_evaluator()
    assert a._lru_cycles == b._lru_cycles


def test_kernel_argument_validated():
    """The executor is picked by the code: a caller still passing a
    kernel setting gets a loud error, never a silently ignored knob."""
    with pytest.raises(TypeError):
        FitnessEvaluator(benchmarks=BENCHMARKS, kernel="banana")


# ----------------------------------------------------------------------
# Columnar batching through the population evaluator.
# ----------------------------------------------------------------------
@needs_columnar
def test_columnar_serial_identical_to_walk_serial(monkeypatch):
    individuals = some_individuals(16, n=6)
    evaluator = make_evaluator()
    with PopulationEvaluator(evaluator, workers=0) as serial_col:
        batched = serial_col.evaluate_all(individuals)
    monkeypatch.setattr(ktables, "_np", None)
    with PopulationEvaluator(evaluator, workers=0) as serial_walk:
        base = serial_walk.evaluate_all(individuals)
    assert batched == base


def test_columnar_parallel_identical_to_serial_in_order():
    individuals = some_individuals(16, n=9, seed=12)
    evaluator = make_evaluator()
    with PopulationEvaluator(evaluator, workers=0) as serial:
        base = serial.evaluate_all(individuals)
    with PopulationEvaluator(evaluator, workers=2) as parallel:
        fanned = parallel.evaluate_all(individuals)
    assert fanned == base  # chunked lanes reassemble in submission order
    if columnar.columnar_supported(16):
        metrics = parallel.worker_metrics.to_json()
        calls = metrics["repro_kernel_columnar_calls"]["series"][0]["value"]
        assert calls > 0


@needs_columnar
def test_evolve_ipv_columnar_identical_to_walk(monkeypatch):
    kwargs = dict(
        population_size=6, initial_population_size=10, generations=2, seed=11
    )
    walk = _evolve_walk(kwargs, monkeypatch)
    columnar_run = evolve_ipv(make_evaluator(), **kwargs)
    assert tuple(columnar_run.best.entries) == tuple(walk.best.entries)
    assert columnar_run.best_fitness == walk.best_fitness
    assert columnar_run.history == walk.history
