"""Tests for the trace runner and benchmark aggregation."""

import random

import pytest

from repro.cache import SetAssociativeCache
from repro.core.ipv import IPV, lip_ipv, lru_ipv, mru_pessimistic_ipv
from repro.core.vectors import DGIPPR2_WI_VECTORS, DGIPPR4_WI_VECTORS
from repro.eval import default_config, run_benchmark, run_trace
from repro.eval import runner
from repro.eval.runner import BenchmarkResult, RunResult
from repro.kernels import tables as ktables
from repro.obs import Tracer
from repro.policies import BeladyPolicy, TrueLRUPolicy, make_policy
from repro.trace import (
    Trace,
    annotate_next_use,
    assign_instruction_positions,
    looping,
    streaming,
)
from repro.verify.differential import duel_counters
from repro.workloads import get_benchmark


class TestRunTrace:
    def test_streaming_misses_everything(self):
        config = default_config(trace_length=5000, warmup_fraction=0.2)
        trace = streaming(5000)
        result = run_trace(TrueLRUPolicy(64, 16), trace, config)
        assert result.misses == result.accesses == 4000
        assert result.miss_rate == 1.0

    def test_warmup_excluded_from_stats(self):
        config = default_config(warmup_fraction=0.5)
        trace = looping(100, 2000)  # fits in cache: misses only in warmup
        result = run_trace(TrueLRUPolicy(64, 16), trace, config)
        assert result.misses == 0
        assert result.accesses == 1000

    def test_mpki_scaling(self):
        config = default_config(warmup_fraction=0.0)
        trace = Trace(list(range(1000)), instructions=100_000)
        result = run_trace(TrueLRUPolicy(64, 16), trace, config)
        assert result.mpki == pytest.approx(10.0)

    def test_collect_miss_positions(self):
        config = default_config(warmup_fraction=0.0)
        trace = Trace(list(range(100)), instructions=1000)
        result = run_trace(
            TrueLRUPolicy(64, 16), trace, config, collect_miss_positions=True
        )
        assert len(result.miss_positions) == 100
        assert result.miss_positions == sorted(result.miss_positions)

    def test_belady_annotation_automatic(self):
        config = default_config(warmup_fraction=0.1)
        trace = looping(1200, 6000)
        result = run_trace(BeladyPolicy(64, 16), trace, config)
        assert result.misses < result.accesses  # MIN retains part of the loop


class TestMeasuredInstructions:
    """Satellite: position-annotated traces use the *real* measured-window
    instruction count, not the uniform estimate."""

    def test_positions_drive_instruction_count(self):
        config = default_config(warmup_fraction=0.5)
        # 100 accesses over 10k instructions, but bunched: the first 50
        # land in instructions 0-49, the measured 50 in 9000-9049.  The
        # uniform estimate would claim 5000 measured instructions; the
        # annotation says 1000.
        positions = list(range(50)) + list(range(9000, 9050))
        trace = Trace(
            list(range(100)), instructions=10_000, positions=positions
        )
        result = run_trace(TrueLRUPolicy(64, 16), trace, config)
        assert result.instructions == 10_000 - positions[50]
        assert result.instructions == 1000

    def test_unannotated_trace_keeps_uniform_estimate(self):
        config = default_config(warmup_fraction=0.5)
        trace = Trace(list(range(100)), instructions=10_000)
        result = run_trace(TrueLRUPolicy(64, 16), trace, config)
        assert result.instructions == 5000

    def test_mpki_denominator_matches_miss_positions_window(self):
        config = default_config(warmup_fraction=0.5)
        positions = list(range(50)) + list(range(9000, 9050))
        trace = Trace(
            list(range(100)), instructions=10_000, positions=positions
        )
        result = run_trace(
            TrueLRUPolicy(64, 16), trace, config,
            collect_miss_positions=True,
        )
        # Every miss position (absolute instruction coordinates) sits
        # inside the measured window the denominator describes.
        window = 10_000 - positions[50]
        assert all(
            positions[50] <= p < 10_000 for p in result.miss_positions
        )
        assert result.mpki == pytest.approx(
            1000.0 * result.misses / window
        )


class TestTinyGeometry:
    """Satellite: set-dueling policies degrade gracefully on tiny caches
    instead of raising from leader-set assignment."""

    def test_dgippr_runs_on_two_set_cache(self):
        config = default_config(trace_length=2000).scaled(num_sets=2)
        policy = make_policy("dgippr", config.num_sets, config.assoc)
        result = run_trace(policy, streaming(2000), config)
        assert result.accesses > 0
        assert 0 <= result.misses <= result.accesses

    def test_drrip_runs_on_two_set_cache(self):
        config = default_config(trace_length=2000).scaled(num_sets=2)
        policy = make_policy("drrip", config.num_sets, config.assoc)
        result = run_trace(policy, streaming(2000), config)
        assert result.accesses > 0

    def test_tiny_benchmark_sweep(self):
        config = default_config(trace_length=2000).scaled(num_sets=2)
        result = run_benchmark("dgippr", get_benchmark("429.mcf"), config)
        assert result.misses >= 0


class TestRunBenchmark:
    def test_weighted_aggregation(self):
        config = default_config(trace_length=4000)
        bench = get_benchmark("429.mcf")
        result = run_benchmark("lru", bench, config)
        assert isinstance(result, BenchmarkResult)
        assert len(result.runs) == len(bench.simpoints)
        expected = sum(
            r.misses * w for r, w in zip(result.runs, bench.weights())
        )
        assert result.misses == pytest.approx(expected)

    def test_policy_kwargs_forwarded(self):
        from repro.core.ipv import lip_ipv

        config = default_config(trace_length=3000)
        bench = get_benchmark("462.libquantum")
        lipped = run_benchmark(
            "gippr", bench, config, policy_kwargs={"ipv": lip_ipv(16)}
        )
        default = run_benchmark("gippr", bench, config)
        assert lipped.misses != default.misses

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkResult("x", "lru", [], [1.0])


class TestWeightedMpki:
    """Satellite: aggregate MPKI must be weighted misses over weighted
    instructions — not a weighted average of per-run MPKIs, which
    disagrees whenever simpoints have unequal instruction counts."""

    def test_unequal_simpoint_lengths(self):
        runs = [
            RunResult("a", "lru", accesses=100, misses=10,
                      instructions=1_000),
            RunResult("b", "lru", accesses=100, misses=50,
                      instructions=100_000),
        ]
        agg = BenchmarkResult("x", "lru", runs, [0.5, 0.5])
        assert agg.mpki == pytest.approx(
            1000.0 * agg.misses / agg.instructions
        )
        # Regression guard: the buggy definition averaged per-run MPKIs.
        buggy = 0.5 * runs[0].mpki + 0.5 * runs[1].mpki
        assert abs(agg.mpki - buggy) > 1.0

    def test_equal_lengths_unchanged(self):
        """With equal instruction counts both definitions coincide, so the
        fix is value-neutral for the registry benchmarks."""
        runs = [
            RunResult("a", "lru", accesses=100, misses=10,
                      instructions=10_000),
            RunResult("b", "lru", accesses=100, misses=50,
                      instructions=10_000),
        ]
        agg = BenchmarkResult("x", "lru", runs, [0.25, 0.75])
        averaged = 0.25 * runs[0].mpki + 0.75 * runs[1].mpki
        assert agg.mpki == pytest.approx(averaged)

    def test_zero_instructions_gives_zero_mpki(self):
        runs = [RunResult("a", "lru", accesses=0, misses=0, instructions=0)]
        agg = BenchmarkResult("x", "lru", runs, [1.0])
        assert agg.mpki == 0.0


def _ipv(assoc, seed):
    rng = random.Random(seed)
    return IPV([rng.randrange(assoc) for _ in range(assoc + 1)], name="rand")


def _route_kwargs(label, assoc):
    """Constructor kwargs per test label; paper vectors at 16 ways."""
    if label == "ipv-lru":
        return {"ipv": lru_ipv(assoc)}
    if label == "ipv-lru-mru":
        return {"ipv": mru_pessimistic_ipv(assoc)}
    if label in ("giplr", "gippr") and assoc != 16:
        return {"ipv": _ipv(assoc, 3)}
    if label == "2-dgippr":
        if assoc == 16:
            return {"ipvs": DGIPPR2_WI_VECTORS}
        return {"ipvs": [lru_ipv(assoc), lip_ipv(assoc)]}
    if label == "4-dgippr":
        if assoc == 16:
            return {"ipvs": DGIPPR4_WI_VECTORS}
        return {"ipvs": [lru_ipv(assoc), lip_ipv(assoc), _ipv(assoc, 4),
                         _ipv(assoc, 5)]}
    return {}


def _route_policy(label, num_sets, assoc):
    name = {"ipv-lru-mru": "ipv-lru", "2-dgippr": "dgippr",
            "4-dgippr": "dgippr"}.get(label, label)
    return make_policy(name, num_sets, assoc, **_route_kwargs(label, assoc))


def _hand_driven(policy, trace, config):
    """The per-access reference: a SetAssociativeCache driven here."""
    cache = SetAssociativeCache(
        config.num_sets, config.assoc, policy, block_size=1
    )
    addresses = trace.address_list()
    pcs = trace.pc_list()
    next_use = annotate_next_use(trace)
    warmup = int(len(addresses) * config.warmup_fraction)
    for i in range(warmup):
        cache.access(addresses[i], pcs[i], next_use=next_use[i])
    cache.reset_stats()
    positions = trace.position_list()
    miss_positions = [
        positions[i] for i in range(warmup, len(addresses))
        if not cache.access(addresses[i], pcs[i], next_use=next_use[i])
    ]
    cache.stats.instructions = trace.instructions - positions[warmup]
    return cache.stats.snapshot(), miss_positions


class TestEngineRoute:
    """Without a tracer, ``run_trace`` runs the IPV family on the scalar
    engine; the result must equal a per-access cache run exactly."""

    ROUTED = ("lru", "ipv-lru", "plru", "gippr", "2-dgippr", "4-dgippr")
    PER_ACCESS = ("ipv-lru-mru", "giplr", "bypass-dgippr", "drrip", "pdp",
                  "belady")

    @pytest.fixture
    def caches_built(self, monkeypatch):
        built = []

        class Spy(SetAssociativeCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner, "SetAssociativeCache", Spy)
        return built

    def _compare(self, label, num_sets, assoc, caches_built):
        config = default_config(trace_length=6000, warmup_fraction=0.25)
        config = config.scaled(num_sets=num_sets, assoc=assoc)
        for bench, simpoint in (("429.mcf", 0), ("462.libquantum", 0)):
            trace = assign_instruction_positions(
                get_benchmark(bench).trace(
                    simpoint, config.trace_length, config.capacity_blocks,
                    seed=3,
                ),
                seed=5, burstiness=0.5,
            )
            reference = _route_policy(label, num_sets, assoc)
            want_stats, want_positions = _hand_driven(
                reference, trace, config
            )
            policy = _route_policy(label, num_sets, assoc)
            stats = {}
            del caches_built[:]
            result = run_trace(
                policy, trace, config, collect_miss_positions=True,
                stats_sink=stats,
            )
            assert stats == want_stats, (label, bench)
            assert result.misses == want_stats["misses"]
            assert result.accesses == want_stats["accesses"]
            assert result.instructions == want_stats["instructions"]
            assert result.miss_positions == want_positions
            assert duel_counters(policy) == duel_counters(reference)
            routed = not caches_built
        return routed

    @pytest.mark.parametrize("label", ROUTED + PER_ACCESS)
    def test_tables_geometry(self, label, caches_built):
        routed = self._compare(label, 64, 16, caches_built)
        assert routed == (label in self.ROUTED)

    @pytest.mark.parametrize("label", ROUTED)
    def test_walk_geometry(self, label, caches_built):
        assert self._compare(label, 8, 32, caches_built)

    @pytest.mark.parametrize("label", ROUTED)
    def test_sixteen_ways_without_numpy(self, label, caches_built,
                                        monkeypatch):
        monkeypatch.setattr(ktables, "_np", None)
        assert self._compare(label, 16, 16, caches_built)

    @pytest.mark.parametrize("label", ("plru", "4-dgippr", "lru"))
    def test_tracer_keeps_per_access_path(self, label, caches_built):
        config = default_config(trace_length=2000).scaled(
            num_sets=16, assoc=16
        )
        trace = get_benchmark("429.mcf").trace(
            0, config.trace_length, config.capacity_blocks, seed=1
        )
        traced = run_trace(
            _route_policy(label, 16, 16), trace, config, tracer=Tracer()
        )
        assert len(caches_built) == 1
        untraced = run_trace(_route_policy(label, 16, 16), trace, config)
        assert len(caches_built) == 1
        assert traced.misses == untraced.misses
