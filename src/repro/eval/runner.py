"""Trace-driven simulation runner.

Mirrors the paper's methodology (Section 4.3): warm the cache on a prefix of
the trace, measure misses on the remainder, and estimate CPI from the miss
count with a linear model.  Results are aggregated across a benchmark's
simpoints by SimPoint weight (Section 4.6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..cache.cache import SetAssociativeCache
from ..cache.stats import CacheStats
from ..engine.scalar import ScalarStreamSimulator, simulate_misses_lru_ipv
from ..policies.base import ReplacementPolicy
from ..policies.lru import GIPLRPolicy, IPVLRUPolicy, TrueLRUPolicy
from ..policies.plru import DGIPPRPolicy, GIPPRPolicy, TreePLRUPolicy
from ..policies.registry import make_policy
from ..trace.record import Trace, annotate_next_use
from ..workloads.spec import SpecBenchmark
from .config import ExperimentConfig

__all__ = ["RunResult", "BenchmarkResult", "run_trace", "run_benchmark"]


class RunResult:
    """Measured-window statistics for one trace under one policy."""

    __slots__ = (
        "trace_name",
        "policy_name",
        "accesses",
        "misses",
        "instructions",
        "mpki",
        "miss_positions",
    )

    def __init__(
        self,
        trace_name: str,
        policy_name: str,
        accesses: int,
        misses: int,
        instructions: int,
        miss_positions: Optional[List[int]] = None,
    ):
        self.trace_name = trace_name
        self.policy_name = policy_name
        self.accesses = accesses
        self.misses = misses
        self.instructions = instructions
        self.mpki = 1000.0 * misses / instructions if instructions else 0.0
        self.miss_positions = miss_positions

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunResult({self.trace_name} @ {self.policy_name}: "
            f"misses={self.misses}/{self.accesses}, mpki={self.mpki:.2f})"
        )


class BenchmarkResult:
    """Simpoint-weighted aggregate for one benchmark under one policy."""

    __slots__ = ("benchmark", "policy_name", "runs", "weights", "misses", "mpki", "instructions")

    def __init__(
        self,
        benchmark: str,
        policy_name: str,
        runs: Sequence[RunResult],
        weights: Sequence[float],
    ):
        if len(runs) != len(weights):
            raise ValueError("one weight per simpoint run required")
        self.benchmark = benchmark
        self.policy_name = policy_name
        self.runs = list(runs)
        self.weights = list(weights)
        # The weights are the fractions of total executed instructions each
        # simpoint represents, so misses and instructions are weighted sums.
        # MPKI is then defined as *weighted misses over weighted
        # instructions* — a single consistent ratio.  (Averaging per-run
        # MPKIs by weight is NOT equivalent when simpoints have different
        # instruction counts: it double-weights short simpoints and breaks
        # the ``1000 * misses / instructions == mpki`` invariant.)
        self.misses = sum(r.misses * w for r, w in zip(runs, weights))
        self.instructions = sum(
            r.instructions * w for r, w in zip(runs, weights)
        )
        self.mpki = (
            1000.0 * self.misses / self.instructions if self.instructions else 0.0
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BenchmarkResult({self.benchmark} @ {self.policy_name}: "
            f"mpki={self.mpki:.2f})"
        )


_PLRU_ROUTED = (TreePLRUPolicy, GIPPRPolicy, DGIPPRPolicy)
_LRU_ROUTED = (TrueLRUPolicy, IPVLRUPolicy, GIPLRPolicy)


def _engine_misses(
    policy: ReplacementPolicy,
    addresses: List[int],
    warmup: int,
    miss_indices: Optional[List[int]],
) -> Optional[int]:
    """Measured misses from the scalar engine, or ``None`` when ``policy``
    must run per access.

    Dispatch is on the *exact* class, so subclasses that change a hook
    (:class:`~repro.policies.bypass.BypassDGIPPRPolicy`) keep the cache.
    The tree-PLRU family runs its vectors — and a duel's own selector,
    whose PSEL state the run advances exactly as the hooks would — on
    :class:`~repro.engine.scalar.ScalarStreamSimulator`.  The true-LRU
    family routes only with the classic LRU vector: for other vectors the
    engine's stacks rank cold-fill blocks differently from
    :class:`~repro.core.recency.RecencyStack` (see
    :func:`~repro.engine.scalar.simulate_misses_lru_ipv`).
    """
    cls = type(policy)
    if cls in _PLRU_ROUTED:
        selector = getattr(policy, "selector", None)
        simulator = ScalarStreamSimulator(
            policy.num_sets, policy.assoc,
            policy.vectors if selector is not None else policy.vectors[0],
            warmup, miss_indices=miss_indices, selector=selector,
        )
        return simulator.feed(addresses)
    if cls in _LRU_ROUTED and not any(policy.ipv.entries):
        return simulate_misses_lru_ipv(
            addresses, policy.num_sets, policy.assoc, policy.ipv.entries,
            warmup, miss_indices=miss_indices,
        )
    return None


def _cold_fills(addresses: Sequence[int], num_sets: int, assoc: int) -> int:
    """Fills into invalid ways over a cold run of ``addresses``.

    Holds for every demand-fetch cache that never bypasses or
    invalidates: a set misses on each new block until it holds ``assoc``
    of them, so its cold fills are ``min(assoc, distinct blocks)``.
    """
    mask = num_sets - 1
    seen = [set() for _ in range(num_sets)]
    for addr in addresses:
        seen[addr & mask].add(addr)
    return sum(min(assoc, len(blocks)) for blocks in seen)


def run_trace(
    policy: ReplacementPolicy,
    trace: Trace,
    config: ExperimentConfig,
    collect_miss_positions: bool = False,
    tracer=None,
    stats_sink: Optional[Dict] = None,
) -> RunResult:
    """Run one trace under ``policy``.

    The first ``config.warmup_fraction`` of accesses warm the cache
    (statistics are discarded), the rest are measured — the 500M-warm /
    1B-measure split of the paper, proportionally.

    The code picks the executor.  Without a ``tracer``, the paper's IPV
    family — tree PLRU, GIPPR and DGIPPR, and true LRU — runs on the
    scalar engine (:mod:`repro.engine.scalar`) instead of a
    :class:`~repro.cache.cache.SetAssociativeCache`; see
    :func:`_engine_misses` for the exact classes.  Every other policy,
    and every traced run, drives a fresh cache one access at a time.
    Both paths give the same misses, miss positions, statistics and
    final set-dueling state (``tests/eval/test_runner.py`` and the
    conformance gate pin this).

    ``tracer`` (a :class:`repro.obs.tracer.Tracer`) is attached *after*
    warmup, so the event stream covers exactly the measured window: a
    full, unsampled trace replays to the same hit/miss/eviction counts as
    the returned :class:`RunResult` (see
    :func:`repro.obs.tracer.replay_counts`).

    ``stats_sink``, when given a dict, receives the full
    :meth:`~repro.cache.stats.CacheStats.snapshot` of the measured window
    (hits, evictions, writebacks, ... — more than :class:`RunResult`
    carries), which is what the trace-replay verification compares against.
    On the engine path evictions are the measured misses less the
    window's cold fills, and writebacks and bypasses are 0 (reads only,
    no bypass).
    """
    if policy.num_sets != config.num_sets or policy.assoc != config.assoc:
        raise ValueError(
            f"policy geometry {policy.num_sets}x{policy.assoc} does not "
            f"match cache geometry {config.num_sets}x{config.assoc}"
        )
    addresses = trace.address_list()
    warmup = int(len(addresses) * config.warmup_fraction)

    # Real instruction positions when the trace is annotated (see
    # repro.trace.assign_instruction_positions); uniform spacing otherwise.
    positions = trace.position_list()
    if positions is not None and warmup < len(addresses):
        # The measured window starts at the instruction position of the
        # first measured access and runs to the end of the trace.  Using
        # the uniform estimate here would make the MPKI denominator
        # disagree with the ``miss_positions`` timeline whenever the
        # annotation is non-uniform (bursty traces).
        measured_instructions = max(1, trace.instructions - positions[warmup])
    else:
        measured_instructions = max(
            1, int(trace.instructions * (1.0 - config.warmup_fraction))
        )
    instructions_per_access = trace.instructions / max(1, len(addresses))
    miss_positions: Optional[List[int]] = [] if collect_miss_positions else None

    def position_of(i: int) -> int:
        if positions is not None:
            return positions[i]
        return int(i * instructions_per_access)

    misses = None
    # An empty measured window stays per access: the engine's LRU loop
    # rejects it (a GA config bug there, a legal no-op run here).
    if tracer is None and warmup < len(addresses):
        miss_indices: Optional[List[int]] = (
            [] if collect_miss_positions else None
        )
        misses = _engine_misses(policy, addresses, warmup, miss_indices)
    if misses is not None:
        if miss_indices is not None:
            miss_positions = [position_of(i) for i in miss_indices]
        stats = CacheStats()
        stats.accesses = len(addresses) - warmup
        stats.misses = misses
        stats.hits = stats.accesses - misses
        if stats_sink is not None:
            stats.evictions = misses - (
                _cold_fills(addresses, config.num_sets, config.assoc)
                - _cold_fills(addresses[:warmup], config.num_sets, config.assoc)
            )
    else:
        stats = _run_per_access(
            policy, trace, config, warmup, tracer, miss_positions,
            position_of,
        )

    if stats_sink is not None:
        stats.instructions = measured_instructions
        stats_sink.update(stats.snapshot())
    return RunResult(
        trace.name,
        policy.name,
        accesses=stats.accesses,
        misses=stats.misses,
        instructions=measured_instructions,
        miss_positions=miss_positions,
    )


def _run_per_access(
    policy, trace, config, warmup, tracer, miss_positions, position_of
) -> CacheStats:
    """Drive a fresh cache one access at a time; measured-window stats."""
    cache = SetAssociativeCache(
        config.num_sets, config.assoc, policy, block_size=1, name=trace.name
    )
    addresses = trace.address_list()
    pcs = trace.pc_list()
    access = cache.access
    needs_future = getattr(policy, "requires_future", False)
    next_use = annotate_next_use(trace) if needs_future else None

    if needs_future:
        for i in range(warmup):
            access(addresses[i], pcs[i], next_use=next_use[i])
    else:
        for i in range(warmup):
            access(addresses[i], pcs[i])
    cache.reset_stats()
    if tracer is not None:
        cache.attach_tracer(tracer)

    if needs_future:
        for i in range(warmup, len(addresses)):
            hit = access(addresses[i], pcs[i], next_use=next_use[i])
            if not hit and miss_positions is not None:
                miss_positions.append(position_of(i))
    elif miss_positions is not None:
        for i in range(warmup, len(addresses)):
            if not access(addresses[i], pcs[i]):
                miss_positions.append(position_of(i))
    else:
        for i in range(warmup, len(addresses)):
            access(addresses[i], pcs[i])
    return cache.stats


def run_benchmark(
    policy_name: str,
    benchmark: SpecBenchmark,
    config: ExperimentConfig,
    policy_kwargs: Optional[Dict] = None,
    traces: Optional[Sequence[Trace]] = None,
    collect_miss_positions: bool = False,
) -> BenchmarkResult:
    """Run every simpoint of a benchmark; aggregate by SimPoint weight.

    A fresh policy instance is built per simpoint (simpoints are independent
    program phases simulated separately, as in the paper).
    """
    if traces is None:
        traces = benchmark.traces(
            config.trace_length, config.capacity_blocks, seed=config.seed
        )
    runs = []
    for trace in traces:
        policy = make_policy(
            policy_name, config.num_sets, config.assoc, **(policy_kwargs or {})
        )
        runs.append(
            run_trace(policy, trace, config, collect_miss_positions)
        )
    return BenchmarkResult(
        benchmark.name, policy_name, runs, benchmark.weights()
    )
