#!/usr/bin/env python3
"""Fast kernel smoke check (the ``make smoke-kernels`` target).

Asserts, in a few seconds, that the transition-table kernels are sound and
actually fast:

1. tables compile for k in {4, 8, 16} and the compile cache hits on
   recompilation;
2. a randomized access stream produces bit-identical miss counts on the
   table path and the Figure 5/7/9 bit-walk fallback, for every k;
3. the LUT path is at least 2x faster than the walk at k=16 (the full
   bench, ``make bench-kernels``, measures the headline >=3x);
4. the policy objects agree: a GIPPR run on tables and one on the walk
   produce identical CacheStats;
5. the figure-matrix dispatch pays: on 20k-access simpoint traces,
   ``run_trace`` on the scalar engine takes at most 1/1.5 of the
   per-access cache's time summed over PLRU, GIPPR and 4-DGIPPR, with
   equal misses per label (about 2x was measured on a 2-CPU host).  The same step prints the ablation of the
   true-LRU ordered-dict loop against the list-stack loop.

The walk runs where it runs in production at k=16 — with numpy disabled
at the ``repro.kernels.tables._np`` seam, so no 16-way tables compile —
and under ``forced_bit_walk`` at smaller k.  Exits non-zero on any
failure.
"""

import os
import random
import sys
import time
from contextlib import contextmanager

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cache import SetAssociativeCache  # noqa: E402
from repro.core.vectors import DGIPPR4_WI_VECTORS  # noqa: E402
from repro.engine import scalar  # noqa: E402
from repro.eval import ExperimentConfig, run_trace  # noqa: E402
from repro.ga.fitness import simulate_misses_plru_ipv  # noqa: E402
from repro.kernels import (  # noqa: E402
    clear_kernel_cache,
    compile_tables,
    kernel_cache_info,
    kernel_provenance,
)
from repro.kernels import tables as ktables  # noqa: E402
from repro.policies import GIPPRPolicy, make_policy  # noqa: E402
from repro.workloads import get_benchmark  # noqa: E402
from repro.verify.differential import forced_bit_walk  # noqa: E402

NUM_SETS = 128
ACCESSES = 60_000
#: The figure matrix's geometry and trace length (perfbench ``figures``).
FIGURE_BENCHMARKS = ("429.mcf", "462.libquantum", "483.xalancbmk")
FIGURE_ROUTE_FLOOR = 1.5


def make_stream(accesses, num_sets, assoc, seed=17):
    rng = random.Random(seed)
    footprint = 2 * num_sets * assoc
    hot = num_sets * assoc // 2
    return [
        rng.randrange(hot if rng.random() < 0.7 else footprint)
        for _ in range(accesses)
    ]


def make_ipv(k, seed=5):
    rng = random.Random(seed + k)
    return tuple(rng.randrange(k) for _ in range(k + 1))


@contextmanager
def numpy_disabled():
    saved = ktables._np
    ktables._np = None
    try:
        yield
    finally:
        ktables._np = saved


def walking(k):
    """The bit-walk for ``k`` ways: the numpy seam at 16, forced below."""
    return numpy_disabled() if k == 16 else forced_bit_walk()


def best_of(repeats, *fns):
    """Per function, ``(result, best wall seconds)`` over ``repeats`` calls.

    The calls alternate between the functions, so a burst of load on a
    shared host slows both sides of a comparison alike.
    """
    best = [None] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            t0 = time.perf_counter()
            results[index] = fn()
            seconds = time.perf_counter() - t0
            if best[index] is None or seconds < best[index]:
                best[index] = seconds
    return list(zip(results, best))


def per_access_misses(policy, addresses, warmup):
    """The per-access path: a cache driven one access at a time."""
    cache = SetAssociativeCache(
        policy.num_sets, policy.assoc, policy, block_size=1
    )
    for addr in addresses[:warmup]:
        cache.access(addr)
    cache.reset_stats()
    for addr in addresses[warmup:]:
        cache.access(addr)
    return cache.stats.misses


def figure_route():
    """5. run_trace on the scalar engine vs the per-access cache."""
    config = ExperimentConfig(
        num_sets=64, assoc=16, trace_length=20_000, seed=1,
        apply_env_scale=False,
    )
    traces = [
        get_benchmark(name).trace(
            0, config.trace_length, config.capacity_blocks, seed=config.seed
        )
        for name in FIGURE_BENCHMARKS
    ]
    accesses = sum(len(trace) for trace in traces)
    # run_trace's split: a generated trace may fall a few accesses short.
    args = [
        (trace.address_list(), int(len(trace) * config.warmup_fraction))
        for trace in traces
    ]
    engine_total = cache_total = 0.0
    for label, name, kwargs in (
        ("PLRU", "plru", {}),
        ("GIPPR", "gippr", {}),
        ("4-DGIPPR", "dgippr", {"ipvs": DGIPPR4_WI_VECTORS}),
    ):
        def policy():
            return make_policy(name, config.num_sets, config.assoc, **kwargs)

        (engine, engine_sec), (cache, cache_sec) = best_of(
            7,
            lambda: [
                run_trace(policy(), trace, config).misses for trace in traces
            ],
            lambda: [
                per_access_misses(policy(), addresses, warmup)
                for addresses, warmup in args
            ],
        )
        assert engine == cache, f"{label}: engine {engine} != cache {cache}"
        engine_total += engine_sec
        cache_total += cache_sec
        print(f"figure route {label:>8}: {cache_sec / engine_sec:.2f}x "
              f"(per-access {accesses / cache_sec / 1e3:5.0f}k acc/s, "
              f"engine {accesses / engine_sec / 1e3:5.0f}k acc/s)")
    # The floor holds on the summed time: a host speed change during one
    # label's repeats then moves the ratio by a third as much.
    speedup = cache_total / engine_total
    print(f"figure route    total: {speedup:.2f}x")
    assert speedup >= FIGURE_ROUTE_FLOOR, (
        f"engine route only {speedup:.2f}x the per-access path"
    )

    sets, ways = config.num_sets, config.assoc
    lru = (0,) * (ways + 1)
    (ordered, ordered_sec), (stack, stack_sec) = best_of(
        5,
        lambda: [
            scalar._lru_misses(addresses, sets, ways, warmup, None)
            for addresses, warmup in args
        ],
        lambda: [
            scalar._ipv_lru_misses(addresses, sets, ways, lru, warmup, None)
            for addresses, warmup in args
        ],
    )
    assert ordered == stack, f"LRU: ordered dict {ordered} != list {stack}"
    print(f"true-LRU ablation: ordered dict {stack_sec / ordered_sec:.2f}x "
          f"the list-stack loop ({accesses / ordered_sec / 1e3:.0f}k vs "
          f"{accesses / stack_sec / 1e3:.0f}k acc/s)")


def main():
    clear_kernel_cache()

    # 1. Compilation and compile-cache behaviour.
    for k in (4, 8, 16):
        entries = make_ipv(k)
        t0 = time.perf_counter()
        tables = compile_tables(k, entries)
        compile_sec = time.perf_counter() - t0
        assert tables is not None, f"k={k}: tables did not compile"
        assert compile_tables(k, entries) is tables, f"k={k}: cache missed"
        print(
            f"compile k={k:>2}: {compile_sec * 1e3:6.1f} ms, "
            f"{tables.nbytes / 1024:8.1f} KiB"
        )
    info = kernel_cache_info()
    counters = kernel_provenance()["counters"]
    assert counters["cache_hits"] >= 3, (
        f"expected compile-cache hits, got {counters} / {info}"
    )

    # 2. Bit-identical miss counts, LUT vs walk, per k.
    for k in (4, 8, 16):
        entries = make_ipv(k)
        stream = make_stream(ACCESSES, NUM_SETS, k)
        warmup = ACCESSES // 10
        walk_idx, lut_idx = [], []
        with walking(k):
            walk = simulate_misses_plru_ipv(
                stream, NUM_SETS, k, entries, warmup, miss_indices=walk_idx,
            )
        lut = simulate_misses_plru_ipv(
            stream, NUM_SETS, k, entries, warmup, miss_indices=lut_idx,
        )
        assert (walk, walk_idx) == (lut, lut_idx), (
            f"k={k}: walk {walk} misses != lut {lut} misses"
        )
        print(f"equivalence k={k:>2}: {walk} misses, identical indices OK")

    # 3. Throughput: LUT >= 2x walk at k=16.
    entries = make_ipv(16)
    stream = make_stream(ACCESSES, NUM_SETS, 16)
    with numpy_disabled():
        t0 = time.perf_counter()
        simulate_misses_plru_ipv(stream, NUM_SETS, 16, entries, 0)
        walk_sec = time.perf_counter() - t0
    t0 = time.perf_counter()
    simulate_misses_plru_ipv(stream, NUM_SETS, 16, entries, 0)
    lut_sec = time.perf_counter() - t0
    speedup = walk_sec / lut_sec
    print(f"throughput k=16: {speedup:.2f}x (walk {walk_sec:.3f}s, "
          f"lut {lut_sec:.3f}s)")
    assert speedup >= 2.0, f"LUT only {speedup:.2f}x over walk at k=16"

    # 4. Policy-level agreement: identical CacheStats lut vs walk.
    from repro.core.ipv import IPV

    ipv = IPV(make_ipv(16), name="smoke")
    stats = {}
    for kernel in ("walk", "lut"):
        if kernel == "walk":
            with numpy_disabled():
                policy = GIPPRPolicy(NUM_SETS, 16, ipv=ipv)
        else:
            policy = GIPPRPolicy(NUM_SETS, 16, ipv=ipv)
        assert policy.kernel_mode == kernel, policy.kernel_mode
        cache = SetAssociativeCache(NUM_SETS, 16, policy, block_size=1)
        for addr in make_stream(20_000, NUM_SETS, 16, seed=23):
            cache.access(addr)
        snap = cache.stats.snapshot()
        snap.pop("mpki", None)  # NaN with zero instructions; not comparable
        stats[kernel] = snap
    assert stats["walk"] == stats["lut"], (
        f"policy stats diverge: {stats['walk']} vs {stats['lut']}"
    )
    print(f"policy stats lut == walk OK   [{stats['lut']}]")

    figure_route()

    prov = kernel_provenance()
    print(f"kernel provenance: mode={prov['mode']}, "
          f"compiles={prov['counters']['compiles']}, "
          f"lut_calls={prov['counters']['lut_calls']}")
    print("smoke-kernels OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
