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
   produce identical CacheStats.

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
from repro.ga.fitness import simulate_misses_plru_ipv  # noqa: E402
from repro.kernels import (  # noqa: E402
    clear_kernel_cache,
    compile_tables,
    kernel_cache_info,
    kernel_provenance,
)
from repro.kernels import tables as ktables  # noqa: E402
from repro.policies import GIPPRPolicy  # noqa: E402
from repro.verify.differential import forced_bit_walk  # noqa: E402

NUM_SETS = 128
ACCESSES = 60_000


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

    prov = kernel_provenance()
    print(f"kernel provenance: mode={prov['mode']}, "
          f"compiles={prov['counters']['compiles']}, "
          f"lut_calls={prov['counters']['lut_calls']}")
    print("smoke-kernels OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
