"""Serving-scenario throughput: sharded columnar front-end vs scalar loop.

Measures the headline of :mod:`repro.serve` — sustained end-to-end
accesses/sec (generation + binning + simulation) of a churning,
flash-crowded Zipf stream through the sharded front-end — against the
per-access scalar loop (the Figure 5/7/9 bit-walk reference, one access
at a time), asserting bit-identical miss counts on a shared sample.  A
separate untimed pass replays the full stream under ``tracemalloc`` and
reports post-warm-up heap growth: the bounded-memory claim, measured.
The throughput case runs at 1, 2 and 4 shards, the sharding ablation.

Runs under pytest-benchmark as part of ``make bench``; ``make
bench-check`` runs the same cases once each at a small ``REPRO_SCALE``
with timing disabled, so the bit-identity assertions gate CI.  The
repository benchmark of record for serving throughput is ``perfbench/``
(``serving`` workload).

``REPRO_SCALE`` scales the stream length as in the other benches.
"""

from __future__ import annotations

import os
import time
import tracemalloc

import pytest

from repro.core.ipv import lru_ipv
from repro.engine.scalar import ScalarStreamSimulator
from repro.ga.fitness import simulate_misses_plru_ipv
from repro.kernels import tables as ktables
from repro.serve.frontend import ShardedFrontend
from repro.serve.workload import (
    ServingSpec,
    ServingStream,
    auto_flash_phases,
)

NUM_SETS = 1024
ASSOC = 16
#: Default shard count.  More shards mean more lockstep steps per chunk
#: (each shard sees a narrower set range); ``test_serving_throughput``
#: runs each of :data:`SHARD_SWEEP` so the scaling stays measured.
SHARDS = 2
SHARD_SWEEP = (1, 2, 4)
CHUNK_ACCESSES = 1 << 16
ENTRIES = tuple(lru_ipv(ASSOC).entries)


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", "1") or "1")
    except ValueError:
        return 1.0


def bench_spec(accesses: int) -> ServingSpec:
    return ServingSpec(
        keys=1 << 15,
        alpha=1.2,
        tenants=2,
        accesses=accesses,
        churn_per_million=20_000,
        phases=auto_flash_phases(accesses, 2, share=0.5, hot_keys=64),
        seed=42,
    )


def measure_serving_throughput(accesses: int, shards: int = SHARDS) -> dict:
    """Timed end-to-end pass: generation + binning + simulation."""
    spec = bench_spec(accesses)
    frontend = ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=shards, engine="auto"
    )
    stream = ServingStream(spec)
    t0 = time.perf_counter()
    misses = 0
    for chunk in stream.chunks(CHUNK_ACCESSES):
        misses += frontend.process(chunk)
    wall = time.perf_counter() - t0
    assert frontend.accesses == accesses
    assert frontend.shed_accesses == 0
    return {
        "accesses": accesses,
        "misses": misses,
        "miss_rate": misses / accesses,
        "shards": shards,
        "engine": frontend.engine,
        "backend": stream.backend,
        "chunk_accesses": CHUNK_ACCESSES,
        "wall_sec": wall,
        "accesses_per_sec": accesses / wall,
        "retired_keys": stream.retired,
    }


def measure_scalar_baselines(
    accesses: int, sample: int, shards: int = SHARDS
) -> dict:
    """The per-access scalar loop on a sample prefix, end to end.

    Two flavours, both one-access-at-a-time Python loops over the same
    generated prefix: the Figure 5/7/9 *bit-walk* reference (the
    per-access scalar loop proper — every access walks the tree) and the
    LUT-stepped :class:`ScalarStreamSimulator` (the no-numpy serving
    fallback).  Rates include generation time, like the serving number.
    Miss counts of all paths over the prefix, and of the front-end at
    ``shards`` shards, must agree exactly.
    """
    sample = min(sample, accesses)
    spec = bench_spec(accesses).with_accesses(sample)
    stream = ServingStream(spec)
    t0 = time.perf_counter()
    prefix = []
    for chunk in stream.chunks(CHUNK_ACCESSES):
        prefix.extend(int(a) for a in chunk)
    gen_sec = time.perf_counter() - t0

    # 16-way tables need numpy; with it disabled at the kernel seam the
    # scalar executor runs its bit-walk.
    saved_np, ktables._np = ktables._np, None
    try:
        t0 = time.perf_counter()
        walk_misses = simulate_misses_plru_ipv(
            prefix, NUM_SETS, ASSOC, ENTRIES, 0
        )
        walk_sec = time.perf_counter() - t0
    finally:
        ktables._np = saved_np

    scalar = ScalarStreamSimulator(NUM_SETS, ASSOC, ENTRIES, warmup=0)
    t0 = time.perf_counter()
    scalar_misses = scalar.feed(prefix)
    scalar_sec = time.perf_counter() - t0
    assert scalar_misses == walk_misses

    sharded = ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=shards, engine="auto"
    )
    for lo in range(0, sample, CHUNK_ACCESSES):
        sharded.process(prefix[lo:lo + CHUNK_ACCESSES])
    assert sharded.misses == walk_misses, (
        f"sharded front-end diverged on the sample: "
        f"{sharded.misses} != {walk_misses}"
    )
    return {
        "sample_accesses": sample,
        "sample_misses": walk_misses,
        "generate_sec": gen_sec,
        "walk_sec": walk_sec,
        "scalar_stream_sec": scalar_sec,
        "walk_accesses_per_sec": sample / (gen_sec + walk_sec),
        "scalar_stream_accesses_per_sec": sample / (gen_sec + scalar_sec),
    }


def measure_flat_memory(accesses: int) -> dict:
    """Untimed tracemalloc replay: post-warm-up heap growth in bytes."""
    spec = bench_spec(accesses)
    frontend = ShardedFrontend(
        NUM_SETS, ASSOC, ENTRIES, shards=SHARDS, engine="auto"
    )
    stream = ServingStream(spec)
    warm = max(CHUNK_ACCESSES, accesses // 8)
    baseline = None
    growth = 0
    done = 0
    tracemalloc.start()
    try:
        for chunk in stream.chunks(CHUNK_ACCESSES):
            frontend.process(chunk)
            done += len(chunk)
            if done >= warm:
                current, _ = tracemalloc.get_traced_memory()
                if baseline is None:
                    baseline = current
                else:
                    growth = max(growth, current - baseline)
    finally:
        tracemalloc.stop()
    return {
        "accesses": accesses,
        "warmup_accesses": warm,
        "heap_growth_bytes": growth,
        "flat": growth < (8 << 20),
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points (part of ``make bench``).
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", SHARD_SWEEP)
def test_serving_throughput(benchmark, shards):
    accesses = max(100_000, int(400_000 * _scale()))
    row = benchmark.pedantic(
        measure_serving_throughput,
        kwargs={"accesses": accesses, "shards": shards},
        rounds=1, iterations=1,
    )
    # Sharding is a layout choice, never a semantic one: at every shard
    # count the front-end matches the single-cache walk on the sample.
    baselines = measure_scalar_baselines(accesses, accesses // 4, shards)
    speedup = (
        row["accesses_per_sec"] / baselines["walk_accesses_per_sec"]
    )
    benchmark.extra_info["accesses_per_sec"] = row["accesses_per_sec"]
    benchmark.extra_info["speedup_vs_walk"] = speedup
    # Batched serving must beat the per-access loop even at smoke scale.
    assert speedup > 1.0


def test_serving_memory_flat(benchmark):
    accesses = max(100_000, int(400_000 * _scale()))
    row = benchmark.pedantic(
        measure_flat_memory,
        kwargs={"accesses": accesses},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["heap_growth_bytes"] = row[
        "heap_growth_bytes"
    ]
    assert row["flat"], (
        f"heap grew {row['heap_growth_bytes'] / 2**20:.1f} MiB"
    )

