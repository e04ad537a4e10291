"""The bit-walk fallback, checked where it actually runs.

With numpy present, transition tables compile for every power-of-two
associativity up to 16, so the walk runs in exactly two places: 16 ways
without numpy, and associativities above 16.  Both are reached here
through the real seams — numpy disabled at ``kernels.tables._np``, and a
32-way geometry — and checked against the independent
:class:`~repro.verify.oracles.PLRUPositionsOracle` and, at 16 ways,
against the table path, for the three tree-PLRU policies and the scalar
executor.
"""

import pytest

from repro.cache import SetAssociativeCache
from repro.engine.scalar import ScalarStreamSimulator
from repro.kernels import tables as ktables
from repro.verify.conformance import build_oracle, build_policy, policy_kwargs
from repro.verify.differential import diff_stream
from repro.verify.streams import generate_stream

POLICIES = ["plru", "gippr", "dgippr"]
STREAMS = ["random-uniform", "zipf-hot", "cyclic-over-capacity"]
K16 = (4, 16)
K32 = (2, 32)

pytestmark = pytest.mark.skipif(
    ktables.numpy_or_none() is None,
    reason="compares the no-numpy walk against numpy-compiled tables",
)


def _oracle_misses(oracle, accesses):
    return [i for i, block in enumerate(accesses) if not oracle.access(block)[0]]


def _entries(name, assoc):
    if name == "plru":
        return [0] * (assoc + 1)
    return policy_kwargs(name, 1, assoc)["ipv"]


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("name", POLICIES)
@pytest.mark.parametrize("geometry", [K16, K32], ids=["k16-no-numpy", "k32"])
def test_policy_walk_matches_oracle(geometry, name, stream, monkeypatch):
    num_sets, assoc = geometry
    if assoc == 16:
        monkeypatch.setattr(ktables, "_np", None)
    kwargs = policy_kwargs(name, num_sets, assoc)
    assert build_policy(name, num_sets, assoc, kwargs).kernel_mode == "walk"
    accesses = generate_stream(stream, 5, 1500, num_sets, assoc)
    divergence = diff_stream(
        lambda: build_policy(name, num_sets, assoc, kwargs),
        lambda: build_oracle("plru-positions", name, num_sets, assoc, kwargs),
        accesses,
    )
    assert divergence is None, divergence


def _run(policy, accesses):
    num_sets, assoc = policy.num_sets, policy.assoc
    cache = SetAssociativeCache(num_sets, assoc, policy, block_size=1)
    misses = [i for i, block in enumerate(accesses) if not cache.access(block)]
    positions = [
        [policy.position_of(s, w) for w in range(assoc)]
        for s in range(num_sets)
    ]
    return misses, cache.stats.evictions, positions


@pytest.mark.parametrize("name", POLICIES)
def test_policy_walk_matches_lut_at_16_ways(name, monkeypatch):
    num_sets, assoc = K16
    kwargs = policy_kwargs(name, num_sets, assoc)
    accesses = generate_stream("zipf-hot", 9, 4000, num_sets, assoc)
    lut = build_policy(name, num_sets, assoc, kwargs)
    monkeypatch.setattr(ktables, "_np", None)
    walk = build_policy(name, num_sets, assoc, kwargs)
    assert (lut.kernel_mode, walk.kernel_mode) == ("lut", "walk")
    assert _run(walk, accesses) == _run(lut, accesses)


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("name", ["plru", "gippr"])
@pytest.mark.parametrize("geometry", [K16, K32], ids=["k16", "k32"])
def test_scalar_walk_matches_oracle_and_lut(geometry, name, stream,
                                            monkeypatch):
    num_sets, assoc = geometry
    entries = _entries(name, assoc)
    accesses = generate_stream(stream, 3, 3000, num_sets, assoc)
    lut = None
    if assoc == 16:
        lut_indices = []
        simulator = ScalarStreamSimulator(
            num_sets, assoc, entries, miss_indices=lut_indices
        )
        assert simulator.kernel_mode == "lut"
        simulator.feed(accesses)
        lut = (lut_indices, simulator.evictions)
        monkeypatch.setattr(ktables, "_np", None)
    walk_indices = []
    simulator = ScalarStreamSimulator(
        num_sets, assoc, entries, miss_indices=walk_indices
    )
    assert simulator.kernel_mode == "walk"
    simulator.feed(accesses)
    oracle = build_oracle(
        "plru-positions", name, num_sets, assoc,
        policy_kwargs(name, num_sets, assoc),
    )
    assert walk_indices == _oracle_misses(oracle, accesses)
    assert simulator.evictions == oracle.evictions
    if lut is not None:
        assert (walk_indices, simulator.evictions) == lut
