"""The scalar executors (pure Python): tree-PLRU IPVs and true LRU.

:class:`ScalarStreamSimulator` is the one per-access PLRU loop in the
package.  It serves every shape callers need:

* *one-shot* — :func:`repro.ga.fitness.simulate_misses_plru_ipv` builds a
  simulator, feeds the whole trace once and reads the measured misses
  (and, for MLP-aware fitness, the ``miss_indices``);
* *figure runs* — :func:`repro.eval.runner.run_trace` runs PLRU, GIPPR
  and DGIPPR jobs on it.  A set-dueling ``selector`` makes it step each
  set on the vector the selector names and advance the selector's PSEL
  counters exactly as :class:`~repro.policies.plru.DGIPPRPolicy` does;
* *streaming* — the serving front-end (:mod:`repro.serve`) feeds bounded
  batches forever and carries the cache state across them, without
  numpy, because this is the engine of last resort when
  :class:`~repro.engine.columnar.BatchSimulator` is unavailable.

The path is picked from what the code observes, never set by a caller:
when :func:`repro.kernels.tables.compile_tables` returns tables
each access is a table lookup (the composed Figure 7/9 transitions);
when it returns ``None`` — associativity above
:data:`~repro.kernels.MAX_TABLE_ASSOC`, or 16 ways without numpy — the
inlined Figure 5/7/9 bit-walk runs instead.  :attr:`kernel_mode` says
which.  Both paths are bit-identical to each other, to the columnar
``feed`` stream over the same concatenated accesses, to the per-access
policies and to the independent reference in :mod:`repro.verify.oracles`
— pinned by ``tests/engine/test_streaming_feed.py``, ``tests/kernels``,
``tests/eval/test_runner.py`` and the conformance cells.

:func:`simulate_misses_lru_ipv` is the true-LRU-IPV loop: the GA's LRU
substrate and baselines, and the figure runs' classic LRU jobs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from ..core.plru import is_power_of_two
from ..kernels import tables as _tables

__all__ = ["ScalarStreamSimulator", "simulate_misses_lru_ipv"]


class ScalarStreamSimulator:
    """One IPV lane over one cache geometry, fed in batches.

    State (PLRU words, tag maps, fill counts) persists across
    :meth:`feed` calls; :meth:`reset` returns to cold.  ``warmup`` is
    interpreted against the global stream position — feeding a trace in
    any chunking yields the same measured miss count as one cold pass
    over the whole trace.  When ``miss_indices`` is given, the stream
    position of every measured miss is appended to it.

    With a ``selector`` from :mod:`repro.core.dueling`, ``entries`` is
    the sequence of duelled vectors, indexed by the selector's policy
    numbers.  Each access uses the set's leader vector, or the
    followers' ``selector.selected()``; a miss in a leader set calls
    ``selector.record_miss`` before the fill, as the policy hooks do, so
    the selector leaves the run in the state the per-access run leaves
    it in.  The selector is used in place, not copied.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        entries: Sequence,
        warmup: int = 0,
        miss_indices: Optional[List[int]] = None,
        selector=None,
    ):
        if not is_power_of_two(num_sets):
            raise ValueError(
                f"num_sets must be a power of two, got {num_sets}"
            )
        if not is_power_of_two(assoc):
            raise ValueError(f"assoc must be a power of two, got {assoc}")
        vectors = [
            _tables.normalize_ipv_entries(assoc, v)
            for v in (entries if selector is not None else [entries])
        ]
        if selector is not None and len(vectors) != selector.num_policies:
            raise ValueError(
                f"{len(vectors)} vectors for a {selector.num_policies}-way duel"
            )
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        self.num_sets = num_sets
        self.assoc = assoc
        self.vectors = vectors
        self.entries = vectors[0]
        self.selector = selector
        self.warmup = warmup
        self.miss_indices = miss_indices
        # All-or-nothing, as in repro.policies.plru: one table set per vector.
        luts = [_tables.compile_tables(assoc, v) for v in vectors]
        self._luts = luts if all(t is not None for t in luts) else None
        self._lut = self._luts[0] if self._luts else None
        # Leader policy per set (-1: follower); the single-vector case is
        # a duel whose sets all follow vector 0.
        self._leaders = getattr(selector, "leaders", None) or [-1] * num_sets
        self._followers = [s for s, lead in enumerate(self._leaders) if lead < 0]
        self.reset()

    @property
    def kernel_mode(self) -> str:
        """``"lut"`` when stepping on compiled tables, else ``"walk"``."""
        return "walk" if self._lut is None else "lut"

    def reset(self) -> "ScalarStreamSimulator":
        """Return to cold state and stream position 0."""
        self._states: List[int] = [0] * self.num_sets
        self._tag_to_way: List[Dict[int, int]] = [
            dict() for _ in range(self.num_sets)
        ]
        self._way_to_tag: List[List[int]] = [
            [-1] * self.assoc for _ in range(self.num_sets)
        ]
        self.pos = 0
        self.accesses = 0
        self.misses = 0
        self.measured_misses = 0
        self.cold_fills = 0
        return self

    @property
    def hits(self) -> int:
        """Whole-stream hit count (warmup included)."""
        return self.accesses - self.misses

    @property
    def evictions(self) -> int:
        """Whole-stream eviction count (misses minus cold fills)."""
        return self.misses - self.cold_fills

    def feed(self, addresses: Sequence[int]) -> int:
        """Apply one batch; return its *measured* miss count.

        Addresses must be non-negative ints (numpy integer scalars are
        fine).  Summing the per-batch returns over a stream equals the
        measured misses of one cold feed of the concatenation.
        """
        # numpy arrays iterate as np.int64 scalars whose arithmetic is
        # several times slower than Python ints in this loop; one bulk
        # tolist() up front is far cheaper.
        tolist = getattr(addresses, "tolist", None)
        if tolist is not None:
            addresses = tolist()
        if self._lut is None:
            return self._feed_walk(addresses)
        return self._feed_lut(addresses)

    def _per_set(self, per_vector: Sequence) -> list:
        """``per_vector``'s item for each set's vector: the set's leader
        vector, else the followers' ``selector.selected()``.

        The loops index these per-set lists, so a single-vector run pays
        one list lookup per access for dueling; when a leader miss moves
        the followers to another vector the loop repoints their entries.
        """
        follow = self.selector.selected() if self.selector is not None else 0
        return [per_vector[follow if lead < 0 else lead] for lead in self._leaders]

    def _feed_lut(self, addresses: Sequence[int]) -> int:
        luts = self._luts
        hits = [t.hit for t in luts]
        fills = [t.fill for t in luts]
        hit_of = self._per_set(hits)
        fill_of = self._per_set(fills)
        victim, shift = luts[0].victim, luts[0].log2k
        leaders = self._leaders
        followers = self._followers
        selector = self.selector
        duel = selector is not None
        follow = selector.selected() if duel else 0
        mask = self.num_sets - 1
        assoc = self.assoc
        states = self._states
        tag_to_way = self._tag_to_way
        way_to_tag = self._way_to_tag
        warmup = self.warmup
        indices = self.miss_indices
        i = self.pos
        batch_misses = 0
        measured = 0
        cold_fills = 0
        for addr in addresses:
            addr = int(addr)
            si = addr & mask
            ways = tag_to_way[si]
            way = ways.get(addr)
            state = states[si]
            if way is None:
                batch_misses += 1
                if i >= warmup:
                    measured += 1
                    if indices is not None:
                        indices.append(i)
                if duel and leaders[si] >= 0:
                    # Only leader misses move PSEL (record_miss is a no-op
                    # on followers).
                    selector.record_miss(si)
                    f = selector.selected()
                    if f != follow:
                        follow = f
                        h, fl = hits[f], fills[f]
                        for s in followers:
                            hit_of[s] = h
                            fill_of[s] = fl
                tags = way_to_tag[si]
                if len(ways) < assoc:
                    way = len(ways)  # cold fill: ways fill in order
                    cold_fills += 1
                else:
                    way = victim[state]
                    del ways[tags[way]]
                tags[way] = addr
                ways[addr] = way
                states[si] = fill_of[si][(state << shift) | way]
            else:
                states[si] = hit_of[si][(state << shift) | way]
            i += 1
        n = i - self.pos
        self.pos = i
        self.accesses += n
        self.misses += batch_misses
        self.measured_misses += measured
        self.cold_fills += cold_fills
        return measured

    def _feed_walk(self, addresses: Sequence[int]) -> int:
        assoc = self.assoc
        vectors = self.vectors
        vector_of = self._per_set(vectors)
        leaders = self._leaders
        followers = self._followers
        selector = self.selector
        duel = selector is not None
        follow = selector.selected() if duel else 0
        mask = self.num_sets - 1
        states = self._states
        tag_to_way = self._tag_to_way
        way_to_tag = self._way_to_tag
        warmup = self.warmup
        indices = self.miss_indices
        i = self.pos
        batch_misses = 0
        measured = 0
        cold_fills = 0
        for addr in addresses:
            addr = int(addr)
            si = addr & mask
            ways = tag_to_way[si]
            state = states[si]
            way = ways.get(addr)
            if way is None:
                batch_misses += 1
                if i >= warmup:
                    measured += 1
                    if indices is not None:
                        indices.append(i)
                if duel and leaders[si] >= 0:
                    selector.record_miss(si)
                    f = selector.selected()
                    if f != follow:
                        follow = f
                        v = vectors[f]
                        for s in followers:
                            vector_of[s] = v
                tags = way_to_tag[si]
                if len(ways) < assoc:
                    way = len(ways)  # cold fill: ways fill in order
                    cold_fills += 1
                else:
                    # find_plru walk (Figure 5)
                    n = 1
                    while n < assoc:
                        n = (n << 1) | ((state >> (n - 1)) & 1)
                    way = n - assoc
                    del ways[tags[way]]
                tags[way] = addr
                ways[addr] = way
                new_pos = vector_of[si][assoc]  # insertion position
            else:
                # position decode (Figure 7)
                q = assoc + way
                pos = 0
                b = 0
                while q > 1:
                    parent = q >> 1
                    bit = (state >> (parent - 1)) & 1
                    if not (q & 1):
                        bit ^= 1
                    pos |= bit << b
                    q = parent
                    b += 1
                new_pos = vector_of[si][pos]  # promotion position
            # set_position (Figure 9)
            q = assoc + way
            b = 0
            while q > 1:
                parent = q >> 1
                bit = (new_pos >> b) & 1
                if not (q & 1):
                    bit ^= 1
                pmask = 1 << (parent - 1)
                state = (state | pmask) if bit else (state & ~pmask)
                q = parent
                b += 1
            states[si] = state
            i += 1
        n = i - self.pos
        self.pos = i
        self.accesses += n
        self.misses += batch_misses
        self.measured_misses += measured
        self.cold_fills += cold_fills
        return measured

    def totals(self) -> Dict[str, int]:
        """Whole-stream totals (CacheStats-comparable, fills == misses)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.misses,
            "cold_fills": self.cold_fills,
            "evictions": self.evictions,
            "measured_misses": self.measured_misses,
        }


def _validate_window(addresses: Sequence[int], warmup: int) -> None:
    """Reject degenerate measurement windows.

    ``warmup >= len(addresses)`` used to yield a silently empty measured
    window: every simulator returned 0 misses, so fitness compared 0-vs-0
    cycles and ranked all IPVs equal without any diagnostic.  Raise
    instead — a caller who wants a pure-warmup run is holding a config
    bug, not a result.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    if warmup >= len(addresses):
        raise ValueError(
            f"warmup ({warmup}) consumes the whole trace "
            f"({len(addresses)} accesses): the measured window is empty"
        )


def simulate_misses_lru_ipv(
    addresses: Sequence[int],
    num_sets: int,
    assoc: int,
    entries: Sequence[int],
    warmup: int,
    miss_indices: Optional[List[int]] = None,
) -> int:
    """Misses in the measured window for an IPV on true-LRU stacks.

    Each set's recency stack is a list of block addresses, MRU first.
    Returns misses at indices >= ``warmup``; when ``miss_indices`` is given,
    the access index of every measured miss is appended to it (for
    MLP-aware fitness).

    The stacks hold only valid blocks, so during a set's cold fill a
    general vector places blocks differently from
    :class:`~repro.policies.lru.IPVLRUPolicy`, whose stack also ranks the
    invalid ways.  Classic LRU (the all-zeros vector) is exact either way
    and runs on one insertion-ordered dict per set instead (MRU last),
    about 2.4x the list loop.
    """
    entries = _tables.normalize_ipv_entries(assoc, entries)
    _validate_window(addresses, warmup)
    if not any(entries):
        return _lru_misses(addresses, num_sets, assoc, warmup, miss_indices)
    return _ipv_lru_misses(
        addresses, num_sets, assoc, entries, warmup, miss_indices
    )


def _lru_misses(addresses, num_sets, assoc, warmup, miss_indices) -> int:
    """Classic LRU: one insertion-ordered dict of blocks per set, MRU last."""
    mask = num_sets - 1
    misses = 0
    sets: List[OrderedDict] = [OrderedDict() for _ in range(num_sets)]
    for i, addr in enumerate(addresses):
        blocks = sets[addr & mask]
        if addr in blocks:
            blocks.move_to_end(addr)
            continue
        if i >= warmup:
            misses += 1
            if miss_indices is not None:
                miss_indices.append(i)
        if len(blocks) >= assoc:
            blocks.popitem(last=False)  # evict LRU
        blocks[addr] = None
    return misses


def _ipv_lru_misses(
    addresses, num_sets, assoc, entries, warmup, miss_indices
) -> int:
    """Any IPV: one list of blocks per set, MRU first."""
    mask = num_sets - 1
    misses = 0
    promo = list(entries[:assoc])
    insert = entries[assoc]
    stacks: List[List[int]] = [[] for _ in range(num_sets)]
    for i, addr in enumerate(addresses):
        stack = stacks[addr & mask]
        try:
            pos = stack.index(addr)
        except ValueError:
            if i >= warmup:
                misses += 1
                if miss_indices is not None:
                    miss_indices.append(i)
            if len(stack) >= assoc:
                stack.pop()  # evict LRU
            # Incoming block conceptually lands at LRU then moves to V[k].
            stack.append(addr)
            pos = len(stack) - 1
            new = insert if insert < len(stack) else len(stack) - 1
        else:
            new = promo[pos]
            if new >= len(stack):
                new = len(stack) - 1
        if new != pos:
            del stack[pos]
            stack.insert(new, addr)
    return misses
