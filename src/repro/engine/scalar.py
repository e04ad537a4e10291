"""The scalar executor for tree-PLRU IPV policies (pure Python).

:class:`ScalarStreamSimulator` is the one per-access PLRU loop in the
package.  It serves both shapes callers need:

* *one-shot* — :func:`repro.ga.fitness.simulate_misses_plru_ipv` builds a
  simulator, feeds the whole trace once and reads the measured misses
  (and, for MLP-aware fitness, the ``miss_indices``);
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
``feed`` stream over the same concatenated accesses and to the
independent reference in :mod:`repro.verify.oracles` — pinned by
``tests/engine/test_streaming_feed.py``, ``tests/kernels`` and the
conformance cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.plru import is_power_of_two
from ..kernels import tables as _tables

__all__ = ["ScalarStreamSimulator"]


class ScalarStreamSimulator:
    """One IPV lane over one cache geometry, fed in batches.

    State (PLRU words, tag maps, fill counts) persists across
    :meth:`feed` calls; :meth:`reset` returns to cold.  ``warmup`` is
    interpreted against the global stream position — feeding a trace in
    any chunking yields the same measured miss count as one cold pass
    over the whole trace.  When ``miss_indices`` is given, the stream
    position of every measured miss is appended to it.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        entries: Sequence[int],
        warmup: int = 0,
        miss_indices: Optional[List[int]] = None,
    ):
        if not is_power_of_two(num_sets):
            raise ValueError(
                f"num_sets must be a power of two, got {num_sets}"
            )
        if not is_power_of_two(assoc):
            raise ValueError(f"assoc must be a power of two, got {assoc}")
        entries = _tables.normalize_ipv_entries(assoc, entries)
        if warmup < 0:
            raise ValueError(f"warmup must be non-negative, got {warmup}")
        self.num_sets = num_sets
        self.assoc = assoc
        self.entries = entries
        self.warmup = warmup
        self.miss_indices = miss_indices
        self._lut = _tables.compile_tables(assoc, entries)
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
        if self._lut is not None:
            return self._feed_lut(addresses)
        return self._feed_walk(addresses)

    def _feed_lut(self, addresses: Sequence[int]) -> int:
        t = self._lut
        victim, hit, fill, shift = t.victim, t.hit, t.fill, t.log2k
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
                tags = way_to_tag[si]
                if len(ways) < assoc:
                    way = len(ways)  # cold fill: ways fill in order
                    cold_fills += 1
                else:
                    way = victim[state]
                    del ways[tags[way]]
                tags[way] = addr
                ways[addr] = way
                states[si] = fill[(state << shift) | way]
            else:
                states[si] = hit[(state << shift) | way]
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
        promo = list(self.entries[:assoc])
        insert = self.entries[assoc]
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
                new_pos = insert
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
                new_pos = promo[pos]
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
