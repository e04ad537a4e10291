"""Tree-PLRU family: classic PLRU, GIPPR and dynamic DGIPPR.

This is the paper's main contribution (Section 3).  All three policies keep
exactly ``k - 1`` plru bits per set — less than one bit per block for a
16-way cache — and differ only in how they map re-references and insertions
onto PseudoLRU recency-stack positions:

* :class:`TreePLRUPolicy` — classic PLRU: promote to PMRU, insert at PMRU,
  i.e. the all-zeros IPV (``core.plru.promote`` is
  ``set_position(state, way, 0)``).
* :class:`GIPPRPolicy` — a single evolved IPV drives insertion/promotion via
  the Figure 9 ``set_position`` primitive.
* :class:`DGIPPRPolicy` — set-dueling between 2 or 4 evolved IPVs (Section
  3.5) while sharing one set of plru bits across vectors, exactly as the
  paper specifies.

They share one base for the per-set state, victim selection, position
decoding and the bit-walk fallback.  The path is picked from what the
code observes: when :func:`repro.kernels.tables.compile_tables` returns
tables for every vector, victim selection and the composed hit/fill
transitions are single ``array('H')`` lookups, inlined in each hook
because the figure runs drive these policies one access at a time;
otherwise (associativity above :data:`repro.kernels.MAX_TABLE_ASSOC`, or
16 ways without numpy) the Figure 5/7/9 bit-walks of :mod:`repro.core.plru`
run.  The two paths are bit-identical; ``kernel_mode`` (``"lut"`` or
``"walk"``) records which one is active, for provenance.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.dueling import make_selector
from ..core.ipv import IPV
from ..core.plru import find_plru, position, set_position
from ..kernels import tables as _tables
from .base import AccessContext, ReplacementPolicy

__all__ = ["TreePLRUPolicy", "GIPPRPolicy", "DGIPPRPolicy"]


class _PLRUTree(ReplacementPolicy):
    """``k - 1`` plru bits per set driven by one or more IPVs.

    Single-vector hooks use vector 0; :class:`DGIPPRPolicy` overrides
    them to pick the vector its set-dueling selector names.
    """

    def __init__(
        self, num_sets: int, assoc: int, vectors: Sequence[Sequence[int]]
    ):
        super().__init__(num_sets, assoc)
        self._state: List[int] = [0] * num_sets
        self._promos = [tuple(v[:assoc]) for v in vectors]
        self._inserts = [v[assoc] for v in vectors]
        # All-or-nothing: one composed hit/fill pair per vector.
        table_sets = [_tables.compile_tables(assoc, v) for v in vectors]
        if all(t is not None for t in table_sets):
            self._tables = table_sets[0]
            self._shift = self._tables.log2k
            self._victim_t = self._tables.victim
            self._pos_t = self._tables.pos
            self._hit_ts = [t.hit for t in table_sets]
            self._fill_ts = [t.fill for t in table_sets]
            self._hit_t = self._hit_ts[0]
            self._fill_t = self._fill_ts[0]
            self.kernel_mode = "lut"
        else:
            self._tables = None
            self.kernel_mode = "walk"

    def victim(self, set_index: int, ctx: AccessContext) -> int:
        if self._tables is not None:
            return self._victim_t[self._state[set_index]]
        return find_plru(self._state[set_index], self.assoc)

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self._tables is not None:
            self._state[set_index] = self._hit_t[
                (self._state[set_index] << self._shift) | way
            ]
            return
        self._walk_hit(set_index, way, 0)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        if self._tables is not None:
            self._state[set_index] = self._fill_t[
                (self._state[set_index] << self._shift) | way
            ]
            return
        self._walk_fill(set_index, way, 0)

    def _walk_hit(self, set_index: int, way: int, vector: int) -> None:
        """Figure 7 decode, ``V[pos]`` lookup, Figure 9 rewrite."""
        state = self._state[set_index]
        pos = position(state, way, self.assoc)
        self._state[set_index] = set_position(
            state, way, self._promos[vector][pos], self.assoc
        )

    def _walk_fill(self, set_index: int, way: int, vector: int) -> None:
        self._state[set_index] = set_position(
            self._state[set_index], way, self._inserts[vector], self.assoc
        )

    def position_of(self, set_index: int, way: int) -> int:
        if self._tables is not None:
            return self._pos_t[(self._state[set_index] << self._shift) | way]
        return position(self._state[set_index], way, self.assoc)

    def state_bits_per_set(self) -> float:
        return self.assoc - 1


class TreePLRUPolicy(_PLRUTree):
    """Classic tree-based PseudoLRU (Section 3.1, Figures 5 and 6)."""

    name = "plru"

    def __init__(self, num_sets: int, assoc: int):
        super().__init__(num_sets, assoc, [(0,) * (assoc + 1)])


class GIPPRPolicy(_PLRUTree):
    """Genetic Insertion and Promotion for PseudoLRU Replacement (§3.4).

    A block re-referenced at PLRU position ``i`` has its position set to
    ``V[i]``; an incoming block's position is set to ``V[k]``.  Because
    ``set_position`` rewrites the leaf-to-root path bits, other blocks'
    positions shift in a more drastic way than under true LRU — the reason
    the paper evolves PLRU-specific vectors.
    """

    name = "gippr"

    def __init__(self, num_sets: int, assoc: int, ipv: IPV = None):
        if ipv is None:
            from ..core.vectors import GIPPR_WI_VECTOR

            ipv = GIPPR_WI_VECTOR
        if ipv.k != assoc:
            raise ValueError(f"IPV is for {ipv.k}-way sets, cache is {assoc}-way")
        super().__init__(num_sets, assoc, [ipv.entries])
        self.ipv = ipv


class DGIPPRPolicy(_PLRUTree):
    """Dynamic GIPPR: set-dueling between evolved IPVs (Section 3.5).

    With two vectors a single 11-bit PSEL counter duels them (2-DGIPPR);
    with four, Loh-style multi-set dueling uses three 11-bit counters
    (4-DGIPPR).  Only one array of plru bits is kept per set regardless of
    the vector count, matching the paper's hardware budget of 15 bits per
    16-way set plus 33 counter bits per cache.

    On the table path one composed hit/fill table pair is compiled per
    duelled vector; the bounded compile cache in :mod:`repro.kernels` makes
    repeated duels of the same published vector sets free.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        ipvs: Sequence[IPV] = None,
        leaders_per_policy: int = None,
        counter_bits: int = 11,
        seed: int = 0xDEAD,
    ):
        if ipvs is None:
            from ..core.vectors import DGIPPR4_WI_VECTORS

            ipvs = DGIPPR4_WI_VECTORS
        ipvs = list(ipvs)
        for ipv in ipvs:
            if ipv.k != assoc:
                raise ValueError(
                    f"IPV {ipv.name} is for {ipv.k}-way sets, cache is {assoc}-way"
                )
        super().__init__(num_sets, assoc, [ipv.entries for ipv in ipvs])
        self.ipvs = ipvs
        self.name = f"{len(ipvs)}-dgippr"
        self.selector = make_selector(
            num_sets, len(ipvs), leaders_per_policy, counter_bits, seed
        )
        self._counter_bits = counter_bits

    def on_hit(self, set_index: int, way: int, ctx: AccessContext) -> None:
        ipv_index = self.selector.policy_for_set(set_index)
        if self._tables is not None:
            self._state[set_index] = self._hit_ts[ipv_index][
                (self._state[set_index] << self._shift) | way
            ]
            return
        self._walk_hit(set_index, way, ipv_index)

    def on_miss(self, set_index: int, ctx: AccessContext) -> None:
        self.selector.record_miss(set_index)

    def on_fill(self, set_index: int, way: int, ctx: AccessContext) -> None:
        ipv_index = self.selector.policy_for_set(set_index)
        if self._tables is not None:
            self._state[set_index] = self._fill_ts[ipv_index][
                (self._state[set_index] << self._shift) | way
            ]
            return
        self._walk_fill(set_index, way, ipv_index)

    def active_ipv(self) -> IPV:
        """The vector the follower sets currently run (introspection)."""
        return self.ipvs[self.selector.selected()]

    def global_state_bits(self) -> int:
        # One 11-bit counter for 2 vectors, three for 4 (Section 3.6); the
        # generalized bracket uses num_policies - 1 counters.
        return max(len(self.ipvs) - 1, 0) * self._counter_bits
