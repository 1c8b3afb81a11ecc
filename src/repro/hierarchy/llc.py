"""Shared-LLC adapters.

Three interchangeable LLC organizations, all speaking the same
three-call protocol the :class:`~repro.hierarchy.system.System` uses:

* ``read(addr, core, approx, region_id)`` — a demand access from an L2
  miss; never fills (the system fetches from memory first).
* ``fill(addr, ...)`` — install a block that arrived from memory.
* ``handle_writeback(addr, ...)`` — an L2 evicted a dirty block.

Each reply reports memory writebacks and (for the inclusive LLC)
back-invalidations the system must apply to the private caches.
``miss_count()`` and ``access_count()`` give the run's demand totals.

Organizations:

* :class:`BaselineLLC` — the conventional 2 MB, 16-way LLC.
* :class:`SplitDoppelgangerLLC` — 1 MB precise cache + 1 MB
  tag-equivalent Doppelgänger cache (the paper's base design).
* :class:`UnifiedDoppelgangerLLC` — the uniDoppelgänger variant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.set_assoc import SetAssociativeCache
from repro.core.config import DoppelgangerConfig, UniDoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache, LLCOutcome
from repro.core.unidoppelganger import UniDoppelgangerCache

MB = 1024 * 1024


#: Shared immutable replies for the two no-side-effect outcomes.
_REPLY_HIT = LLCOutcome(True)
_REPLY_MISS = LLCOutcome(False)


def _install(cache: SetAssociativeCache, addr: int, value_id: int, dirty: bool) -> LLCOutcome:
    """Install a fetched block in a conventional (inclusive) array.

    The victim, if any, is back-invalidated, and written back when dirty.
    """
    result = cache.install(addr, dirty=dirty, value_id=value_id)
    writebacks = (result.evicted_addr,) if result.writeback else ()
    back_invals = (result.evicted_addr,) if result.evicted_addr is not None else ()
    cache.stats.back_invalidations += len(back_invals)
    return LLCOutcome(hit=False, writebacks=writebacks, back_invalidations=back_invals)


def _absorb_writeback(cache: SetAssociativeCache, addr: int, value_id: int) -> LLCOutcome:
    """Absorb a dirty L2 eviction of block address ``addr``; forward to
    memory if not resident.

    The block keeps its place in the replacement order.
    """
    blocks = cache._sets[cache.set_index(addr)]
    state = blocks.get(addr)
    if state is None:
        # Raced with an LLC eviction: the writeback goes to memory.
        return LLCOutcome(hit=False, writebacks=(addr,))
    blocks[addr] = (value_id << 1) | 1 if value_id >= 0 else state | 1
    cache.stats.write_accesses += 1
    cache.stats.tag_lookups += 1
    cache.stats.data_writes += 1
    return _REPLY_HIT


class BaselineLLC:
    """Conventional shared LLC (2 MB, 16-way, LRU, inclusive)."""

    name = "baseline"

    def __init__(
        self,
        size_bytes: int = 2 * MB,
        ways: int = 16,
        block_size: int = 64,
        regions=None,
    ):
        self.cache = SetAssociativeCache(
            size_bytes, ways, block_size, name="LLC", level="LLC"
        )
        self.block_size = block_size

    def read(self, addr: int, core: int, approx: bool, region_id: int) -> LLCOutcome:
        """Demand lookup; misses do not fill."""
        result = self.cache.access(addr, is_write=False, fill_on_miss=False)
        return _REPLY_HIT if result.hit else _REPLY_MISS

    def fill(
        self,
        addr: int,
        core: int,
        approx: bool,
        region_id: int,
        value_id: int = -1,
        values: Optional[np.ndarray] = None,
        dirty: bool = False,
    ) -> LLCOutcome:
        """Install a block fetched from memory."""
        return _install(self.cache, addr, value_id, dirty)

    def handle_writeback(
        self,
        addr: int,
        core: int,
        approx: bool,
        region_id: int,
        value_id: int = -1,
        values: Optional[np.ndarray] = None,
    ) -> LLCOutcome:
        """Absorb a dirty L2 eviction; forward to memory if not resident."""
        return _absorb_writeback(self.cache, addr, value_id)

    def energy_events(self) -> dict:
        """Access counts per physical structure, for the energy model."""
        s = self.cache.stats
        return {
            ("baseline_llc", "tag"): s.tag_lookups,
            ("baseline_llc", "data"): s.data_reads + s.data_writes,
        }

    def miss_count(self) -> int:
        """Demand misses at the LLC."""
        return self.cache.stats.misses

    def access_count(self) -> int:
        """Demand accesses at the LLC."""
        return self.cache.stats.accesses

    def attach_tracer(self, tracer) -> None:
        """No Doppelgänger mechanics to trace in the baseline."""


class SplitDoppelgangerLLC:
    """1 MB precise conventional cache + Doppelgänger cache (Table 1)."""

    name = "doppelganger"

    def __init__(
        self,
        config: Optional[DoppelgangerConfig] = None,
        precise_bytes: int = 1 * MB,
        precise_ways: int = 16,
        policy: str = "lru",
        regions=None,
    ):
        self.config = config or DoppelgangerConfig()
        self.block_size = self.config.block_size
        self.precise = SetAssociativeCache(
            precise_bytes, precise_ways, self.block_size, policy, name="precise", level="LLC"
        )
        self.dopp = DoppelgangerCache(self.config, regions=regions)

    def read(self, addr: int, core: int, approx: bool, region_id: int) -> LLCOutcome:
        """Route by the access's approximate bit (ISA support, Sec. 4.1)."""
        if approx:
            return self.dopp.lookup(addr)
        result = self.precise.access(addr, is_write=False, fill_on_miss=False)
        return _REPLY_HIT if result.hit else _REPLY_MISS

    def fill(
        self,
        addr: int,
        core: int,
        approx: bool,
        region_id: int,
        value_id: int = -1,
        values: Optional[np.ndarray] = None,
        dirty: bool = False,
    ) -> LLCOutcome:
        """Install a fetched block in the appropriate half."""
        if approx:
            if values is None:
                raise ValueError(
                    f"approximate fill of {addr:#x} (region {region_id}) needs block values"
                )
            return self.dopp.insert(addr, region_id, values, value_id=value_id, dirty=dirty)
        return _install(self.precise, addr, value_id, dirty)

    def handle_writeback(
        self,
        addr: int,
        core: int,
        approx: bool,
        region_id: int,
        value_id: int = -1,
        values: Optional[np.ndarray] = None,
    ) -> LLCOutcome:
        """Dirty L2 eviction: Sec. 3.4 path for approximate blocks."""
        if approx:
            if values is None:
                raise ValueError(
                    f"approximate writeback of {addr:#x} (region {region_id}) needs values"
                )
            return self.dopp.writeback(addr, region_id, values, value_id=value_id)
        return _absorb_writeback(self.precise, addr, value_id)

    def energy_events(self) -> dict:
        """Access counts per physical structure, for the energy model."""
        p = self.precise.stats
        d = self.dopp.stats
        return {
            ("precise_1mb", "tag"): p.tag_lookups,
            ("precise_1mb", "data"): p.data_reads + p.data_writes,
            ("dopp_tag", "tag"): d.tag_lookups,
            ("dopp_data", "tag"): d.mtag_lookups,
            ("dopp_data", "data"): d.data_reads + d.data_writes,
            ("map_generation", "op"): d.map_generations,
        }

    def miss_count(self) -> int:
        """Demand misses across both halves."""
        return self.precise.stats.misses + self.dopp.stats.misses

    def access_count(self) -> int:
        """Demand accesses across both halves."""
        return self.precise.stats.accesses + self.dopp.stats.accesses

    def attach_tracer(self, tracer) -> None:
        """Route protocol events of the Doppelgänger half to ``tracer``."""
        self.dopp.tracer = tracer

    def seed_map_memo(self, hashed) -> int:
        """Precompute map values for a trace (see engine precompute)."""
        return self.dopp.seed_map_memo(hashed)


class UnifiedDoppelgangerLLC:
    """uniDoppelgänger LLC (Sec. 3.8): one array pair for everything."""

    name = "unidoppelganger"

    def __init__(self, config: Optional[UniDoppelgangerConfig] = None, regions=None):
        self.config = config or UniDoppelgangerConfig()
        self.block_size = self.config.block_size
        self.uni = UniDoppelgangerCache(self.config, regions=regions)

    def read(self, addr: int, core: int, approx: bool, region_id: int) -> LLCOutcome:
        """Tag probe handles both kinds uniformly."""
        return self.uni.lookup(addr)

    def fill(
        self,
        addr: int,
        core: int,
        approx: bool,
        region_id: int,
        value_id: int = -1,
        values: Optional[np.ndarray] = None,
        dirty: bool = False,
    ) -> LLCOutcome:
        """Install a fetched block, precise or approximate."""
        return self.uni.insert_block(
            addr, approx, region_id=region_id, values=values, value_id=value_id,
            dirty=dirty,
        )

    def handle_writeback(
        self,
        addr: int,
        core: int,
        approx: bool,
        region_id: int,
        value_id: int = -1,
        values: Optional[np.ndarray] = None,
    ) -> LLCOutcome:
        """Dirty L2 eviction of either kind."""
        return self.uni.writeback_block(
            addr, approx, region_id=region_id, values=values, value_id=value_id
        )

    def energy_events(self) -> dict:
        """Access counts per physical structure, for the energy model."""
        d = self.uni.stats
        return {
            ("uni_tag", "tag"): d.tag_lookups,
            ("uni_data", "tag"): d.mtag_lookups,
            ("uni_data", "data"): d.data_reads + d.data_writes,
            ("map_generation", "op"): d.map_generations,
        }

    def miss_count(self) -> int:
        """Demand misses at the unified LLC."""
        return self.uni.stats.misses

    def access_count(self) -> int:
        """Demand accesses at the unified LLC."""
        return self.uni.stats.accesses

    def attach_tracer(self, tracer) -> None:
        """Route protocol events of the unified cache to ``tracer``."""
        self.uni.tracer = tracer

    def seed_map_memo(self, hashed) -> int:
        """Precompute map values for a trace (see engine precompute)."""
        return self.uni.seed_map_memo(hashed)
