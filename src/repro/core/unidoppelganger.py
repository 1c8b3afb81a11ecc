"""The unified Doppelgänger cache (Sec. 3.8).

uniDoppelgänger lets precise and approximate blocks share one tag array
and one data array. One extra bit per tag and MTag entry distinguishes
the two kinds. For precise blocks the hash computation is forgone: the
map value is simply the physical block address, which points at a
unique data entry, and the prev/next pointers stay null because precise
tags can never share data blocks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import UniDoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache, LLCOutcome


class UniDoppelgangerCache(DoppelgangerCache):
    """Unified precise + approximate Doppelgänger LLC.

    The approximate path is inherited unchanged from
    :class:`~repro.core.doppelganger.DoppelgangerCache`; this subclass
    adds the precise path keyed by physical block address.
    """

    def __init__(self, config: Optional[UniDoppelgangerConfig] = None, regions=None):
        # The parent constructor only relies on the structural
        # properties the unified config also exposes (tag_entries,
        # data_entries, ways, block size, map, policy).
        super().__init__(config or UniDoppelgangerConfig(), regions)

    # ---------------------------------------------------------- precise path

    def _precise_map(self, addr: int) -> int:
        """Map value of a precise block: its physical block address."""
        return addr // self.block_size

    def insert_block(
        self,
        addr: int,
        approx: bool,
        region_id: int = -1,
        values: Optional[np.ndarray] = None,
        value_id: int = -1,
        dirty: bool = False,
    ) -> LLCOutcome:
        """Install a block of either kind after a memory fetch.

        A precise block takes the approximate fill's tag allocation and
        data attachment, minus the map generation: its map is its block
        address, so it never shares a data entry.
        """
        if approx:
            if values is None:
                raise ValueError("approximate insertion requires block values")
            return self.insert(addr, region_id, values, value_id, dirty)
        writebacks: list = []
        back_invals: list = []
        entry = self._allocate_tag(addr, dirty, writebacks, back_invals)
        entry.precise = True
        self._attach(entry, self._precise_map(addr), value_id, writebacks, back_invals)
        return LLCOutcome(
            hit=False, writebacks=tuple(writebacks), back_invalidations=tuple(back_invals)
        )

    def writeback_block(
        self,
        addr: int,
        approx: bool,
        region_id: int = -1,
        values: Optional[np.ndarray] = None,
        value_id: int = -1,
    ) -> LLCOutcome:
        """Handle an L2 dirty writeback of either kind.

        If the resident tag's kind disagrees with the request (an
        address reannotated between precise and approximate), the stale
        tag is invalidated and the block reinserted under its new kind
        — the two key spaces must never cross-link.
        """
        entry = self.tags.probe(addr)
        if entry is not None and entry.precise == approx:
            stale = self.invalidate(addr)
            fresh = self.insert_block(
                addr, approx, region_id=region_id, values=values,
                value_id=value_id, dirty=True,
            )
            return LLCOutcome(
                hit=False,
                writebacks=stale.writebacks + fresh.writebacks,
                back_invalidations=stale.back_invalidations
                + fresh.back_invalidations,
            )
        if approx:
            if values is None:
                raise ValueError("approximate writeback requires block values")
            return self.writeback(addr, region_id, values, value_id)
        if entry is None:
            return self.insert_block(addr, False, value_id=value_id, dirty=True)
        self.stats.tag_lookups += 1
        self.tags.touch(entry)
        entry.dirty = True
        data_entry = self.data.probe(entry.map_value, precise=True)
        if data_entry is not None:
            data_entry.value_id = value_id
            self.data.touch(data_entry)
            self.stats.data_writes += 1
        return LLCOutcome(hit=True)

    # -------------------------------------------------------------- queries

    def precise_occupancy(self) -> int:
        """Resident precise data entries."""
        return sum(1 for e in self.data.resident() if e.precise)

    def approx_occupancy(self) -> int:
        """Resident approximate data entries."""
        return sum(1 for e in self.data.resident() if not e.precise)
