"""Cache block representation.

A :class:`CacheBlock` is the unit stored by every cache model in the
reproduction. Blocks are identified by their *block address* (the byte
address with the offset bits stripped) and carry a dirty bit. The
dirty bit is also the block's MSI state: a resident block is MODIFIED
when dirty and SHARED when clean, and the directory's sharer vectors
live in :class:`~repro.hierarchy.system.System`, keyed by block
address.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheBlock:
    """One resident block in a set-associative cache.

    Attributes:
        tag: the address tag (block address >> set-index bits).
        dirty: whether the block must be written back on eviction.
        value_id: index of the block's current data values in the trace's
            value table (``-1`` when the simulation is not tracking values).
    """

    tag: int
    dirty: bool = False
    value_id: int = -1
