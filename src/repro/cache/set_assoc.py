"""Conventional set-associative cache model.

This is the workhorse structure of the reproduction: it models the
private L1/L2 caches, the baseline 2 MB LLC and the precise half of the
split Doppelgänger LLC. It is a *functional + event* model: it tracks
resident blocks, replacement state and statistics, and reports evictions
and writebacks to the caller; timing and energy are accounted separately
from the recorded events.

A resident block is one integer, its *state*: ``(value_id << 1) |
dirty``, where ``value_id`` indexes the trace's value table (``-1``
when the simulation tracks no value) and ``dirty`` is the block's
write-back bit, which is also its MSI state (MODIFIED when set, SHARED
when clear; the sharer vectors live in
:class:`~repro.hierarchy.system.System`). ``state & 1`` is the dirty
bit and ``state >> 1`` the value id, so ``-2`` is an untracked clean
block and ``-1`` an untracked dirty one. The paper's hardware likewise
keeps a block's state as a few bits next to its tag (Sec. 3.1). Each
set is one ``block address -> state`` dict in replacement order, kept
by a :class:`~repro.cache.replacement.ReplacementSets` like every other
array's. The key is the block-aligned byte address: the hardware's set
index and tag are both bit fields of it, so a victim's key is already
its address.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.cache.replacement import ReplacementSets
from repro.cache.stats import CacheStats


class AccessResult(NamedTuple):
    """Outcome of a cache access.

    Attributes:
        hit: whether the address was resident.
        evicted_addr: block address of the victim, if a fill evicted one.
        evicted_value_id: the victim's value id (``-1`` without a victim
            or a tracked value).
        writeback: whether the victim was dirty and needs a writeback.
    """

    hit: bool
    evicted_addr: Optional[int] = None
    evicted_value_id: int = -1
    writeback: bool = False


#: Shared results of a hit and of a miss that evicted nothing.
_HIT = AccessResult(True)
_MISS = AccessResult(False)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class SetAssociativeCache:
    """A set-associative, write-back, write-allocate cache.

    Args:
        size_bytes: total data capacity.
        ways: associativity.
        block_size: line size in bytes (64 in the paper's system).
        policy: replacement policy name (``lru`` by default, as the paper).
        name: label used in reports.
        level: informational level tag (e.g. ``"L1"``), used by reports.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        block_size: int = 64,
        policy: str = "lru",
        name: str = "cache",
        level: str = "",
    ):
        if size_bytes <= 0 or size_bytes % (ways * block_size):
            raise ValueError(
                f"size {size_bytes} not divisible into {ways}-way sets of "
                f"{block_size}B blocks"
            )
        if not _is_pow2(block_size):
            raise ValueError(f"block_size must be a power of two, got {block_size}")
        self.size_bytes = size_bytes
        self.ways = ways
        self.block_size = block_size
        self.num_sets = size_bytes // (ways * block_size)
        if not _is_pow2(self.num_sets):
            raise ValueError(
                f"derived set count {self.num_sets} is not a power of two"
            )
        self.name = name
        self.level = level
        self.policy_name = policy
        self.stats = CacheStats()
        self._shift = block_size.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Per set: one block address -> state dict in replacement order,
        # the next victim first (raises ValueError for an unknown policy
        # name).
        self._repl = ReplacementSets(self.num_sets, ways, policy)
        self._sets: List[Dict[int, int]] = self._repl.sets

    # ---------------------------------------------------------------- addressing

    def set_index(self, addr: int) -> int:
        """Set index for a byte address."""
        return (addr >> self._shift) & self._set_mask

    # ---------------------------------------------------------------- queries

    def probe(self, addr: int) -> Optional[int]:
        """State of ``addr`` (None if absent), without touching
        replacement order or stats."""
        return self._sets[self.set_index(addr)].get(addr & -self.block_size)

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` is resident."""
        return self.probe(addr) is not None

    def resident_addrs(self) -> Iterator[int]:
        """Iterate over the byte addresses of every resident block."""
        for blocks in self._sets:
            yield from blocks

    def occupancy(self) -> int:
        """Number of resident blocks."""
        return sum(map(len, self._sets))

    # ---------------------------------------------------------------- access

    def access(
        self,
        addr: int,
        is_write: bool = False,
        value_id: int = -1,
        fill_on_miss: bool = True,
    ) -> AccessResult:
        """Perform a read or write access.

        On a miss with ``fill_on_miss`` the block is installed
        (write-allocate), evicting the replacement victim if the set is
        full. The victim's address and value id, and whether it needs a
        writeback, are reported in the result; the caller (hierarchy) is
        responsible for actually propagating the writeback.

        Args:
            addr: byte address.
            is_write: store (sets the dirty bit) vs load.
            value_id: optional value-table index carried by functional
                simulations; ``-1`` leaves the resident value unchanged
                on reads and updates it on writes only when ``>= 0``.
            fill_on_miss: install the block on a miss.
        """
        stats = self.stats
        stats.accesses += 1
        stats.tag_lookups += 1
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1

        key = addr & -self.block_size
        blocks = self._sets[(addr >> self._shift) & self._set_mask]
        state = blocks.get(key)
        if state is not None:
            stats.hits += 1
            if is_write:
                state = (value_id << 1) | 1 if value_id >= 0 else state | 1
                stats.data_writes += 1
            else:
                stats.data_reads += 1
            if self._repl.lru:
                del blocks[key]
            blocks[key] = state
            return _HIT

        stats.misses += 1
        if not fill_on_miss:
            return _MISS
        return self._fill(addr, is_write, value_id)

    def _fill(self, addr: int, is_write: bool, value_id: int) -> AccessResult:
        """Install ``addr``, evicting a victim when the set is full."""
        stats = self.stats
        result = _MISS

        evicted = self._repl.insert(
            (addr >> self._shift) & self._set_mask, addr & -self.block_size,
            (value_id << 1) | is_write,
        )
        if evicted is not None:
            victim, state = evicted
            writeback = bool(state & 1)
            stats.evictions += 1
            stats.writebacks += writeback
            result = AccessResult(False, victim, state >> 1, writeback)
        stats.fills += 1
        if is_write:
            stats.data_writes += 1
        else:
            stats.data_reads += 1
        return result

    def install(self, addr: int, dirty: bool = False, value_id: int = -1) -> AccessResult:
        """Install a block without counting a demand access.

        Used by LLC adapters for the fill that follows a (separately
        counted) demand miss; fills/evictions/writebacks are still
        recorded. Raises if the address is already resident.
        """
        if self.probe(addr) is not None:
            raise ValueError(f"install of resident address {addr:#x}")
        return self._fill(addr, dirty, value_id)

    # ---------------------------------------------------------------- maintenance

    def invalidate(self, addr: int) -> Optional[int]:
        """Remove ``addr`` if resident; return its state (None if absent).

        The caller decides what to do with a dirty victim (the private
        caches write it back toward the LLC; the LLC writes to memory).
        """
        state = self._repl.remove(self.set_index(addr), addr & -self.block_size)
        if state is not None:
            self.stats.invalidations += 1
        return state

    def flush(self) -> List[Tuple[int, int]]:
        """Invalidate everything; return ``(addr, state)`` for dirty blocks."""
        dirty = []
        for addr in list(self.resident_addrs()):
            state = self.invalidate(addr)
            if state & 1:
                dirty.append((addr, state))
        return dirty

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"ways={self.ways}, sets={self.num_sets}, policy={self.policy_name!r})"
        )
