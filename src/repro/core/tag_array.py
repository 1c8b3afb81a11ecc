"""Decoupled tag array of the Doppelgänger cache (Sec. 3.1, Fig. 4).

The tag array is indexed by physical address exactly like a
conventional cache, but each entry additionally carries:

* ``prev`` / ``next`` tag pointers forming the doubly-linked list of
  tags that share one data-array entry (Fig. 5),
* the ``map`` value used to index the MTag/data array,
* a per-tag dirty bit (Sec. 3.6: coherence and dirtiness are per
  *tag*, never per data entry). The dirty bit is also the tag's MSI
  state (MODIFIED when set, SHARED when clear); the directory's sharer
  vectors live in :class:`~repro.hierarchy.system.System`, one per
  block address and so one per tag,
* for the unified design (Sec. 3.8), a precise bit.

The hardware's 14-bit tag pointers (Table 3) are entry references here,
None for a null pointer. Each set is one ``block address -> TagEntry``
dict in replacement order (:class:`~repro.cache.replacement.ReplacementSets`):
the hardware's set index and address tag are both bit fields of the
block-aligned address, which is the key, as in
:class:`~repro.cache.set_assoc.SetAssociativeCache`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.cache.replacement import ReplacementSets


class TagEntry:
    """One Doppelgänger tag-array entry; ``addr`` is its block address,
    the key of its set."""

    __slots__ = ("addr", "set_idx", "dirty", "map_value", "prev", "next", "precise")

    def __init__(self, addr: int, set_idx: int):
        self.addr = addr
        self.set_idx = set_idx
        self.dirty = False
        self.map_value = -1
        self.prev: Optional[TagEntry] = None
        self.next: Optional[TagEntry] = None
        self.precise = False

    def __repr__(self) -> str:
        def addr(entry):
            return None if entry is None else hex(entry.addr)

        return (
            f"TagEntry(addr={self.addr:#x}, map={self.map_value}, "
            f"dirty={self.dirty}, prev={addr(self.prev)}, next={addr(self.next)})"
        )


class TagAllocation(NamedTuple):
    """Result of allocating a tag entry.

    ``victim`` is the evicted entry when the set was full (already
    removed from the array but its linked-list pointers untouched so the
    caller can unlink it from its data entry's list first).
    """

    entry: TagEntry
    victim: Optional[TagEntry]


class TagArray:
    """Address-indexed, set-associative array of :class:`TagEntry`.

    Args:
        entries: total tag count (16 K in the base design).
        ways: associativity (16).
        block_size: line size for address decomposition.
        policy: replacement policy name.
    """

    def __init__(self, entries: int, ways: int, block_size: int = 64, policy: str = "lru"):
        if entries % ways:
            raise ValueError(f"{entries} entries not divisible into {ways}-way sets")
        self.num_entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self.block_size = block_size
        self._repl = ReplacementSets(self.num_sets, ways, policy)
        self._sets = self._repl.sets

    # ---------------------------------------------------------- addressing

    def set_index(self, addr: int) -> int:
        """Tag-array set index of a byte address."""
        return (addr // self.block_size) % self.num_sets

    # ------------------------------------------------------------- queries

    @property
    def occupied(self) -> int:
        """Resident entries."""
        return sum(map(len, self._sets))

    def probe(self, addr: int) -> Optional[TagEntry]:
        """Look up an address without touching replacement state."""
        return self._sets[self.set_index(addr)].get(addr - addr % self.block_size)

    def touch(self, entry: TagEntry) -> None:
        """Mark ``entry`` most-recently used."""
        self._repl.touch(entry.set_idx, entry.addr)

    def resident(self) -> List[TagEntry]:
        """All valid entries (test/diagnostic helper)."""
        return [e for entries in self._sets for e in entries.values()]

    # ----------------------------------------------------------- allocation

    def allocate(self, addr: int) -> TagAllocation:
        """Allocate an entry for ``addr``, evicting a victim if full.

        The returned entry is clean, with null pointers and no map;
        the caller fills it in. Raises if the address
        is already resident — callers must probe first.
        """
        addr -= addr % self.block_size
        set_idx = self.set_index(addr)
        if addr in self._sets[set_idx]:
            raise ValueError(f"address {addr:#x} already resident in tag array")
        entry = TagEntry(addr, set_idx)
        evicted = self._repl.insert(set_idx, addr, entry)
        return TagAllocation(entry=entry, victim=None if evicted is None else evicted[1])

    def invalidate(self, entry: TagEntry) -> None:
        """Invalidate a resident entry."""
        if self._sets[entry.set_idx].get(entry.addr) is not entry:
            raise ValueError(f"entry {entry!r} is not resident")
        self._repl.remove(entry.set_idx, entry.addr)

    # ------------------------------------------------------------ list ops

    def list_length(self, head: Optional[TagEntry]) -> int:
        """Length of the linked list starting at ``head``."""
        count = 0
        while head is not None:
            count += 1
            head = head.next
        return count

    def iter_list(self, head: Optional[TagEntry]):
        """Iterate the tag entries of a linked list."""
        while head is not None:
            entry = head
            head = entry.next
            yield entry
