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

Entries are addressed by a dense integer ``entry_id`` (set * ways +
way) so that linked-list pointers are plain ints, mirroring the
hardware's 14-bit tag pointers (Table 3).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.cache.replacement import make_policy

NULL_PTR = -1


class TagEntry:
    """One Doppelgänger tag-array entry."""

    __slots__ = (
        "addr",
        "tag",
        "set_idx",
        "way",
        "entry_id",
        "dirty",
        "map_value",
        "prev",
        "next",
        "precise",
    )

    def __init__(self, addr: int, tag: int, set_idx: int, way: int, entry_id: int):
        self.addr = addr
        self.tag = tag
        self.set_idx = set_idx
        self.way = way
        self.entry_id = entry_id
        self.dirty = False
        self.map_value = NULL_PTR
        self.prev = NULL_PTR
        self.next = NULL_PTR
        self.precise = False

    def __repr__(self) -> str:
        return (
            f"TagEntry(addr={self.addr:#x}, map={self.map_value}, "
            f"dirty={self.dirty}, prev={self.prev}, next={self.next})"
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
        self._entries: List[Optional[TagEntry]] = [None] * entries
        self._lookup: List[dict] = [dict() for _ in range(self.num_sets)]
        self._policies = [make_policy(policy, ways) for _ in range(self.num_sets)]
        self.occupied = 0

    # ---------------------------------------------------------- addressing

    def set_index(self, addr: int) -> int:
        """Tag-array set index of a byte address."""
        return (addr // self.block_size) % self.num_sets

    def addr_tag(self, addr: int) -> int:
        """Address tag of a byte address."""
        return (addr // self.block_size) // self.num_sets

    # ------------------------------------------------------------- queries

    def entry(self, entry_id: int) -> Optional[TagEntry]:
        """Entry by dense id (linked-list pointer dereference)."""
        if entry_id == NULL_PTR:
            return None
        return self._entries[entry_id]

    def probe(self, addr: int) -> Optional[TagEntry]:
        """Look up an address without touching replacement state."""
        set_idx = self.set_index(addr)
        return self._lookup[set_idx].get(self.addr_tag(addr))

    def touch(self, entry: TagEntry) -> None:
        """Mark ``entry`` most-recently used."""
        self._policies[entry.set_idx].on_access(entry.way)

    def resident(self) -> List[TagEntry]:
        """All valid entries (test/diagnostic helper)."""
        return [e for e in self._entries if e is not None]

    # ----------------------------------------------------------- allocation

    def allocate(self, addr: int) -> TagAllocation:
        """Allocate an entry for ``addr``, evicting an LRU victim if full.

        The returned entry is clean, with null pointers and no map;
        the caller fills it in. Raises if the address
        is already resident — callers must probe first.
        """
        set_idx = self.set_index(addr)
        tag = self.addr_tag(addr)
        lookup = self._lookup[set_idx]
        if tag in lookup:
            raise ValueError(f"address {addr:#x} already resident in tag array")

        victim = None
        base = set_idx * self.ways
        if len(lookup) < self.ways:
            entry_id = self._entries.index(None, base, base + self.ways)
            way = entry_id - base
        else:
            way = self._policies[set_idx].victim()
            entry_id = base + way
            victim = self._entries[entry_id]
            self._remove_resident(victim)

        entry = TagEntry(addr, tag, set_idx, way, entry_id)
        self._entries[entry_id] = entry
        lookup[tag] = entry
        self._policies[set_idx].on_fill(way)
        self.occupied += 1
        return TagAllocation(entry=entry, victim=victim)

    def _remove_resident(self, entry: TagEntry) -> None:
        """Drop ``entry`` from the array bookkeeping."""
        del self._lookup[entry.set_idx][entry.tag]
        self._entries[entry.entry_id] = None
        self.occupied -= 1

    def invalidate(self, entry: TagEntry) -> None:
        """Invalidate a resident entry (replacement state freed too)."""
        if self._entries[entry.entry_id] is not entry:
            raise ValueError(f"entry {entry!r} is not resident")
        self._remove_resident(entry)
        self._policies[entry.set_idx].on_invalidate(entry.way)

    # ------------------------------------------------------------ list ops

    def list_length(self, head_id: int) -> int:
        """Length of the linked list starting at ``head_id``."""
        count = 0
        cur = head_id
        while cur != NULL_PTR:
            count += 1
            cur = self._entries[cur].next
        return count

    def iter_list(self, head_id: int):
        """Iterate the tag entries of a linked list."""
        cur = head_id
        while cur != NULL_PTR:
            entry = self._entries[cur]
            cur = entry.next
            yield entry
