"""Map-indexed MTag + data array of the Doppelgänger cache (Fig. 4).

The approximate data array is "nearly identical to a conventional data
cache (with separate tags and data subarrays), except it is indexed by
the map value as opposed to the physical address" (Sec. 3.1). The
lower portion of the map is the set index; the upper portion is the
*map tag* stored in the separate MTag array. The model keys each set
on the whole map value, which holds the map tag. Each entry also holds
a tag pointer to the head of the doubly-linked tag list sharing it.

For the unified design (Sec. 3.8), an entry carries a precise bit; a
precise entry's key is derived from the physical block address instead
of a value map, so precise blocks never alias.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.cache.replacement import ReplacementSets
from repro.core.tag_array import TagEntry


def map_set_index(map_value: int, num_sets: int) -> int:
    """Set index of a map value: multiplicatively hashed map bits.

    The paper indexes with "the lower portion of the map", but for
    narrow integer data types (e.g. jpeg's 8-bit pixels under the
    omit-mapping rule) the low map bits *are* the block average, which
    concentrates heavily for smooth data; and integer ranges leave the
    low bin bits structured (multiples of four for canneal's grid
    coordinates), collapsing the effective set count. A Fibonacci-style
    multiplicative hash (Knuth's 2^32 / golden-ratio constant) — a
    standard index-hashing technique with no storage cost — spreads
    both; DESIGN.md records the deviation. The structural
    :class:`MTagDataArray` and the functional error model
    (:mod:`repro.core.functional`) both index through this function,
    so error and runtime describe the same cache.
    """
    return (((map_value * 2654435761) & 0xFFFFFFFF) >> 12) % num_sets


class DataEntry:
    """One MTag/data-array entry."""

    __slots__ = ("map_value", "set_idx", "head", "value_id", "precise")

    def __init__(self, map_value: int, set_idx: int, precise: bool = False):
        self.map_value = map_value
        self.set_idx = set_idx
        #: Tag pointer: head of the sharing tag list (None: empty).
        self.head: Optional[TagEntry] = None
        self.value_id = -1  # canonical block contents (value-table index)
        self.precise = precise

    def __repr__(self) -> str:
        head = None if self.head is None else hex(self.head.addr)
        return (
            f"DataEntry(map={self.map_value}, set={self.set_idx}, "
            f"head={head}, precise={self.precise})"
        )


class DataAllocation(NamedTuple):
    """Result of allocating a data entry.

    ``victim`` is the evicted entry (with its tag list still intact via
    ``head``) when the set was full; the caller must invalidate every
    tag on that list. The victim has already left the array by the
    time this returns.
    """

    entry: DataEntry
    victim: Optional[DataEntry]


class MTagDataArray:
    """Set-associative array indexed by map value.

    Keys are map values for approximate entries; the unified design
    additionally stores precise entries keyed by block address with a
    distinguishing precise bit, so each set is one ``(precise, map)
    -> DataEntry`` dict in replacement order
    (:class:`~repro.cache.replacement.ReplacementSets`).

    Args:
        entries: number of data blocks (4 K in the base 1/4 design).
        ways: associativity (16).
        policy: replacement policy name.
    """

    def __init__(self, entries: int, ways: int, policy: str = "lru"):
        if entries % ways:
            raise ValueError(f"{entries} entries not divisible into {ways}-way sets")
        self.num_entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self._repl = ReplacementSets(self.num_sets, ways, policy)
        self._sets = self._repl.sets

    # ---------------------------------------------------------- addressing

    def set_index(self, map_value: int) -> int:
        """Set index of ``map_value`` (see :func:`map_set_index`)."""
        return map_set_index(map_value, self.num_sets)

    # ------------------------------------------------------------- queries

    @property
    def occupied(self) -> int:
        """Resident entries."""
        return sum(map(len, self._sets))

    def probe(self, map_value: int, precise: bool = False) -> Optional[DataEntry]:
        """Look up a map value without touching replacement state."""
        return self._sets[map_set_index(map_value, self.num_sets)].get((precise, map_value))

    def touch(self, entry: DataEntry) -> None:
        """Mark ``entry`` most-recently used."""
        self._repl.touch(entry.set_idx, (entry.precise, entry.map_value))

    def resident(self) -> List[DataEntry]:
        """All valid entries (test/diagnostic helper)."""
        return [e for entries in self._sets for e in entries.values()]

    # ----------------------------------------------------------- allocation

    def allocate(self, map_value: int, precise: bool = False) -> DataAllocation:
        """Allocate an entry for ``map_value``; evict a victim if full.

        Raises if the map value is already resident — callers must probe
        first (Sec. 3.3 reuses an existing similar block instead).
        """
        set_idx = map_set_index(map_value, self.num_sets)
        key = (precise, map_value)
        if key in self._sets[set_idx]:
            raise ValueError(f"map {map_value} already resident in data array")
        entry = DataEntry(map_value, set_idx, precise)
        evicted = self._repl.insert(set_idx, key, entry)
        return DataAllocation(entry=entry, victim=None if evicted is None else evicted[1])

    def free(self, entry: DataEntry) -> None:
        """Release an entry (its last tag was evicted)."""
        key = (entry.precise, entry.map_value)
        if self._sets[entry.set_idx].get(key) is not entry:
            raise ValueError(f"entry {entry!r} is not resident")
        self._repl.remove(entry.set_idx, key)
