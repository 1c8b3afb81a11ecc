"""Map-indexed MTag + data array of the Doppelgänger cache (Fig. 4).

The approximate data array is "nearly identical to a conventional data
cache (with separate tags and data subarrays), except it is indexed by
the map value as opposed to the physical address" (Sec. 3.1). The
lower portion of the map is the set index; the upper portion is the
*map tag* stored in the separate MTag array. Each entry also holds a
tag pointer to the head of the doubly-linked tag list sharing it.

For the unified design (Sec. 3.8), an entry carries a precise bit; a
precise entry's key is derived from the physical block address instead
of a value map, so precise blocks never alias.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.cache.replacement import make_policy
from repro.core.tag_array import NULL_PTR


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

    __slots__ = ("map_value", "mtag", "set_idx", "way", "head", "value_id", "precise")

    def __init__(self, map_value: int, mtag: int, set_idx: int, way: int):
        self.map_value = map_value
        self.mtag = mtag
        self.set_idx = set_idx
        self.way = way
        self.head = NULL_PTR  # tag pointer: head of the sharing tag list
        self.value_id = -1  # canonical block contents (value-table index)
        self.precise = False

    def __repr__(self) -> str:
        return (
            f"DataEntry(map={self.map_value}, set={self.set_idx}, "
            f"way={self.way}, head={self.head}, precise={self.precise})"
        )


class DataAllocation(NamedTuple):
    """Result of allocating a data entry.

    ``victim`` is the evicted entry (with its tag list still intact via
    ``head``) when the set was full; the caller must invalidate every
    tag on that list before reusing the slot — which has already been
    re-purposed for the new entry by the time this returns, so the
    victim object is detached.
    """

    entry: DataEntry
    victim: Optional[DataEntry]


class MTagDataArray:
    """Set-associative array indexed by map value.

    Keys are map values for approximate entries; the unified design
    additionally stores precise entries keyed by block address with a
    distinguishing precise bit (modelled here as separate key spaces).

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
        self._ways: List[List[Optional[DataEntry]]] = [
            [None] * ways for _ in range(self.num_sets)
        ]
        self._lookup: List[dict] = [dict() for _ in range(self.num_sets)]
        self._policies = [make_policy(policy, ways) for _ in range(self.num_sets)]
        self.occupied = 0

    # ---------------------------------------------------------- addressing

    def _key(self, map_value: int, precise: bool) -> tuple:
        return (precise, map_value)

    def set_index(self, map_value: int) -> int:
        """Set index of ``map_value`` (see :func:`map_set_index`)."""
        return map_set_index(map_value, self.num_sets)

    def map_tag(self, map_value: int) -> int:
        """Map tag: upper portion of the map."""
        return map_value // self.num_sets

    # ------------------------------------------------------------- queries

    def probe(self, map_value: int, precise: bool = False) -> Optional[DataEntry]:
        """Look up a map value without touching replacement state."""
        set_idx = map_set_index(map_value, self.num_sets)
        return self._lookup[set_idx].get(self._key(map_value, precise))

    def touch(self, entry: DataEntry) -> None:
        """Mark ``entry`` most-recently used."""
        self._policies[entry.set_idx].on_access(entry.way)

    def resident(self) -> List[DataEntry]:
        """All valid entries (test/diagnostic helper)."""
        return [e for row in self._ways for e in row if e is not None]

    # ----------------------------------------------------------- allocation

    def allocate(self, map_value: int, precise: bool = False) -> DataAllocation:
        """Allocate an entry for ``map_value``; evict LRU victim if full.

        Raises if the map value is already resident — callers must probe
        first (Sec. 3.3 reuses an existing similar block instead).
        """
        set_idx = map_set_index(map_value, self.num_sets)
        lookup = self._lookup[set_idx]
        key = self._key(map_value, precise)
        if key in lookup:
            raise ValueError(f"map {map_value} already resident in data array")

        row = self._ways[set_idx]
        victim = None
        way = next((w for w in range(self.ways) if row[w] is None), None)
        if way is None:
            way = self._policies[set_idx].victim()
            victim = row[way]
            del lookup[self._key(victim.map_value, victim.precise)]
            row[way] = None
            self.occupied -= 1

        entry = DataEntry(map_value, self.map_tag(map_value), set_idx, way)
        entry.precise = precise
        row[way] = entry
        lookup[key] = entry
        self._policies[set_idx].on_fill(way)
        self.occupied += 1
        return DataAllocation(entry=entry, victim=victim)

    def free(self, entry: DataEntry) -> None:
        """Release an entry (its last tag was evicted)."""
        row = self._ways[entry.set_idx]
        if row[entry.way] is not entry:
            raise ValueError(f"entry {entry!r} is not resident")
        row[entry.way] = None
        del self._lookup[entry.set_idx][self._key(entry.map_value, entry.precise)]
        self._policies[entry.set_idx].on_invalidate(entry.way)
        self.occupied -= 1
