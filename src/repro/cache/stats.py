"""Statistics collected by every cache model.

One :class:`CacheStats` instance is attached to each cache structure.
Counters are plain integers; derived ratios are provided as properties so
that harness code never divides by zero by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class CacheStats:
    """Event counters for a single cache structure.

    Attributes follow conventional simulator naming. ``tag_lookups`` is
    tracked apart from the data-array counters ``data_reads`` and
    ``data_writes`` because the energy model (Table 3) charges a tag
    lookup and a data access (``data_reads + data_writes``) differently,
    and the Doppelgänger lookup performs *two* tag lookups (tag array
    then MTag array) per hit.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    evictions: int = 0
    writebacks: int = 0
    fills: int = 0
    invalidations: int = 0
    back_invalidations: int = 0
    tag_lookups: int = 0
    data_reads: int = 0
    data_writes: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses; 0.0 when the cache was never touched."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Misses over accesses; 0.0 when the cache was never touched."""
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new stats object with counters summed element-wise."""
        merged = CacheStats()
        for f in fields(CacheStats):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(CacheStats):
            setattr(self, f.name, 0)

    def as_dict(self) -> dict:
        """Counters as a plain dict (for reporting)."""
        return {f.name: getattr(self, f.name) for f in fields(CacheStats)}
