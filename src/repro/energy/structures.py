"""Physical cache structures and their Table 3 bit-level accounting.

Every structure in the evaluated systems is described by a
:class:`CacheStructure`: its geometry, the width of one tag entry
broken into the same fields Table 3 lists (tag, coherence, full-map
vector, replacement, tag pointers, map, precise bit), and its data
entry width. Total sizes in KB follow directly and match the published
table bit-for-bit; area/latency/energy come from the calibrated
:class:`~repro.energy.cacti.CactiModel`.

Address-space assumptions follow Sec. 5.6: 32-bit physical addresses,
64-byte blocks, 16-way arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

ADDRESS_BITS = 32
BLOCK_BITS = 512
COHERENCE_BITS = 4
FULLMAP_BITS = 4
REPLACEMENT_BITS = 4


def _log2(n: int) -> int:
    if n <= 0 or n & (n - 1):
        raise ValueError(f"expected a positive power of two, got {n}")
    return n.bit_length() - 1


@dataclass(frozen=True)
class CacheStructure:
    """One physical array (tag or tag+data) of the LLC.

    Attributes:
        name: identifier used by the energy accounting.
        sets / ways: geometry.
        tag_entry_bits: width of one tag (or MTag) entry.
        data_entry_bits: width of one data entry (0 for tag-only
            arrays such as the Doppelgänger tag array).
        fields: named breakdown of the tag entry, as in Table 3.
    """

    name: str
    sets: int
    ways: int
    tag_entry_bits: int
    data_entry_bits: int = 0
    fields: Dict[str, int] = field(default_factory=dict)

    @property
    def entries(self) -> int:
        """Total entries."""
        return self.sets * self.ways

    @property
    def tag_bits_total(self) -> int:
        """Total tag-array bits."""
        return self.entries * self.tag_entry_bits

    @property
    def data_bits_total(self) -> int:
        """Total data-array bits."""
        return self.entries * self.data_entry_bits

    @property
    def total_kb(self) -> float:
        """Total storage in KB (tag + data), as Table 3 reports."""
        return (self.tag_bits_total + self.data_bits_total) / 8 / 1024

    @property
    def data_kb(self) -> float:
        """Data storage alone in KB."""
        return self.data_bits_total / 8 / 1024

    @property
    def has_data(self) -> bool:
        """Whether the structure includes a data array."""
        return self.data_entry_bits > 0


def _addr_tag_bits(sets: int, block_size: int = 64) -> int:
    """Address tag width for a conventional array."""
    return ADDRESS_BITS - _log2(sets) - _log2(block_size)


def conventional_structure(name: str, size_bytes: int, ways: int = 16) -> CacheStructure:
    """A conventional cache: tag + state + data per entry."""
    entries = size_bytes // 64
    sets = entries // ways
    tag = _addr_tag_bits(sets)
    fields = {
        "tag": tag,
        "coherence": COHERENCE_BITS,
        "full_map_vector": FULLMAP_BITS,
        "replacement": REPLACEMENT_BITS,
    }
    return CacheStructure(
        name=name,
        sets=sets,
        ways=ways,
        tag_entry_bits=sum(fields.values()),
        data_entry_bits=BLOCK_BITS,
        fields=fields,
    )


def baseline_llc_structure() -> CacheStructure:
    """The 2 MB baseline LLC (Table 3 column 1: 27-bit tag entries)."""
    return conventional_structure("baseline_llc", 2 * 1024 * 1024)


def precise_structure(size_bytes: int = 1024 * 1024) -> CacheStructure:
    """The split design's precise cache (28-bit tag entries at 1 MB)."""
    return conventional_structure("precise_1mb", size_bytes)


def l1_structure() -> CacheStructure:
    """Private L1 (16 KB, 4-way)."""
    return conventional_structure("l1", 16 * 1024, ways=4)


def l2_structure() -> CacheStructure:
    """Private L2 (128 KB, 8-way)."""
    return conventional_structure("l2", 128 * 1024, ways=8)


def doppelganger_structures(
    tag_entries: int = 16 * 1024,
    data_fraction: float = 0.25,
    ways: int = 16,
    map_bits: int = 14,
    precise_bytes: int = 1024 * 1024,
) -> Dict[str, CacheStructure]:
    """The three structures of the split design (Table 3 columns 2-4).

    Returns precise cache, Doppelgänger tag array and Doppelgänger
    MTag+data array, with the exact Table 3 field widths: the tag entry
    carries two tag pointers of ``log2(tag_entries)`` bits and a map of
    ``map_bits + ceil(map_bits/2)`` bits; the MTag entry carries the
    map tag, replacement bits and one tag pointer.
    """
    tag_sets = tag_entries // ways
    data_entries = int(tag_entries * data_fraction)
    data_sets = data_entries // ways
    ptr_bits = _log2(tag_entries)
    map_total = map_bits + math.ceil(map_bits / 2)

    tag_fields = {
        "tag": _addr_tag_bits(tag_sets),
        "coherence": COHERENCE_BITS,
        "full_map_vector": FULLMAP_BITS,
        "replacement": REPLACEMENT_BITS,
        "tag_pointers": 2 * ptr_bits,
        "map": map_total,
    }
    # Map tag: Table 3 charges the MTag with the full two-hash map
    # (2M bits: average + range) minus the data-array index bits —
    # 20 bits for the base 14-bit map and 256-set data array.
    map_tag_bits = max(2 * map_bits - _log2(data_sets), 1)
    mtag_fields = {
        "tag": map_tag_bits,
        "replacement": REPLACEMENT_BITS,
        "tag_pointers": ptr_bits,
    }
    return {
        "precise_1mb": precise_structure(precise_bytes),
        "dopp_tag": CacheStructure(
            name="dopp_tag",
            sets=tag_sets,
            ways=ways,
            tag_entry_bits=sum(tag_fields.values()),
            data_entry_bits=0,
            fields=tag_fields,
        ),
        "dopp_data": CacheStructure(
            name="dopp_data",
            sets=data_sets,
            ways=ways,
            tag_entry_bits=sum(mtag_fields.values()),
            data_entry_bits=BLOCK_BITS,
            fields=mtag_fields,
        ),
    }


def unidoppelganger_structures(
    tag_entries: int = 32 * 1024,
    data_fraction: float = 0.5,
    ways: int = 16,
    map_bits: int = 14,
) -> Dict[str, CacheStructure]:
    """The two structures of the unified design (Table 3 columns 5-6)."""
    tag_sets = tag_entries // ways
    data_entries = int(tag_entries * data_fraction)
    data_sets = data_entries // ways
    ptr_bits = _log2(tag_entries)
    map_total = map_bits + math.ceil(map_bits / 2)

    tag_fields = {
        "tag": _addr_tag_bits(tag_sets),
        "coherence": COHERENCE_BITS,
        "full_map_vector": FULLMAP_BITS,
        "replacement": REPLACEMENT_BITS,
        "tag_pointers": 2 * ptr_bits,
        "map": map_total,
        "precise": 1,
    }
    # Power-of-two guard: the 3/4 data array has a non-pow2 set count;
    # use the next lower power of two for index-bit accounting only.
    index_bits = max(data_sets.bit_length() - 1, 1)
    mtag_fields = {
        "tag": max(2 * map_bits - index_bits, 1),
        "replacement": REPLACEMENT_BITS,
        "tag_pointers": ptr_bits,
        "precise": 1,
    }
    return {
        "uni_tag": CacheStructure(
            name="uni_tag",
            sets=tag_sets,
            ways=ways,
            tag_entry_bits=sum(tag_fields.values()),
            data_entry_bits=0,
            fields=tag_fields,
        ),
        "uni_data": CacheStructure(
            name="uni_data",
            sets=data_sets,
            ways=ways,
            tag_entry_bits=sum(mtag_fields.values()),
            data_entry_bits=BLOCK_BITS,
            fields=mtag_fields,
        ),
    }


#: Published Table 3 values for validating the analytical model:
#: name -> (total KB, area mm^2, tag ns, data ns, tag pJ, data pJ).
TABLE3_PUBLISHED = {
    "baseline_llc": (2156.0, 4.12, 0.61, 1.27, 24.8, 667.4),
    "precise_1mb": (1080.0, 1.91, 0.45, 1.07, 13.5, 322.7),
    "dopp_tag": (154.0, 0.19, 0.48, None, 30.8, None),
    "dopp_data": (275.0, 0.47, 0.30, 0.67, 6.3, 80.3),
    "uni_tag": (316.0, 0.40, 0.74, None, 61.3, None),
    "uni_data": (1100.0, 1.95, 0.51, 1.07, 18.7, 322.7),
}

BASELINE_LLC = baseline_llc_structure()
