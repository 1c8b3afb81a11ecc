"""The split-design Doppelgänger cache (Secs. 3.1-3.7).

This model implements the full protocol of the paper:

* **Lookups** (Sec. 3.2): address probes the tag array; a hit uses the
  tag's map value to index the MTag array (guaranteed hit) and the
  corresponding data way supplies the block — two sequential tag
  lookups per hit, which the stats record for the energy model.
* **Insertions** (Sec. 3.3): on a miss, once data arrives from memory,
  the block's map is computed (off the critical path). If a similar
  block exists (same map) the new tag joins the head of its
  doubly-linked tag list; otherwise a data entry is allocated, evicting
  a victim entry and *all* tags on its list (writebacks for dirty tags,
  back-invalidations for the inclusive LLC).
* **Writes** (Sec. 3.4): an L2 dirty writeback recomputes the map. Same
  map ⇒ just set the per-tag dirty bit. New map ⇒ move the tag to the
  list of the block with the new map (allocating one if needed); the
  written values are deliberately dropped when a similar block already
  exists.
* **Replacements** (Sec. 3.5): evicting a tag removes it from its list
  and frees the data entry if it was the last sharer; evicting a data
  entry invalidates every tag on its list. LRU in both arrays.
* **Coherence** (Sec. 3.6): state is per *tag*. A tag's dirty bit is
  its MSI state (MODIFIED when set, SHARED when clear), and the
  directory's sharer vectors live in the hierarchy
  (:class:`~repro.hierarchy.system.System`), one per block address and
  so one per tag; the hierarchy drives protocol actions through the
  returned outcome lists.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, NamedTuple, Optional

import numpy as np

from repro.core.config import DoppelgangerConfig
from repro.core.data_array import DataEntry, MTagDataArray
from repro.core.maps import MapRegistry
from repro.core.tag_array import TagArray, TagEntry


class LLCOutcome(NamedTuple):
    """Externally visible consequences of one LLC operation.

    Attributes:
        hit: whether the operation hit (lookups only).
        writebacks: block addresses whose dirty tags were evicted and
            must be written to memory.
        back_invalidations: block addresses whose tags were evicted;
            the inclusive hierarchy must invalidate private copies.
    """

    hit: bool
    writebacks: tuple = ()
    back_invalidations: tuple = ()


@dataclass
class DoppelgangerStats:
    """Event counters specific to the Doppelgänger protocol."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    tag_lookups: int = 0
    mtag_lookups: int = 0
    data_reads: int = 0
    data_writes: int = 0
    map_generations: int = 0
    insertions: int = 0
    shared_insertions: int = 0  # insertions that reused a similar block
    tag_evictions: int = 0
    data_evictions: int = 0
    tags_at_data_eviction: int = 0
    dirty_tags_evicted: int = 0
    clean_tags_evicted: int = 0
    writebacks: int = 0
    back_invalidations: int = 0
    write_same_map: int = 0
    write_moved: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over accesses (0.0 for an untouched cache)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def avg_tags_per_evicted_entry(self) -> float:
        """Average tag-list length at data eviction (paper reports 4.4)."""
        if not self.data_evictions:
            return 0.0
        return self.tags_at_data_eviction / self.data_evictions

    @property
    def dirty_eviction_fraction(self) -> float:
        """Fraction of evicted tags that were dirty (paper reports 5.1%)."""
        total = self.dirty_tags_evicted + self.clean_tags_evicted
        return self.dirty_tags_evicted / total if total else 0.0

    def as_dict(self) -> dict:
        """Counters as a plain dict (a run record's ``llc_stats``)."""
        return {f.name: getattr(self, f.name) for f in fields(DoppelgangerStats)}


class DoppelgangerCache:
    """Split-design Doppelgänger LLC for approximate data.

    Args:
        config: structural parameters (Table 1 defaults).
        regions: the workload's RegionMap; approximate regions are
            registered with the map registry (the paper's "range
            information passed to the hardware once at the beginning").
    """

    def __init__(self, config: Optional[DoppelgangerConfig] = None, regions=None):
        self.config = config or DoppelgangerConfig()
        self.tags = TagArray(
            self.config.tag_entries,
            self.config.tag_ways,
            self.config.block_size,
            self.config.policy,
        )
        self.data = MTagDataArray(
            self.config.data_entries, self.config.data_ways, self.config.policy
        )
        self.maps = MapRegistry(self.config.map)
        if regions is not None:
            self.maps.register_regions(regions)
        self.stats = DoppelgangerStats()
        self.block_size = self.config.block_size
        #: Optional :class:`~repro.obs.events.Tracer`; None (the
        #: default) keeps the protocol paths free of tracing cost.
        self.tracer = None
        # Simulation speedup only: a block's map depends solely on its
        # values, so memoize per (region, value-table id). The hardware
        # recomputes every time — stats.map_generations still counts
        # each computation for the energy model.
        self._map_memo: dict = {}

    # ------------------------------------------------------------- lookups

    def lookup(self, addr: int) -> LLCOutcome:
        """Step 1+2 of Sec. 3.2: probe tag array, then MTag/data.

        A lookup changes no values; value changes arrive via
        :meth:`writeback`.
        """
        self.stats.accesses += 1
        self.stats.tag_lookups += 1
        entry = self.tags.probe(addr)
        if entry is None:
            self.stats.misses += 1
            return LLCOutcome(hit=False)

        self.stats.hits += 1
        self.tags.touch(entry)
        # Step 2: locate the data block via the map value. One of the
        # MTags is guaranteed to match.
        data_entry = self.data.probe(entry.map_value, entry.precise)
        if data_entry is None:
            raise RuntimeError(
                f"invariant violated: tag {addr:#x} maps to {entry.map_value} "
                "but no data entry exists"
            )
        self.stats.mtag_lookups += 1
        self.stats.data_reads += 1
        self.data.touch(data_entry)
        return LLCOutcome(hit=True)

    def resident_value_id(self, addr: int) -> int:
        """Value-table id of the data the cache would return for ``addr``.

        Because similar blocks share one entry, this may differ from the
        block's precise contents — that substitution *is* the
        approximation error source.
        """
        entry = self.tags.probe(addr)
        if entry is None:
            return -1
        data_entry = self.data.probe(entry.map_value, entry.precise)
        return data_entry.value_id if data_entry is not None else -1

    def _map_for(self, region_id: int, values: np.ndarray, value_id: int) -> int:
        """Map value for a block, memoized by value-table id."""
        if value_id >= 0:
            key = (region_id, value_id)
            map_value = self._map_memo.get(key)
            if map_value is None:
                map_value = self.maps.compute(region_id, values)
                self._map_memo[key] = map_value
            return map_value
        return self.maps.compute(region_id, values)

    def seed_map_memo(self, hashed) -> int:
        """Pre-fill the map memo from a trace's hash step.

        ``hashed`` holds ``(region_id, value_ids, hash rows)`` groups
        of this cache's hashes over every pair a run can reach (the
        engines pass :func:`~repro.engine.precompute.map_hashes`), so
        only the config-dependent mapping step runs here, in one
        :meth:`~repro.core.maps.MapGenerator.compute_from_hashes` call
        per group instead of per cold miss. Purely a speedup: it is the
        second half of ``compute_batch``, existing entries are kept,
        and ``map_generations`` still counts every simulated hardware
        computation at its call sites. Returns the number of entries
        added.
        """
        memo = self._map_memo
        before = len(memo)
        for rid, vids, rows in hashed:
            gen = self.maps.generator(rid)
            if gen is None:
                continue
            for vid, map_value in zip(vids, gen.compute_from_hashes(rows).tolist()):
                memo.setdefault((rid, vid), map_value)
        return len(memo) - before

    # ----------------------------------------------------------- insertions

    def insert(
        self,
        addr: int,
        region_id: int,
        values: np.ndarray,
        value_id: int = -1,
        dirty: bool = False,
    ) -> LLCOutcome:
        """Sec. 3.3: install a block that arrived from memory.

        Computes the block's map (off the critical path in hardware),
        then either links the new tag onto an existing similar block's
        list or allocates a data entry, evicting a victim entry and its
        whole tag list. Raises ``ValueError`` (from the tag array) if
        ``addr`` is already resident.
        """
        writebacks: List[int] = []
        back_invals: List[int] = []
        entry = self._allocate_tag(addr, dirty, writebacks, back_invals)
        map_value = self._map_for(region_id, values, value_id)
        self.stats.map_generations += 1
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.emit("map_generation", addr=addr, region=region_id, map=map_value)
        self._attach(entry, map_value, value_id, writebacks, back_invals)
        return LLCOutcome(hit=False, writebacks=tuple(writebacks), back_invalidations=tuple(back_invals))

    def _allocate_tag(
        self, addr: int, dirty: bool, writebacks: List[int], back_invals: List[int]
    ) -> TagEntry:
        """Allocate the tag of an insertion: retire the set's victim,
        set the dirty bit and count the insertion."""
        allocation = self.tags.allocate(addr)
        if allocation.victim is not None:
            self._retire_tag(allocation.victim, writebacks, back_invals)
        entry = allocation.entry
        entry.dirty = dirty
        self.stats.insertions += 1
        return entry

    def _attach(
        self,
        entry: TagEntry,
        map_value: int,
        value_id: int,
        writebacks: List[int],
        back_invals: List[int],
    ) -> None:
        """Link ``entry`` to the data entry for ``map_value``.

        An approximate entry reuses an existing similar block when one
        exists. Otherwise, and always for a precise entry (whose map is
        its own block address), a data entry is allocated under the
        entry's precise bit, evicting a victim and its tag list.
        """
        entry.map_value = map_value
        self.stats.mtag_lookups += 1
        tr = self.tracer
        precise = entry.precise
        if not precise:
            data_entry = self.data.probe(map_value)
            if data_entry is not None:
                # Similar data block exists: insert at the head of its list.
                self.stats.shared_insertions += 1
                self._link_head(data_entry, entry)
                self.data.touch(data_entry)
                if tr is not None and tr.enabled:
                    tr.emit("tag_insert", addr=entry.addr, map=map_value, shared=True)
                return

        allocation = self.data.allocate(map_value, precise)
        if allocation.victim is not None:
            self._evict_data_entry(allocation.victim, writebacks, back_invals)
        data_entry = allocation.entry
        data_entry.value_id = value_id
        data_entry.head = entry
        entry.prev = None
        entry.next = None
        self.stats.data_writes += 1
        if not precise and tr is not None and tr.enabled:
            tr.emit("tag_insert", addr=entry.addr, map=map_value, shared=False)

    # --------------------------------------------------------------- writes

    def writeback(
        self, addr: int, region_id: int, values: np.ndarray, value_id: int = -1
    ) -> LLCOutcome:
        """Sec. 3.4: handle a dirty writeback from the L2.

        Recomputes the map with the written values. If the map is
        unchanged the write is absorbed (silent store or still-similar
        block) and only the dirty bit is set. If it changed, the tag
        moves to the list of the block with the new map; the written
        values are dropped when that block already exists.
        """
        entry = self.tags.probe(addr)
        if entry is None:
            # The tag was evicted while the block sat dirty in the L2
            # (its back-invalidation generated this writeback); treat it
            # as a fresh dirty insertion.
            return self.insert(addr, region_id, values, value_id, dirty=True)

        writebacks: List[int] = []
        back_invals: List[int] = []
        self.stats.tag_lookups += 1
        self.tags.touch(entry)

        new_map = self._map_for(region_id, values, value_id)
        self.stats.map_generations += 1
        entry.dirty = True

        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.emit("map_generation", addr=addr, region=region_id, map=new_map)

        if new_map == entry.map_value:
            self.stats.write_same_map += 1
            return LLCOutcome(hit=True)

        self.stats.write_moved += 1
        if tr is not None and tr.enabled:
            tr.emit("tag_move", addr=addr, old_map=entry.map_value, new_map=new_map)
        self._unlink(entry)
        self._attach(entry, new_map, value_id, writebacks, back_invals)
        return LLCOutcome(hit=True, writebacks=tuple(writebacks), back_invalidations=tuple(back_invals))

    # ---------------------------------------------------------- replacements

    def invalidate(self, addr: int) -> LLCOutcome:
        """Externally invalidate one block (testing / protocol support).

        The invalidated address is reported in ``back_invalidations``
        so the inclusive hierarchy purges private copies.
        """
        entry = self.tags.probe(addr)
        if entry is None:
            return LLCOutcome(hit=False)
        writebacks: List[int] = []
        back_invals: List[int] = []
        self.tags.invalidate(entry)
        self._retire_tag(entry, writebacks, back_invals)
        return LLCOutcome(hit=True, writebacks=tuple(writebacks), back_invalidations=tuple(back_invals))

    def _count_tag_eviction(
        self, entry: TagEntry, writebacks: List[int], back_invals: List[int]
    ) -> None:
        """Count one evicted tag: a writeback if it is dirty, and always
        a back-invalidation (the LLC is inclusive)."""
        self.stats.tag_evictions += 1
        if entry.dirty:
            writebacks.append(entry.addr)
            self.stats.writebacks += 1
            self.stats.dirty_tags_evicted += 1
        else:
            self.stats.clean_tags_evicted += 1
        back_invals.append(entry.addr)
        self.stats.back_invalidations += 1

    def _retire_tag(
        self, entry: TagEntry, writebacks: List[int], back_invals: List[int]
    ) -> None:
        """Finish evicting a tag already removed from the tag array."""
        self._count_tag_eviction(entry, writebacks, back_invals)
        self._unlink(entry)

    def _evict_data_entry(
        self, victim: DataEntry, writebacks: List[int], back_invals: List[int]
    ) -> None:
        """Sec. 3.5: evicting a data block evicts its whole tag list."""
        tags = list(self.tags.iter_list(victim.head))
        self.stats.data_evictions += 1
        self.stats.tags_at_data_eviction += len(tags)
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.emit(
                "data_eviction",
                map=victim.map_value,
                tags=len(tags),
                dirty=sum(1 for t in tags if t.dirty),
            )
        for tag in tags:
            self._count_tag_eviction(tag, writebacks, back_invals)
            self.tags.invalidate(tag)
            tag.prev = tag.next = None
        victim.head = None

    # ------------------------------------------------------------- list ops

    def _link_head(self, data_entry: DataEntry, entry: TagEntry) -> None:
        """Insert ``entry`` as the new head of ``data_entry``'s list."""
        old_head = data_entry.head
        entry.prev = None
        entry.next = old_head
        if old_head is not None:
            old_head.prev = entry
        data_entry.head = entry

    def _unlink(self, entry: TagEntry) -> None:
        """Remove ``entry`` from its tag list.

        When the list becomes empty (the tag was the data entry's only
        sharer), the data entry is freed and counted as a data eviction
        of one tag.
        """
        data_entry = self.data.probe(entry.map_value, entry.precise)
        prev_entry = entry.prev
        next_entry = entry.next
        if prev_entry is not None:
            prev_entry.next = next_entry
        elif data_entry is not None and data_entry.head is entry:
            data_entry.head = next_entry
        if next_entry is not None:
            next_entry.prev = prev_entry
        entry.prev = entry.next = None
        if data_entry is not None and data_entry.head is None:
            self.data.free(data_entry)
            self.stats.data_evictions += 1
            self.stats.tags_at_data_eviction += 1

    # ------------------------------------------------------------ inspection

    def tags_per_entry_histogram(self) -> dict:
        """Current distribution of tag-list lengths over data entries."""
        hist: dict = {}
        for data_entry in self.data.resident():
            length = self.tags.list_length(data_entry.head)
            hist[length] = hist.get(length, 0) + 1
        return hist

    def current_avg_tags_per_entry(self) -> float:
        """Current mean tags per resident data entry."""
        resident = self.data.resident()
        if not resident:
            return 0.0
        total = sum(self.tags.list_length(e.head) for e in resident)
        return total / len(resident)

    def check_invariants(self) -> None:
        """Raise AssertionError if internal structures are inconsistent.

        Used by tests and the property-based suite: every resident tag
        must be reachable from exactly one data entry's list, and every
        list member's map must equal its data entry's map.
        """
        seen = set()
        for data_entry in self.data.resident():
            prev = None
            for tag in self.tags.iter_list(data_entry.head):
                assert tag not in seen, "tag on two lists"
                seen.add(tag)
                assert tag.map_value == data_entry.map_value, "map mismatch on list"
                assert tag.prev is prev, "broken prev pointer"
                prev = tag
                assert self.tags.probe(tag.addr) is tag, "list tag not resident"
        resident_tags = set(self.tags.resident())
        assert seen == resident_tags, (
            f"orphan tags: {resident_tags - seen}; ghosts: {seen - resident_tags}"
        )
