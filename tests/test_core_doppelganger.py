"""Protocol tests for the Doppelgänger cache (Secs. 3.2-3.7)."""

import numpy as np
import pytest

from repro.core.config import DoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache
from repro.core.maps import MapConfig
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap

RID = 0


def make_cache(tag_entries=64, tag_ways=4, data_fraction=0.25, bits=14):
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = DoppelgangerConfig(
        tag_entries=tag_entries,
        tag_ways=tag_ways,
        data_fraction=data_fraction,
        data_ways=4,
        map=MapConfig(bits),
    )
    return DoppelgangerCache(cfg, regions=regions)


def block(value, spread=0.0, elems=16):
    if spread:
        return np.linspace(value - spread, value + spread, elems)
    return np.full(elems, float(value))


class TestLookup:
    def test_miss_on_empty(self):
        cache = make_cache()
        assert not cache.lookup(0x40).hit

    def test_hit_after_insert(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10))
        assert cache.lookup(0x40).hit

    def test_lookup_counts_two_tag_lookups(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10))
        before_mtag = cache.stats.mtag_lookups
        cache.lookup(0x40)
        assert cache.stats.mtag_lookups == before_mtag + 1


class TestInsertSharing:
    def test_similar_blocks_share_data_entry(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(50.0))
        cache.insert(0x80, RID, block(50.0001))
        assert cache.data.occupied == 1
        assert cache.stats.shared_insertions == 1

    def test_dissimilar_blocks_get_own_entries(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10.0))
        cache.insert(0x80, RID, block(90.0))
        assert cache.data.occupied == 2

    def test_tag_list_grows_at_head(self):
        cache = make_cache()
        for i in range(3):
            cache.insert(0x40 * (i + 1), RID, block(50.0))
        data_entry = cache.data.resident()[0]
        addrs = [t.addr for t in cache.tags.iter_list(data_entry.head)]
        assert addrs == [0xC0, 0x80, 0x40]  # newest first

    def test_insert_resident_raises(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(1))
        with pytest.raises(ValueError):
            cache.insert(0x40, RID, block(1))

    def test_canonical_value_preserved(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(50.0), value_id=11)
        cache.insert(0x80, RID, block(50.0001), value_id=22)
        # Both addresses resolve to the first block's values.
        assert cache.resident_value_id(0x40) == 11
        assert cache.resident_value_id(0x80) == 11

    def test_average_and_range_both_matter(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(50.0))
        cache.insert(0x80, RID, block(50.0, spread=30.0))  # same avg, wide range
        assert cache.data.occupied == 2

    def test_invariants_after_inserts(self, rng=np.random.default_rng(3)):
        cache = make_cache()
        for i in range(40):
            cache.insert(i * 64, RID, rng.uniform(0, 100, 16))
        cache.check_invariants()


class TestWrites:
    def test_same_map_write_sets_dirty_only(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(50.0))
        outcome = cache.writeback(0x40, RID, block(50.0001))
        assert outcome.hit
        assert cache.tags.probe(0x40).dirty
        assert cache.data.occupied == 1
        assert cache.stats.write_same_map == 1

    def test_new_map_moves_tag_to_existing_block(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10.0), value_id=1)
        cache.insert(0x80, RID, block(90.0), value_id=2)
        cache.writeback(0x40, RID, block(90.0))
        assert cache.stats.write_moved == 1
        # Old entry freed (0x40 was its only tag); both tags now share.
        assert cache.data.occupied == 1
        assert cache.resident_value_id(0x40) == 2  # modifications dropped
        cache.check_invariants()

    def test_new_map_allocates_when_absent(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10.0))
        cache.writeback(0x40, RID, block(90.0), value_id=5)
        assert cache.data.occupied == 1
        assert cache.resident_value_id(0x40) == 5
        cache.check_invariants()

    def test_move_from_shared_list_keeps_entry(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10.0))
        cache.insert(0x80, RID, block(10.0))
        cache.writeback(0x80, RID, block(90.0))
        assert cache.data.occupied == 2  # old entry still has 0x40
        assert cache.lookup(0x40).hit
        cache.check_invariants()

    def test_writeback_nonresident_inserts_dirty(self):
        cache = make_cache()
        outcome = cache.writeback(0x40, RID, block(10.0))
        assert not outcome.hit
        assert cache.tags.probe(0x40).dirty

    def test_dirty_tracked_per_tag_not_per_data(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(50.0))
        cache.insert(0x80, RID, block(50.0))
        cache.writeback(0x40, RID, block(50.0))
        assert cache.tags.probe(0x40).dirty
        assert not cache.tags.probe(0x80).dirty


class TestReplacements:
    def test_last_tag_eviction_frees_data(self):
        cache = make_cache(tag_entries=16, tag_ways=4)
        stride = cache.tags.num_sets * 64
        for i in range(4):
            cache.insert(i * stride, RID, block(10.0 + 20 * i))
        occupied_before = cache.data.occupied
        cache.insert(4 * stride, RID, block(95.0))
        # Victim tag 0 was the sole tag of its entry -> entry freed.
        assert cache.data.occupied == occupied_before  # one freed, one added
        cache.check_invariants()

    def test_sibling_tag_eviction_keeps_data(self):
        cache = make_cache(tag_entries=16, tag_ways=4)
        stride = cache.tags.num_sets * 64
        # Two tags in the same tag set share one data entry.
        cache.insert(0, RID, block(50.0))
        cache.insert(stride, RID, block(50.0))
        cache.insert(2 * stride, RID, block(10.0))
        cache.insert(3 * stride, RID, block(90.0))
        cache.insert(4 * stride, RID, block(70.0))  # evicts tag 0
        assert cache.lookup(stride).hit  # sibling survives
        cache.check_invariants()

    def test_data_eviction_invalidates_all_tags(self):
        # Data array with a single set: 4 entries, 4 ways.
        cache = make_cache(tag_entries=64, tag_ways=4, data_fraction=1 / 16)
        assert cache.data.num_sets == 1
        cache.insert(0x0, RID, block(10.0))
        cache.insert(0x400, RID, block(10.0))  # shares the 10.0 entry
        for i, v in enumerate([30.0, 50.0, 70.0], start=1):
            cache.insert(i * 64, RID, block(v))
        # The 10.0 entry is now LRU and carries two tags; a fifth
        # distinct map evicts it and must invalidate both.
        outcome = cache.insert(0x800, RID, block(90.0))
        assert set(outcome.back_invalidations) == {0x0, 0x400}
        assert not cache.lookup(0x0).hit
        assert not cache.lookup(0x400).hit
        cache.check_invariants()

    def test_data_eviction_writes_back_dirty_tags(self):
        cache = make_cache(tag_entries=64, tag_ways=4, data_fraction=1 / 16)
        for i, v in enumerate([10.0, 30.0, 50.0, 70.0]):
            cache.insert(i * 64, RID, block(v), dirty=(i == 0))
        outcome = cache.insert(0x800, RID, block(90.0))
        assert 0 in outcome.writebacks
        assert cache.stats.dirty_tags_evicted == 1

    def test_invalidate_resident(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10.0))
        outcome = cache.invalidate(0x40)
        assert outcome.hit
        assert not cache.lookup(0x40).hit
        assert cache.data.occupied == 0

    def test_invalidate_missing(self):
        cache = make_cache()
        assert not cache.invalidate(0x40).hit


class TestStatistics:
    def test_tags_per_entry_histogram(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(50.0))
        cache.insert(0x80, RID, block(50.0))
        cache.insert(0xC0, RID, block(10.0))
        hist = cache.tags_per_entry_histogram()
        assert hist == {2: 1, 1: 1}
        assert cache.current_avg_tags_per_entry() == pytest.approx(1.5)

    def test_dirty_eviction_fraction(self):
        cache = make_cache(tag_entries=64, tag_ways=4, data_fraction=1 / 16)
        for i, v in enumerate([10.0, 30.0, 50.0, 70.0]):
            cache.insert(i * 64, RID, block(v), dirty=(i % 2 == 0))
        cache.insert(0x800, RID, block(90.0))  # evicts one entry
        frac = cache.stats.dirty_eviction_fraction
        assert 0.0 <= frac <= 1.0

    def test_map_generation_count(self):
        cache = make_cache()
        cache.insert(0x40, RID, block(10.0))
        cache.writeback(0x40, RID, block(11.0))
        assert cache.stats.map_generations == 2
