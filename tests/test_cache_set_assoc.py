"""Unit tests for the conventional set-associative cache."""

import pytest

from repro.cache.set_assoc import SetAssociativeCache

KB = 1024


def make_cache(size=16 * KB, ways=4, block=64, policy="lru"):
    return SetAssociativeCache(size, ways, block, policy, name="t")


class TestGeometry:
    def test_set_count(self):
        cache = make_cache()
        assert cache.num_sets == 16 * KB // (4 * 64)

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 4, 64)

    def test_non_pow2_block_raises(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(16 * KB, 4, 48)

    def test_address_decomposition_roundtrip(self):
        cache = make_cache()
        for addr in (0, 64, 4096, 123456 & ~63):
            set_idx = cache.set_index(addr)
            tag = cache.addr_tag(addr)
            assert cache._compose_addr(set_idx, tag) == addr


class TestAccess:
    def test_first_access_misses(self):
        cache = make_cache()
        assert not cache.access(0x1000).hit

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1000).hit

    def test_same_block_different_offset_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1010).hit

    def test_write_sets_dirty_and_modified(self):
        cache = make_cache()
        result = cache.access(0x40, is_write=True)
        assert result.block.dirty

    def test_read_fill_is_clean_shared(self):
        cache = make_cache()
        result = cache.access(0x40)
        assert not result.block.dirty

    def test_no_fill_on_miss_option(self):
        cache = make_cache()
        cache.access(0x40, fill_on_miss=False)
        assert not cache.contains(0x40)

    def test_value_id_tracked_on_write(self):
        cache = make_cache()
        cache.access(0x40, is_write=True, value_id=7)
        assert cache.probe(0x40).value_id == 7

    def test_value_id_updated_on_write_hit(self):
        cache = make_cache()
        cache.access(0x40, is_write=True, value_id=7)
        cache.access(0x40, is_write=True, value_id=9)
        assert cache.probe(0x40).value_id == 9


class TestEviction:
    def test_eviction_on_full_set(self):
        cache = make_cache(size=4 * 64 * 4, ways=4)  # 4 sets
        stride = cache.num_sets * cache.block_size
        for i in range(4):
            cache.access(i * stride)  # same set
        result = cache.access(4 * stride)
        assert result.evicted_addr == 0

    def test_lru_victim_selection(self):
        cache = make_cache(size=4 * 64 * 4, ways=4)
        stride = cache.num_sets * cache.block_size
        for i in range(4):
            cache.access(i * stride)
        cache.access(0)  # refresh way holding addr 0
        result = cache.access(4 * stride)
        assert result.evicted_addr == stride

    def test_dirty_eviction_reports_writeback(self):
        cache = make_cache(size=4 * 64 * 2, ways=2)
        stride = cache.num_sets * cache.block_size
        cache.access(0, is_write=True)
        cache.access(stride)
        result = cache.access(2 * stride)
        assert result.writeback
        assert result.evicted_addr == 0

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size=4 * 64 * 2, ways=2)
        stride = cache.num_sets * cache.block_size
        cache.access(0)
        cache.access(stride)
        result = cache.access(2 * stride)
        assert not result.writeback

    def test_occupancy_bounded_by_capacity(self):
        cache = make_cache(size=2 * KB, ways=2)
        for i in range(1000):
            cache.access(i * 64)
        assert cache.occupancy() <= 2 * KB // 64


class TestInstall:
    def test_install_counts_no_demand_access(self):
        cache = make_cache()
        cache.install(0x40)
        assert cache.stats.accesses == 0
        assert cache.stats.misses == 0
        assert cache.stats.fills == 1

    def test_install_resident_raises(self):
        cache = make_cache()
        cache.install(0x40)
        with pytest.raises(ValueError):
            cache.install(0x40)

    def test_install_dirty(self):
        cache = make_cache()
        cache.install(0x40, dirty=True)
        assert cache.probe(0x40).dirty


class TestInvalidateFlush:
    def test_invalidate_removes_block(self):
        cache = make_cache()
        cache.access(0x40)
        block = cache.invalidate(0x40)
        assert block is not None
        assert not cache.contains(0x40)

    def test_invalidate_missing_returns_none(self):
        cache = make_cache()
        assert cache.invalidate(0x40) is None

    def test_invalidated_way_reused(self):
        cache = make_cache(size=4 * 64 * 2, ways=2)
        stride = cache.num_sets * cache.block_size
        cache.access(0)
        cache.access(stride)
        cache.invalidate(0)
        result = cache.access(2 * stride)
        assert result.evicted_addr is None  # reused the freed way

    def test_flush_returns_dirty_blocks(self):
        cache = make_cache()
        cache.access(0x40, is_write=True)
        cache.access(0x80)
        dirty = cache.flush()
        assert [addr for addr, _ in dirty] == [0x40]
        assert cache.occupancy() == 0


class TestStats:
    def test_hit_miss_counts(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2

    def test_hit_rate(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == 0.5

    def test_read_write_split(self):
        cache = make_cache()
        cache.access(0)
        cache.access(64, is_write=True)
        assert cache.stats.read_accesses == 1
        assert cache.stats.write_accesses == 1

    def test_resident_addrs_match_contents(self):
        cache = make_cache()
        addrs = [0, 64, 128, 8192]
        for addr in addrs:
            cache.access(addr)
        assert sorted(cache.resident_addrs()) == sorted(addrs)
