"""Unit tests for the conventional set-associative cache.

A resident block's state is one integer, ``(value_id << 1) | dirty``.
"""

import random
from dataclasses import dataclass

import pytest

from repro.cache.set_assoc import AccessResult, SetAssociativeCache
from repro.cache.stats import CacheStats

from way_policies import make_policy

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

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_cache(policy="mru")

    def test_address_decomposition_roundtrip(self):
        """Sets are keyed by block address: a filled address comes back
        as itself from ``probe`` and ``resident_addrs``."""
        cache = make_cache()
        addrs = (0, 64, 4096, 123456 & ~63)
        for addr in addrs:
            assert cache.set_index(addr) == (addr // 64) % cache.num_sets
            cache.access(addr + 5)
            assert cache.probe(addr) == -2
            assert cache.probe(addr + 63) == -2
        assert sorted(cache.resident_addrs()) == sorted(addrs)


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
        cache.access(0x40, is_write=True)
        assert cache.probe(0x40) & 1

    def test_read_fill_is_clean_shared(self):
        cache = make_cache()
        cache.access(0x40)
        assert not cache.probe(0x40) & 1

    def test_no_fill_on_miss_option(self):
        cache = make_cache()
        cache.access(0x40, fill_on_miss=False)
        assert not cache.contains(0x40)

    def test_value_id_tracked_on_write(self):
        cache = make_cache()
        cache.access(0x40, is_write=True, value_id=7)
        assert cache.probe(0x40) >> 1 == 7

    def test_value_id_updated_on_write_hit(self):
        cache = make_cache()
        cache.access(0x40, is_write=True, value_id=7)
        cache.access(0x40, is_write=True, value_id=9)
        assert cache.probe(0x40) >> 1 == 9

    def test_untracked_value_id_round_trips(self):
        """Value id -1 packs to -2 clean and -1 dirty, and a store
        without a value keeps the block's own."""
        cache = make_cache(size=4 * 64 * 2, ways=2)
        stride = cache.num_sets * cache.block_size
        a, b = 0x40, 0x40 + stride  # one set
        cache.access(a)  # an untracked clean fill
        assert cache.probe(a) == -2
        assert cache.probe(a) >> 1 == -1
        assert not cache.probe(a) & 1
        cache.access(a, is_write=True)  # an untracked store hit
        assert cache.probe(a) == -1
        cache.access(b, value_id=5)  # a tracked clean fill
        cache.access(b, is_write=True, value_id=-1)
        assert cache.probe(b) >> 1 == 5
        assert cache.probe(b) & 1
        # a is the LRU block: it leaves as a writeback with value -1.
        result = cache.access(a + 2 * stride)
        assert result == AccessResult(False, a, -1, True)


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
        assert cache.probe(0x40) & 1


class TestInvalidateFlush:
    def test_invalidate_removes_block(self):
        cache = make_cache()
        cache.access(0x40)
        state = cache.invalidate(0x40)
        assert state is not None
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


@dataclass
class _Block:
    """The way model's own record of one resident block."""

    tag: int
    dirty: bool
    value_id: int

    @property
    def state(self):
        """The cache's packed form, ``(value_id << 1) | dirty``."""
        return (self.value_id << 1) | self.dirty


class _WayModel:
    """A way-based reference for the cache's replacement order.

    Each set keeps a ``way -> _Block`` map, a ``tag -> way`` map and
    a replacement policy object from :func:`make_policy` (so a random
    set draws from the same seeded generator as the cache's). A fill
    takes the lowest free way; a full set evicts the way the policy
    names. Hits, fills and evictions count into a :class:`CacheStats`
    exactly as :meth:`SetAssociativeCache.access` documents.
    """

    def __init__(self, size, ways, block, policy):
        self.ways = ways
        self.block = block
        self.num_sets = size // (ways * block)
        self.blocks = [{} for _ in range(self.num_sets)]
        self.tag_way = [{} for _ in range(self.num_sets)]
        self.policies = [make_policy(policy, ways) for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def _locate(self, addr):
        block_no = addr // self.block
        return block_no % self.num_sets, block_no // self.num_sets

    def access(self, addr, is_write, value_id, fill_on_miss):
        stats = self.stats
        stats.accesses += 1
        stats.tag_lookups += 1
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1
        set_idx, tag = self._locate(addr)
        way = self.tag_way[set_idx].get(tag)
        if way is not None:
            block = self.blocks[set_idx][way]
            stats.hits += 1
            if is_write:
                block.dirty = True
                stats.data_writes += 1
                if value_id >= 0:
                    block.value_id = value_id
            else:
                stats.data_reads += 1
            self.policies[set_idx].on_access(way)
            return AccessResult(hit=True)
        stats.misses += 1
        if not fill_on_miss:
            return AccessResult(hit=False)
        return self.fill(addr, is_write, value_id)

    def fill(self, addr, dirty, value_id):
        stats = self.stats
        set_idx, tag = self._locate(addr)
        ways = self.blocks[set_idx]
        free = [way for way in range(self.ways) if way not in ways]
        victim = None
        if free:
            way = free[0]
        else:
            way = self.policies[set_idx].victim()
            victim = ways[way]
            del self.tag_way[set_idx][victim.tag]
            stats.evictions += 1
            stats.writebacks += victim.dirty
        block = _Block(tag, dirty=dirty, value_id=value_id)
        ways[way] = block
        self.tag_way[set_idx][tag] = way
        self.policies[set_idx].on_fill(way)
        stats.fills += 1
        if dirty:
            stats.data_writes += 1
        else:
            stats.data_reads += 1
        if victim is None:
            return AccessResult(hit=False)
        victim_addr = (victim.tag * self.num_sets + set_idx) * self.block
        return AccessResult(False, victim_addr, victim.value_id, victim.dirty)

    def resident(self, addr):
        set_idx, tag = self._locate(addr)
        return tag in self.tag_way[set_idx]

    def invalidate(self, addr):
        set_idx, tag = self._locate(addr)
        way = self.tag_way[set_idx].pop(tag, None)
        if way is None:
            return None
        self.policies[set_idx].on_invalidate(way)
        self.stats.invalidations += 1
        return self.blocks[set_idx].pop(way).state

    def contents(self):
        """``addr -> state`` of every resident block."""
        return {
            (block.tag * self.num_sets + set_idx) * self.block: block.state
            for set_idx, ways in enumerate(self.blocks)
            for block in ways.values()
        }


#: (size, ways) of 64 B-block caches: 4 sets of 4 ways, 4 sets of 2
#: ways, and one fully associative set of 8.
GEOMETRIES = [(1024, 4), (512, 2), (512, 8)]


def _run_against_model(policy, size, ways, seed, n_ops=3000):
    rng = random.Random(seed)
    cache = SetAssociativeCache(size, ways, 64, policy, name="t")
    model = _WayModel(size, ways, 64, policy)
    # Three times the capacity in distinct blocks, so sets keep evicting.
    n_blocks = 3 * size // 64
    for _ in range(n_ops):
        addr = rng.randrange(n_blocks) * 64 + rng.randrange(64)
        op = rng.random()
        is_write = rng.random() < 0.5
        value_id = rng.randrange(-1, 40)
        if op < 0.7:  # a demand read or write that fills on a miss
            fill = True
        elif op < 0.8:  # a probe that does not fill
            fill = False
        elif op < 0.9:
            if model.resident(addr):
                with pytest.raises(ValueError):
                    cache.install(addr, dirty=is_write, value_id=value_id)
            else:
                assert (cache.install(addr, dirty=is_write, value_id=value_id)
                        == model.fill(addr, is_write, value_id))
            continue
        else:
            assert cache.invalidate(addr) == model.invalidate(addr)
            continue
        assert (cache.access(addr, is_write, value_id, fill_on_miss=fill)
                == model.access(addr, is_write, value_id, fill))
    want = model.contents()
    assert sorted(cache.resident_addrs()) == sorted(want)
    assert {addr: cache.probe(addr) for addr in want} == want
    assert cache.occupancy() == len(want)
    assert cache.stats == model.stats
    assert sorted(cache.flush()) == sorted(
        (addr, state) for addr, state in want.items() if state & 1
    )


@pytest.mark.parametrize("size,ways", GEOMETRIES,
                         ids=[f"{s}B-{w}way" for s, w in GEOMETRIES])
@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
def test_replacement_order_matches_way_model(policy, size, ways):
    """Every hit, victim address, victim value id, writeback and
    invalidated state of seeded mixed sequences equals the way-based
    model's, and so do the resident states and the counters at the
    end."""
    for seed in range(10):
        _run_against_model(policy, size, ways, seed)
