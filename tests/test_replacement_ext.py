"""Tests for the sharing-aware replacement extension (future work)."""

import numpy as np
import pytest

from repro.core.config import DoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache
from repro.core.maps import MapConfig
from repro.core.replacement_ext import make_sharing_aware
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap

RID = 0


def make_cache(sharing_aware=True, policy="lru"):
    """64 tags in 16 sets and a data array of one 4-way set."""
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = DoppelgangerConfig(
        tag_entries=64, tag_ways=4, data_fraction=1 / 16, data_ways=4,
        map=MapConfig(14), policy=policy,
    )
    cache = DoppelgangerCache(cfg, regions=regions)
    if sharing_aware:
        make_sharing_aware(cache)
    return cache


def block(value):
    return np.full(16, float(value))


class TestPolicyUnit:
    def test_least_shared_is_victim(self):
        cache = make_cache()
        addr = 0
        sharers = {}
        for value, count in ((10.0, 3), (20.0, 1), (30.0, 5), (40.0, 2)):
            sharers[value] = [addr + 64 * i for i in range(count)]
            for a in sharers[value]:
                cache.insert(a, RID, block(value))
            addr += 64 * count
        # The 10.0 entry is least recent; the single-tag 20.0 entry goes.
        outcome = cache.insert(addr, RID, block(90.0))
        assert outcome.back_invalidations == tuple(sharers[20.0])
        cache.check_invariants()

    def test_lru_breaks_ties(self):
        cache = make_cache()
        for i, value in enumerate((10.0, 20.0, 30.0, 40.0)):
            cache.insert(i * 64, RID, block(value))
        cache.lookup(0)  # the 10.0 entry becomes most recent
        outcome = cache.insert(4 * 64, RID, block(90.0))
        assert outcome.back_invalidations == (64,)

    @pytest.mark.parametrize("policy", ["fifo", "random"])
    def test_non_lru_data_array_raises(self, policy):
        with pytest.raises(ValueError, match="LRU data array"):
            make_cache(policy=policy)


class TestIntegration:
    def test_shared_entry_protected(self):
        """A 3-tag entry survives eviction that LRU would inflict."""
        cache = make_cache(sharing_aware=True)
        # One data entry shared by three tags, inserted FIRST (LRU
        # victim under plain LRU)...
        for i in range(3):
            cache.insert(i * 64, RID, block(42.0))
        # ...then three single-tag entries.
        for i, v in enumerate([10.0, 20.0, 30.0]):
            cache.insert((10 + i) * 64, RID, block(v))
        # The set is full; a new map must evict. Plain LRU would pick
        # the shared 42.0 entry; sharing-aware picks a singleton.
        cache.insert(0x800, RID, block(90.0))
        assert cache.lookup(0).hit  # the shared entry survived
        cache.check_invariants()

    def test_plain_lru_evicts_shared(self):
        cache = make_cache(sharing_aware=False)
        for i in range(3):
            cache.insert(i * 64, RID, block(42.0))
        for i, v in enumerate([10.0, 20.0, 30.0]):
            cache.insert((10 + i) * 64, RID, block(v))
        cache.insert(0x800, RID, block(90.0))
        assert not cache.lookup(0).hit  # LRU sacrificed the shared one

    def test_invariants_under_pressure(self, rng):
        cache = make_cache(sharing_aware=True)
        for i in range(120):
            addr = int(rng.integers(0, 64)) * 64
            if cache.tags.probe(addr) is None:
                cache.insert(addr, RID, rng.uniform(0, 100, 16))
            else:
                cache.writeback(addr, RID, rng.uniform(0, 100, 16))
        cache.check_invariants()
