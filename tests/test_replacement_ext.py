"""Tests for the sharing-aware replacement extension (future work)."""

import numpy as np

from repro.core.config import DoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache
from repro.core.maps import MapConfig
from repro.core.replacement_ext import TagCountAwarePolicy, make_sharing_aware
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap

RID = 0


def make_cache(sharing_aware=True):
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = DoppelgangerConfig(
        tag_entries=64, tag_ways=4, data_fraction=1 / 16, data_ways=4,
        map=MapConfig(14),
    )
    cache = DoppelgangerCache(cfg, regions=regions)
    if sharing_aware:
        make_sharing_aware(cache)
    return cache


def block(value):
    return np.full(16, float(value))


class TestPolicyUnit:
    def test_least_shared_is_victim(self):
        counts = {0: 3, 1: 1, 2: 5, 3: 2}
        policy = TagCountAwarePolicy(4, lambda w: counts[w])
        for way in range(4):
            policy.on_fill(way)
        assert policy.victim() == 1

    def test_lru_breaks_ties(self):
        policy = TagCountAwarePolicy(4, lambda w: 1)
        for way in (0, 1, 2, 3):
            policy.on_fill(way)
        policy.on_access(0)
        assert policy.victim() == 1


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
