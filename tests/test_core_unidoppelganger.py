"""Protocol tests for the unified Doppelgänger cache (Sec. 3.8)."""

import numpy as np
import pytest

from repro.core.config import UniDoppelgangerConfig
from repro.core.maps import MapConfig
from repro.core.unidoppelganger import UniDoppelgangerCache
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap

RID = 0


def make_cache(tag_entries=64, tag_ways=4, data_fraction=0.5):
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = UniDoppelgangerConfig(
        tag_entries=tag_entries,
        tag_ways=tag_ways,
        data_fraction=data_fraction,
        data_ways=4,
        map=MapConfig(14),
    )
    return UniDoppelgangerCache(cfg, regions=regions)


def block(value, elems=16):
    return np.full(elems, float(value))


class TestPrecisePath:
    def test_precise_insert_and_hit(self):
        cache = make_cache()
        cache.insert_block(0x40, approx=False, value_id=3)
        assert cache.lookup(0x40).hit

    def test_precise_blocks_never_share(self):
        cache = make_cache()
        cache.insert_block(0x40, approx=False)
        cache.insert_block(0x80, approx=False)
        assert cache.precise_occupancy() == 2

    def test_precise_tag_pointers_null(self):
        cache = make_cache()
        cache.insert_block(0x40, approx=False)
        entry = cache.tags.probe(0x40)
        assert entry.precise
        assert entry.prev is None and entry.next is None

    def test_precise_writeback_updates_value(self):
        cache = make_cache()
        cache.insert_block(0x40, approx=False, value_id=3)
        cache.writeback_block(0x40, approx=False, value_id=8)
        assert cache.resident_value_id(0x40) == 8

    def test_precise_writeback_nonresident_inserts(self):
        cache = make_cache()
        outcome = cache.writeback_block(0x40, approx=False, value_id=8)
        assert not outcome.hit
        assert cache.tags.probe(0x40).dirty

    def test_precise_same_low_bits_no_alias(self):
        cache = make_cache()
        a = 0x40
        b = 0x40 + cache.data.num_sets * 64  # same data set index
        cache.insert_block(a, approx=False)
        cache.insert_block(b, approx=False)
        assert cache.lookup(a).hit
        assert cache.lookup(b).hit
        assert cache.precise_occupancy() == 2


class TestMixedPaths:
    def test_precise_and_approx_coexist(self):
        cache = make_cache()
        cache.insert_block(0x40, approx=False)
        cache.insert_block(0x80, approx=True, region_id=RID, values=block(50.0))
        cache.insert_block(0xC0, approx=True, region_id=RID, values=block(50.0))
        assert cache.precise_occupancy() == 1
        assert cache.approx_occupancy() == 1
        cache.check_invariants()

    def test_approx_sharing_still_works(self):
        cache = make_cache()
        cache.insert_block(0x80, approx=True, region_id=RID, values=block(50.0))
        cache.insert_block(0xC0, approx=True, region_id=RID, values=block(50.0))
        assert cache.approx_occupancy() == 1
        assert cache.stats.shared_insertions == 1

    def test_approx_insert_requires_values(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.insert_block(0x80, approx=True, region_id=RID)

    def test_approx_writeback_requires_values(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.writeback_block(0x80, approx=True, region_id=RID)

    def test_data_eviction_handles_precise_victims(self):
        # One data set of 4 ways: fill with precise entries.
        cache = make_cache(tag_entries=64, tag_ways=4, data_fraction=1 / 16)
        assert cache.data.num_sets == 1
        stride = cache.data.num_sets * 64
        addrs = [i * 64 for i in range(4)]
        for addr in addrs:
            cache.insert_block(addr, approx=False)
        outcome = cache.insert_block(0x1000, approx=False)
        assert len(outcome.back_invalidations) == 1
        assert cache.precise_occupancy() == 4
        cache.check_invariants()

    def test_mixed_eviction_under_pressure(self, rng=np.random.default_rng(5)):
        cache = make_cache(tag_entries=32, tag_ways=4, data_fraction=0.25)
        for i in range(60):
            addr = int(rng.integers(0, 256)) * 64
            approx = bool(rng.random() < 0.5)
            if cache.tags.probe(addr) is not None:
                continue
            if approx:
                cache.insert_block(
                    addr, approx=True, region_id=RID,
                    values=rng.uniform(0, 100, 16),
                )
            else:
                cache.insert_block(addr, approx=False)
        cache.check_invariants()


class TestKindFlip:
    """An address reannotated between precise and approximate must not
    cross-link the two key spaces."""

    def test_approx_writeback_to_precise_resident(self):
        cache = make_cache()
        cache.insert_block(0x40, approx=False, value_id=1)
        outcome = cache.writeback_block(
            0x40, approx=True, region_id=RID, values=block(50.0), value_id=2
        )
        assert not outcome.hit  # reinserted under the new kind
        entry = cache.tags.probe(0x40)
        assert entry is not None and not entry.precise
        cache.check_invariants()

    def test_precise_writeback_to_approx_resident(self):
        cache = make_cache()
        cache.insert_block(0x40, approx=True, region_id=RID, values=block(50.0))
        cache.writeback_block(0x40, approx=False, value_id=3)
        entry = cache.tags.probe(0x40)
        assert entry is not None and entry.precise
        cache.check_invariants()
