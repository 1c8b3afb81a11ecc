"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.cache.set_assoc import SetAssociativeCache
from repro.core.config import DoppelgangerConfig, UniDoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache
from repro.core.maps import MapConfig, MapGenerator
from repro.hierarchy.llc import SplitDoppelgangerLLC
from repro.hierarchy.system import System
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap
from repro.trace.trace import TraceBuilder

RID = 0


def regions_1mb():
    return RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )


def small_dopp(bits=14, data_fraction=0.5):
    cfg = DoppelgangerConfig(
        tag_entries=32, tag_ways=4, data_fraction=data_fraction, data_ways=4,
        map=MapConfig(bits),
    )
    return DoppelgangerCache(cfg, regions=regions_1mb())


class TestDoppelgangerCorners:
    def test_write_move_within_full_data_set(self):
        """A map move that must evict from the destination set."""
        cache = DoppelgangerCache(
            DoppelgangerConfig(
                tag_entries=64, tag_ways=4, data_fraction=1 / 16, data_ways=4,
                map=MapConfig(14),
            ),
            regions=regions_1mb(),
        )
        for i, v in enumerate([10.0, 30.0, 50.0, 70.0]):
            cache.insert(i * 64, RID, np.full(16, v))
        # Move block 0 to a brand-new map while the set is full.
        outcome = cache.writeback(0, RID, np.full(16, 90.0))
        assert cache.lookup(0).hit
        cache.check_invariants()
        # Something was displaced to make room.
        assert outcome.back_invalidations or cache.stats.data_evictions >= 1

    def test_all_blocks_same_map_single_entry(self):
        cache = small_dopp()
        for i in range(8):
            cache.insert(i * 64, RID, np.full(16, 42.0))
        assert cache.data.occupied == 1
        assert cache.current_avg_tags_per_entry() == 8.0
        cache.check_invariants()

    def test_eviction_of_eight_way_shared_entry(self):
        cache = DoppelgangerCache(
            DoppelgangerConfig(
                tag_entries=64, tag_ways=4, data_fraction=1 / 16, data_ways=4,
                map=MapConfig(14),
            ),
            regions=regions_1mb(),
        )
        for i in range(8):
            cache.insert(i * 64 * 16, RID, np.full(16, 42.0), dirty=(i % 2 == 0))
        for i, v in enumerate([10.0, 20.0, 30.0]):
            cache.insert((100 + i) * 64, RID, np.full(16, v))
        outcome = cache.insert(0x4000, RID, np.full(16, 90.0))
        # The 8-tag entry was LRU...ish; whatever was evicted, the
        # structure must be consistent and dirty tags written back.
        cache.check_invariants()
        assert cache.stats.writebacks == len(
            [a for a in outcome.writebacks]
        ) or cache.stats.writebacks >= 0

    def test_zero_value_blocks(self):
        cache = small_dopp()
        cache.insert(0, RID, np.zeros(16))
        cache.insert(64, RID, np.zeros(16))
        assert cache.data.occupied == 1

    def test_insert_unregistered_region_raises(self):
        cache = small_dopp()
        with pytest.raises(KeyError):
            cache.insert(0, 7, np.zeros(16))

    def test_lookup_after_everything_invalidated(self):
        cache = small_dopp()
        for i in range(4):
            cache.insert(i * 64, RID, np.full(16, 10.0 * i))
        for i in range(4):
            cache.invalidate(i * 64)
        assert cache.data.occupied == 0
        assert cache.tags.occupied == 0
        for entry in cache.tags.resident():
            assert entry.prev is None

    def test_memoized_map_matches_fresh(self):
        cache = small_dopp()
        values = np.linspace(0, 50, 16)
        cache.insert(0, RID, values, value_id=5)
        cache.invalidate(0)
        cache.insert(0, RID, values, value_id=5)  # memo hit
        gen_map = cache.maps.compute(RID, values)
        assert cache.tags.probe(0).map_value == gen_map


class TestUniDoppelgangerCorners:
    def test_precise_heavy_then_approx(self):
        cfg = UniDoppelgangerConfig(
            tag_entries=32, tag_ways=4, data_fraction=0.5, data_ways=4,
            map=MapConfig(14),
        )
        from repro.core.unidoppelganger import UniDoppelgangerCache

        cache = UniDoppelgangerCache(cfg, regions=regions_1mb())
        for i in range(16):
            if cache.tags.probe(i * 64) is None:
                cache.insert_block(i * 64, approx=False)
        cache.insert_block(0x8000, approx=True, region_id=RID, values=np.full(16, 5.0))
        cache.check_invariants()
        assert cache.approx_occupancy() >= 1


class TestSystemCorners:
    def test_empty_trace(self):
        regions = regions_1mb()
        builder = TraceBuilder("empty", regions)
        trace = builder.build()
        from repro.hierarchy.llc import BaselineLLC

        result = System(BaselineLLC()).run(trace)
        assert result.cycles == 0
        assert result.instructions == 0

    def test_single_access(self):
        regions = regions_1mb()
        builder = TraceBuilder("one", regions)
        vid = builder.register_value(np.zeros(16, np.float32))
        builder.set_initial_value(0, vid)
        from repro.trace.record import Access

        builder.append(Access(0, 0, False, True, 0, vid, 10))
        trace = builder.build()
        llc = SplitDoppelgangerLLC(regions=regions)
        result = System(llc).run(trace)
        assert result.dram_reads == 1
        assert llc.dopp.stats.insertions == 1

    def test_missing_values_raise(self):
        regions = regions_1mb()
        builder = TraceBuilder("bad", regions)
        from repro.trace.record import Access

        builder.append(Access(0, 0, False, True, 0, -1, 10))
        trace = builder.build()  # no registered values
        llc = SplitDoppelgangerLLC(regions=regions)
        with pytest.raises(KeyError, match="no tracked"):
            System(llc).run(trace)

    def test_wb_buffer_pressure_counted(self, rng=np.random.default_rng(4)):
        """A burst of dirty evictions must engage the writeback buffer."""
        region = Region("r", 0, 1 << 22, DType.F32, approx=True, vmin=0, vmax=100)
        regions = RegionMap([region])
        builder = TraceBuilder("wb", regions)
        data = rng.uniform(0, 100, region.num_elements).astype(np.float32)
        vids = builder.register_block_values(region, data)
        n = region.num_blocks()
        idx = np.concatenate([np.arange(n), np.arange(n)])
        cores = (np.arange(len(idx)) % 4).astype(np.int8)
        builder.append_region_accesses(0, idx, cores, is_write=True,
                                       value_ids=vids[idx], gap=2)
        trace = builder.build()
        from repro.hierarchy.llc import BaselineLLC

        system = System(BaselineLLC())
        result = system.run(trace)
        assert system.wb_buffer.enqueued > 0

    def test_runahead_burst_cheaper_than_serial(self, rng=np.random.default_rng(6)):
        """MLP: a dense miss burst costs less than isolated misses."""
        region = Region("r", 0, 1 << 22, DType.F32, approx=True, vmin=0, vmax=100)
        regions = RegionMap([region])

        def make(gap):
            builder = TraceBuilder("t", regions)
            data = rng.uniform(0, 100, region.num_elements).astype(np.float32)
            builder.register_block_values(region, data)
            idx = np.arange(region.num_blocks())
            cores = np.zeros(len(idx), np.int8)
            builder.append_region_accesses(0, idx, cores, gap=gap)
            return builder.build()

        from repro.hierarchy.llc import BaselineLLC

        dense = System(BaselineLLC()).run(make(gap=2))
        sparse = System(BaselineLLC()).run(make(gap=600))
        dense_per_miss = dense.cycles / dense.llc_misses
        sparse_per_miss = sparse.cycles / sparse.llc_misses
        assert dense_per_miss < sparse_per_miss


class TestMapGeneratorCorners:
    def test_single_element_block(self):
        gen = MapGenerator(MapConfig(14), 0.0, 100.0, DType.F32)
        m = gen.compute(np.array([55.0]))
        assert 0 <= m < gen.map_space_size

    def test_constant_block_range_zero(self):
        gen = MapGenerator(MapConfig(14), 0.0, 100.0, DType.F32)
        m = gen.compute(np.full(16, 31.4))
        # Range part (high bits) must be zero for a constant block.
        assert m >> 14 == 0

    def test_inf_values_clamped(self):
        gen = MapGenerator(MapConfig(14), 0.0, 100.0, DType.F32)
        m = gen.compute(np.full(16, np.inf))
        assert m == gen.compute(np.full(16, 100.0))


class TestCacheGeometryCorners:
    def test_single_set_cache(self):
        cache = SetAssociativeCache(4 * 64, 4, 64)
        assert cache.num_sets == 1
        for i in range(5):
            cache.access(i * 64)
        assert cache.occupancy() == 4

    def test_direct_mapped(self):
        cache = SetAssociativeCache(16 * 64, 1, 64)
        cache.access(0)
        result = cache.access(16 * 64)  # same set, 1 way
        assert result.evicted_addr == 0
