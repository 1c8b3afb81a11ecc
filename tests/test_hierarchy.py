"""Tests for the DRAM model, LLC adapters and the full system."""

import numpy as np
import pytest

from repro.core.config import DoppelgangerConfig
from repro.core.maps import MapConfig
from repro.errors import ConfigError
from repro.hierarchy.dram import MainMemory
from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC, UnifiedDoppelgangerLLC
from repro.hierarchy.system import System, SystemConfig
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap
from repro.trace.trace import TraceBuilder


def make_trace(rng, size_kb=64, repeats=2, write=False, gap=8):
    region = Region(
        "r", 0, size_kb * 1024, DType.F32, approx=True, vmin=0.0, vmax=100.0
    )
    regions = RegionMap([region])
    builder = TraceBuilder("t", regions)
    data = rng.uniform(0, 100, region.num_elements).astype(np.float32)
    vids = builder.register_block_values(region, data)
    n = region.num_blocks()
    idx = np.tile(np.arange(n, dtype=np.int64), repeats)
    cores = (np.arange(len(idx)) % 4).astype(np.int8)
    builder.append_region_accesses(
        0, idx, cores, is_write=write,
        value_ids=vids[idx] if write else None, gap=gap,
    )
    return builder.build()


class TestMainMemory:
    def test_counters(self):
        mem = MainMemory(latency=100)
        assert mem.read(0) == 100
        assert mem.write(64) == 100
        assert mem.total_accesses == 2
        assert mem.traffic_bytes == 128

    def test_reset(self):
        mem = MainMemory()
        mem.read(0)
        mem.reset()
        assert mem.total_accesses == 0

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            MainMemory(latency=0)


class TestBaselineLLC:
    def test_read_does_not_fill(self):
        llc = BaselineLLC()
        assert not llc.read(0, 0, False, -1).hit
        assert not llc.read(0, 0, False, -1).hit  # still a miss

    def test_fill_then_hit(self):
        llc = BaselineLLC()
        llc.fill(0, 0, False, -1)
        assert llc.read(0, 0, False, -1).hit

    def test_miss_not_double_counted(self):
        llc = BaselineLLC()
        llc.read(0, 0, False, -1)
        llc.fill(0, 0, False, -1)
        assert llc.miss_count() == 1

    def test_writeback_to_resident(self):
        llc = BaselineLLC()
        llc.fill(0, 0, False, -1)
        reply = llc.handle_writeback(0, 0, False, -1, value_id=5)
        assert reply.hit
        assert llc.cache.probe(0) & 1
        assert llc.cache.probe(0) >> 1 == 5

    def test_writeback_to_absent_goes_to_memory(self):
        llc = BaselineLLC()
        reply = llc.handle_writeback(0, 0, False, -1)
        assert not reply.hit
        assert reply.writebacks == (0,)

    def test_eviction_reports_back_invalidation(self):
        llc = BaselineLLC(size_bytes=2 * 64 * 16, ways=2)  # 16 sets x 2 ways
        stride = llc.cache.num_sets * 64
        llc.fill(0, 0, False, -1)
        llc.fill(stride, 0, False, -1)
        reply = llc.fill(2 * stride, 0, False, -1)
        assert reply.back_invalidations == (0,)


def split_llc(regions):
    return SplitDoppelgangerLLC(DoppelgangerConfig(map=MapConfig(14)), regions=regions)


class TestSplitLLC:
    def make(self):
        regions = RegionMap(
            [
                Region("a", 0, 1 << 20, DType.F32, approx=True, vmin=0, vmax=100),
                Region("p", 1 << 21, 1 << 20, DType.I32, approx=False),
            ]
        )
        return split_llc(regions), regions

    def test_routing_by_approx_flag(self):
        llc, regions = self.make()
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        llc.fill(1 << 21, 0, False, 1)
        assert llc.dopp.stats.insertions == 1
        assert llc.precise.occupancy() == 1

    def test_approx_fill_requires_values(self):
        llc, _ = self.make()
        with pytest.raises(ValueError):
            llc.fill(0, 0, True, 0)

    def test_approx_read_hits_after_fill(self):
        llc, _ = self.make()
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        assert llc.read(0, 0, True, 0).hit

    def test_writeback_walks_dopp_path(self):
        llc, _ = self.make()
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        llc.handle_writeback(0, 0, True, 0, values=np.full(16, 95.0))
        assert llc.dopp.stats.write_moved == 1

    def test_energy_events_keys(self):
        llc, _ = self.make()
        events = llc.energy_events()
        assert ("precise_1mb", "tag") in events
        assert ("dopp_tag", "tag") in events
        assert ("map_generation", "op") in events


class TestUnifiedLLC:
    def make(self):
        regions = RegionMap(
            [Region("a", 0, 1 << 20, DType.F32, approx=True, vmin=0, vmax=100)]
        )
        return UnifiedDoppelgangerLLC(regions=regions)

    def test_fill_and_read_both_kinds(self):
        llc = self.make()
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        llc.fill(1 << 21, 0, False, -1)
        assert llc.read(0, 0, True, 0).hit
        assert llc.read(1 << 21, 0, False, -1).hit

    def test_writeback_precise(self):
        llc = self.make()
        llc.fill(1 << 21, 0, False, -1)
        reply = llc.handle_writeback(1 << 21, 0, False, -1, value_id=3)
        assert reply.hit


class TestSystem:
    def test_baseline_end_to_end(self, rng):
        trace = make_trace(rng)
        system = System(BaselineLLC())
        result = system.run(trace)
        assert result.cycles > 0
        assert result.instructions == trace.instruction_count
        # First scan misses, second scan hits somewhere in the hierarchy.
        assert result.dram_reads == trace.unique_blocks()

    def test_llc_reuse_on_second_scan(self, rng):
        # Footprint bigger than L2 (512KB > 4 x 128KB? per-core partition
        # 128KB == L2) -> use 1MB so per-core partitions exceed L2.
        trace = make_trace(rng, size_kb=1024, repeats=2)
        system = System(BaselineLLC())
        result = system.run(trace)
        assert result.llc_misses < 2 * trace.unique_blocks()

    def test_write_trace_generates_writebacks(self, rng):
        # Footprint beyond the 2 MB LLC so dirty blocks reach memory.
        trace = make_trace(rng, size_kb=4096, repeats=2, write=True)
        system = System(BaselineLLC())
        result = system.run(trace)
        assert result.dram_writes > 0

    def test_split_dopp_system(self, rng):
        trace = make_trace(rng, size_kb=256, repeats=3)
        llc = split_llc(trace.regions)
        system = System(llc)
        result = system.run(trace)
        assert result.cycles > 0
        llc.dopp.check_invariants()

    def test_unified_system(self, rng):
        trace = make_trace(rng, size_kb=256, repeats=3)
        llc = UnifiedDoppelgangerLLC(regions=trace.regions)
        system = System(llc)
        result = system.run(trace)
        assert result.cycles > 0
        llc.uni.check_invariants()

    def test_limit_argument(self, rng):
        trace = make_trace(rng)
        system = System(BaselineLLC())
        result = system.run(trace, limit=10)
        assert result.instructions == sum(g + 1 for g in trace.gaps[:10])

    def test_mpki_definition(self, rng):
        trace = make_trace(rng)
        system = System(BaselineLLC())
        result = system.run(trace)
        assert result.mpki == pytest.approx(
            1000.0 * result.llc_misses / result.instructions
        )

    def test_store_coherence_invalidates_sharers(self):
        # Two cores read the same block, then core 1 writes it.
        region = Region("r", 0, 4096, DType.F32, approx=True, vmin=0, vmax=1)
        regions = RegionMap([region])
        builder = TraceBuilder("t", regions)
        data = np.zeros(region.num_elements, dtype=np.float32)
        vids = builder.register_block_values(region, data)
        for core, write in ((0, False), (1, False), (1, True)):
            builder.append_region_accesses(
                0, np.array([0]), np.array([core], dtype=np.int8),
                is_write=write, value_ids=np.array([vids[0]]), gap=4,
            )
        trace = builder.build()
        system = System(BaselineLLC())
        system.run(trace)
        assert system.coherence_invalidations >= 1
        assert not system.l1s[0].contains(0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)
        with pytest.raises(ValueError):
            SystemConfig(issue_width=0)

    @pytest.mark.parametrize(
        "make_llc",
        [
            lambda: BaselineLLC(block_size=128),
            lambda: SplitDoppelgangerLLC(DoppelgangerConfig(block_size=128)),
        ],
        ids=["baseline", "split"],
    )
    def test_llc_block_size_must_match_hierarchy(self, make_llc):
        # A 128 B LLC block evicted under 64 B private caches would
        # back-invalidate only its first half, losing inclusion.
        with pytest.raises(ConfigError, match="128 B differs from the hierarchy's 64 B"):
            System(make_llc())
