"""Additional LLC-adapter tests: energy events, miss and access counting, routing."""

import numpy as np
import pytest

from repro.core.config import DoppelgangerConfig, UniDoppelgangerConfig
from repro.core.maps import MapConfig
from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC, UnifiedDoppelgangerLLC
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap


def regions():
    return RegionMap(
        [
            Region("a", 0, 1 << 20, DType.F32, approx=True, vmin=0, vmax=100),
            Region("p", 1 << 21, 1 << 20, DType.I32, approx=False),
        ]
    )


class TestEnergyEventCounting:
    def test_baseline_tag_and_data_counts(self):
        llc = BaselineLLC()
        llc.read(0, 0, False, -1)       # miss: tag lookup only
        llc.fill(0, 0, False, -1)       # fill: data write
        llc.read(0, 0, False, -1)       # hit: tag + data read
        events = llc.energy_events()
        assert events[("baseline_llc", "tag")] == 2
        assert events[("baseline_llc", "data")] == 2  # fill write + hit read

    def test_split_map_generation_counting(self):
        regs = regions()
        llc = SplitDoppelgangerLLC(regions=regs)
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        llc.handle_writeback(0, 0, True, 0, values=np.full(16, 6.0))
        events = llc.energy_events()
        assert events[("map_generation", "op")] == 2

    def test_unified_events_cover_both_kinds(self):
        regs = regions()
        llc = UnifiedDoppelgangerLLC(regions=regs)
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        llc.fill(1 << 21, 0, False, 1)
        events = llc.energy_events()
        assert events[("uni_tag", "tag")] >= 0
        assert events[("uni_data", "data")] == 2  # both fills wrote data
        assert events[("map_generation", "op")] == 1  # precise skips hashing


class TestMissCounting:
    def test_split_counts_both_halves(self):
        regs = regions()
        llc = SplitDoppelgangerLLC(regions=regs)
        llc.read(0, 0, True, 0)          # approx miss
        llc.read(1 << 21, 0, False, 1)   # precise miss
        assert llc.miss_count() == 2

    def test_unified_counts_once(self):
        regs = regions()
        llc = UnifiedDoppelgangerLLC(regions=regs)
        llc.read(0, 0, True, 0)
        llc.read(0, 0, True, 0)
        assert llc.miss_count() == 2
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        llc.read(0, 0, True, 0)
        assert llc.miss_count() == 2  # the hit adds nothing


@pytest.mark.parametrize("make", [
    BaselineLLC, SplitDoppelgangerLLC, UnifiedDoppelgangerLLC,
], ids=["baseline", "split", "unified"])
def test_access_count_counts_demand_reads_only(make):
    llc = make(regions=regions())
    for addr, approx, rid in ((0, True, 0), (1 << 21, False, 1)):
        llc.read(addr, 0, approx, rid)          # miss
        llc.fill(addr, 0, approx, rid, values=np.full(16, 5.0))
        llc.read(addr, 0, approx, rid)          # hit
        llc.handle_writeback(addr, 0, approx, rid, values=np.full(16, 6.0))
    assert llc.access_count() == 4
    assert llc.miss_count() == 2


class TestRouting:
    def test_precise_data_never_reaches_dopp(self):
        regs = regions()
        llc = SplitDoppelgangerLLC(regions=regs)
        llc.fill(1 << 21, 0, False, 1)
        llc.read(1 << 21, 0, False, 1)
        llc.handle_writeback(1 << 21, 0, False, 1)
        assert llc.dopp.stats.accesses == 0
        assert llc.dopp.stats.insertions == 0

    def test_approx_data_never_reaches_precise(self):
        regs = regions()
        llc = SplitDoppelgangerLLC(regions=regs)
        llc.fill(0, 0, True, 0, values=np.full(16, 5.0))
        llc.read(0, 0, True, 0)
        assert llc.precise.stats.accesses == 0
        assert llc.precise.occupancy() == 0

    def test_config_reflected_in_geometry(self):
        cfg = DoppelgangerConfig(data_fraction=0.125, map=MapConfig(12))
        llc = SplitDoppelgangerLLC(cfg)
        assert llc.dopp.data.num_entries == 2048
        assert llc.dopp.maps.config.bits == 12

    def test_uni_config_reflected(self):
        cfg = UniDoppelgangerConfig(data_fraction=0.25)
        llc = UnifiedDoppelgangerLLC(cfg)
        assert llc.uni.data.num_entries == 8192
