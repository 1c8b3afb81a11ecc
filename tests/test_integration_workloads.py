"""Integration: every workload's trace through every LLC organization.

Runs each benchmark's (small-scale) trace through the baseline, split
Doppelgänger and uniDoppelgänger systems, checking structural
invariants, conservation properties and cross-organization sanity.
"""

import pytest

from repro.core.config import DoppelgangerConfig, UniDoppelgangerConfig
from repro.core.maps import MapConfig
from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC, UnifiedDoppelgangerLLC
from repro.hierarchy.system import System, SystemConfig
from repro.workloads import workload_names, get_workload

SCALE = 0.08
LIMIT = 30_000  # accesses per run: keep the matrix fast

SMALL_SYS = SystemConfig(l2_bytes=32 * 1024)


def small_dopp_llc(regions):
    return SplitDoppelgangerLLC(
        DoppelgangerConfig(tag_entries=2048, data_fraction=0.25, map=MapConfig(14)),
        precise_bytes=128 * 1024,
        regions=regions,
    )


def small_uni_llc(regions):
    return UnifiedDoppelgangerLLC(
        UniDoppelgangerConfig(tag_entries=4096, data_fraction=0.5, map=MapConfig(14)),
        regions=regions,
    )


@pytest.fixture(scope="module")
def traces():
    return {
        name: get_workload(name, seed=9, scale=SCALE).build_trace()
        for name in workload_names()
    }


@pytest.mark.parametrize("name", workload_names())
class TestAllWorkloadsAllLLCs:
    def test_baseline_runs(self, traces, name):
        trace = traces[name]
        llc = BaselineLLC(size_bytes=256 * 1024, regions=trace.regions)
        result = System(llc, config=SMALL_SYS).run(trace, limit=LIMIT)
        assert result.cycles > 0
        # Conservation: every DRAM read corresponds to an LLC fill.
        assert result.dram_reads == llc.cache.stats.fills

    def test_doppelganger_invariants(self, traces, name):
        trace = traces[name]
        llc = small_dopp_llc(trace.regions)
        result = System(llc, config=SMALL_SYS).run(trace, limit=LIMIT)
        llc.dopp.check_invariants()
        d = llc.dopp.stats
        # Conservation: hits + misses = accesses.
        assert d.hits + d.misses == d.accesses
        # Every data entry freed/evicted had its tags accounted.
        assert d.tag_evictions == d.dirty_tags_evicted + d.clean_tags_evicted

    def test_unidoppelganger_invariants(self, traces, name):
        trace = traces[name]
        llc = small_uni_llc(trace.regions)
        System(llc, config=SMALL_SYS).run(trace, limit=LIMIT)
        llc.uni.check_invariants()
        # Precise and approximate entries coexist for mixed workloads.
        if any(not r.approx for r in trace.regions) and any(
            r.approx for r in trace.regions
        ):
            assert llc.uni.precise_occupancy() >= 0

    def test_traffic_sane_across_organizations(self, traces, name):
        trace = traces[name]
        base = System(
            BaselineLLC(size_bytes=256 * 1024, regions=trace.regions),
            config=SMALL_SYS,
        ).run(trace, limit=LIMIT)
        dopp = System(small_dopp_llc(trace.regions), config=SMALL_SYS).run(
            trace, limit=LIMIT
        )
        # Both see the same demand stream; traffic stays within an
        # order of magnitude even under heavy Doppelgänger thrashing.
        assert dopp.traffic_bytes < 20 * max(base.traffic_bytes, 1)
        assert base.instructions == dopp.instructions
