"""Tests for multiprogrammed trace merging (Sec. 4.1)."""

import pytest

from repro.hierarchy.llc import SplitDoppelgangerLLC
from repro.hierarchy.system import System
from repro.trace.multiprogram import PROGRAM_STRIDE, merge_traces
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def merged():
    a = get_workload("kmeans", seed=3, scale=0.05).build_trace()
    b = get_workload("swaptions", seed=3, scale=0.05).build_trace()
    return a, b, merge_traces([a, b])


class TestMerge:
    def test_lengths_add(self, merged):
        a, b, m = merged
        assert len(m) == len(a) + len(b)

    def test_regions_disjoint_and_prefixed(self, merged):
        _, _, m = merged
        names = [r.name for r in m.regions]
        assert any(n.startswith("p0:") for n in names)
        assert any(n.startswith("p1:") for n in names)

    def test_address_spaces_disjoint(self, merged):
        a, _, m = merged
        prog0 = m.addrs[m.addrs < PROGRAM_STRIDE]
        prog1 = m.addrs[m.addrs >= PROGRAM_STRIDE]
        assert len(prog0) == len(a)
        assert len(prog1) == len(m) - len(a)

    def test_core_partitioning(self, merged):
        _, _, m = merged
        prog0_cores = set(m.cores[m.addrs < PROGRAM_STRIDE].tolist())
        prog1_cores = set(m.cores[m.addrs >= PROGRAM_STRIDE].tolist())
        assert prog0_cores <= {0, 1}
        assert prog1_cores <= {2, 3}

    def test_value_table_consistent(self, merged):
        a, _, m = merged
        # Every initial-image id points inside the merged value table.
        for addr, vid in m.initial_image.items():
            assert 0 <= vid < len(m.values)

    def test_annotations_preserved(self, merged):
        a, _, m = merged
        orig = {r.name: r for r in a.regions}
        for region in m.regions:
            if region.name.startswith("p0:"):
                source = orig[region.name[3:]]
                assert region.approx == source.approx
                assert region.vmin == source.vmin
                assert region.vmax == source.vmax

    def test_interleaving_is_chunked(self, merged):
        _, _, m = merged
        # Programs alternate: both appear in the first few chunks.
        head = m.addrs[: 64 * 4]
        assert (head < PROGRAM_STRIDE).any()
        assert (head >= PROGRAM_STRIDE).any()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            merge_traces([])

    def test_group_count_mismatch_rejected(self, merged):
        a, b, _ = merged
        with pytest.raises(ValueError):
            merge_traces([a, b], core_groups=[[0]])


class TestMultiprogramSimulation:
    def test_runs_through_doppelganger(self, merged):
        _, _, m = merged
        llc = SplitDoppelgangerLLC(regions=m.regions)
        result = System(llc).run(m)
        assert result.cycles > 0
        llc.dopp.check_invariants()
        # Both programs' approximate data reached the Doppelgänger.
        assert llc.dopp.stats.insertions > 0

    def test_per_program_ranges_registered(self, merged):
        _, _, m = merged
        llc = SplitDoppelgangerLLC(regions=m.regions)
        # kmeans pixels ([0,255]) and swaptions structs ([0,100]) have
        # different per-application ranges, both registered.
        registered = len(llc.dopp.maps)
        approx_regions = len(m.regions.approx_regions())
        assert registered == approx_regions >= 2
