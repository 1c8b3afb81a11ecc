"""Coherence-behaviour tests for the simulated system (Sec. 3.6).

MSI with a directory at the LLC: stores invalidate remote sharers,
back-invalidations purge private copies, and Doppelgänger keeps the
dirty bit (a tag's MSI state) per *tag*, so tags sharing one data
entry don't share it.
"""

import numpy as np
import pytest

from repro.core.config import DoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache
from repro.core.maps import MapConfig
from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC
from repro.hierarchy.system import System
from repro.trace.record import Access, DType
from repro.trace.region import Region, RegionMap
from repro.trace.trace import TraceBuilder
from test_engine_random import random_trace, tiny_config, tiny_llc

RID = 0


def regions_small():
    return RegionMap(
        [Region("r", 0, 1 << 16, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )


def trace_of(accesses, regions):
    builder = TraceBuilder("t", regions)
    vid = builder.register_value(np.full(16, 5.0, dtype=np.float32))
    for addr in range(0, 1 << 16, 64):
        builder.set_initial_value(addr, vid)
    for core, addr, is_write in accesses:
        builder.append(Access(core, addr, is_write, True, RID, vid, 4))
    return builder.build()


class TestDirectoryProtocol:
    def test_read_sharers_accumulate(self):
        regions = regions_small()
        trace = trace_of([(0, 0, False), (1, 0, False), (2, 0, False)], regions)
        system = System(BaselineLLC(regions=regions))
        system.run(trace)
        assert system._sharers[0] == 0b111

    def test_store_claims_exclusive(self):
        regions = regions_small()
        trace = trace_of([(0, 0, False), (1, 0, False), (1, 0, True)], regions)
        system = System(BaselineLLC(regions=regions))
        system.run(trace)
        assert system._sharers[0] == 0b10
        assert not system.l1s[0].contains(0)
        assert system.l1s[1].contains(0)

    def test_store_to_unshared_no_invalidations(self):
        regions = regions_small()
        trace = trace_of([(0, 0, True), (0, 0, True)], regions)
        system = System(BaselineLLC(regions=regions))
        system.run(trace)
        assert system.coherence_invalidations == 0

    def test_ping_pong_counts_invalidations(self):
        regions = regions_small()
        pattern = [(c % 2, 0, True) for c in range(6)]
        trace = trace_of(pattern, regions)
        system = System(BaselineLLC(regions=regions))
        system.run(trace)
        assert system.coherence_invalidations >= 4

    def test_back_invalidation_purges_all_cores(self):
        regions = regions_small()
        # All four cores share block 0; then a Doppelgänger data
        # eviction back-invalidates it.
        accesses = [(c, 0, False) for c in range(4)]
        trace = trace_of(accesses, regions)
        llc = SplitDoppelgangerLLC(
            DoppelgangerConfig(tag_entries=1024, data_fraction=0.25, map=MapConfig(14)),
            regions=regions,
        )
        system = System(llc)
        system.run(trace)
        # Force the eviction through the cache's own interface.
        outcome = llc.dopp.invalidate(0)
        for addr in outcome.back_invalidations:
            system._purge_private(addr)
        for core in range(4):
            assert not system.l1s[core].contains(0)


class TestPerTagDirtyBit:
    def test_dirty_bit_is_per_tag(self):
        cache = DoppelgangerCache(
            DoppelgangerConfig(tag_entries=64, tag_ways=4, data_fraction=0.5,
                               data_ways=4, map=MapConfig(14)),
            regions=regions_small(),
        )
        values = np.full(16, 5.0)
        cache.insert(0, RID, values)
        cache.insert(64, RID, values)
        cache.writeback(0, RID, values)
        assert cache.tags.probe(0).dirty
        assert not cache.tags.probe(64).dirty


#: Runs cut after these many accesses; the random traces hold 4,000.
LIMITS = (700, 1900, 4000)
INVARIANT_CASES = [(kind, cores, engine)
                   for kind in ("baseline", "split", "uni")
                   for cores in (1, 4)
                   for engine in ("reference", "batched")]


@pytest.mark.parametrize(
    "kind,num_cores,engine", INVARIANT_CASES,
    ids=[f"{k}-{c}core-{e}" for k, c, e in INVARIANT_CASES])
def test_l1_blocks_keep_their_sharer_bit(kind, num_cores, engine):
    """Every block resident in core c's L1 has bit c set in the directory.

    An L1 fill follows the access's own sharer update, and every event
    that clears a bit (a remote store, a back-invalidation) removes the
    copies of each core whose bit it clears. So an L1 load hit finds
    its bit already set, and the batched engine retires it without
    writing the directory. The L2 has no such guarantee: when a dirty
    victim's writeback makes the LLC back-invalidate the accessing
    block itself, the access then refills its L2 after the purge
    dropped the block's sharer entry.
    """
    for seed in range(4):
        trace = random_trace(seed, num_cores)
        for limit in LIMITS:
            system = System(tiny_llc(kind, trace.regions),
                            config=tiny_config(num_cores))
            system.run(trace, limit=limit, engine=engine)
            sharers = system._sharers
            for core, l1 in enumerate(system.l1s):
                for addr in l1.resident_addrs():
                    assert sharers.get(addr, 0) >> core & 1, (
                        f"seed {seed}, limit {limit}: L1-{core} holds "
                        f"{addr:#x} without its sharer bit")


@pytest.mark.xfail(strict=True, reason=(
    "an access whose own dirty L2 victim makes the LLC back-invalidate "
    "it refills the L2 after the purge dropped its sharer entry"))
@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_l2_blocks_keep_their_sharer_bit(engine):
    """Every block resident in core c's L2 has bit c set in the directory.

    It does not hold yet. An access sets its bit and fills its L1; its
    dirty L1 victim write-fills the L2, and the dirty L2 victim's
    writeback makes the split LLC back-invalidate the accessing block
    itself. ``System._apply_reply`` purges the block and pops its
    sharer entry, and the access then refills the L2 with no bit. After
    371 accesses of this trace, block 0x103c0 sits in the L2 without
    its bit (after 370 every L2 block has it), so a later purge would
    leave that copy behind.
    """
    trace = random_trace(6, 1)
    system = System(tiny_llc("split", trace.regions), config=tiny_config(1))
    system.run(trace, limit=371, engine=engine)
    sharers = system._sharers
    for core, l2 in enumerate(system.l2s):
        for addr in l2.resident_addrs():
            assert sharers.get(addr, 0) >> core & 1, (
                f"L2-{core} holds {addr:#x} without its sharer bit")
