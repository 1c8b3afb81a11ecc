"""Batched vs reference engine on random traces over tiny hierarchies.

The workload-driven equivalence suite runs Table 1-shaped hierarchies,
where a private cache rarely fills a set that the same access is about
to hit. Here the L1 holds 4 blocks and the L2 8, so dirty victims,
cascading L2 writebacks and LLC evictions that back-invalidate the very
block being accessed happen within a few thousand accesses. Every case
is seeded, and every case compares the ``SystemResult``, the LLC's own
counters (``energy_events`` and the run record's ``llc_stats``), the
traced event stream and the per-class tallies of the two engines. The
Doppelgänger organizations also run with the replacement policies of
the ablation bench in their arrays and precise half, and every
organization also runs with a fault injector attached.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import DoppelgangerConfig, UniDoppelgangerConfig
from repro.core.maps import MapConfig
from repro.harness.runner import _llc_stats
from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC, UnifiedDoppelgangerLLC
from repro.hierarchy.system import System, SystemConfig
from repro.obs.events import EventSink, Tracer
from repro.resilience.faults import FAULT_TARGETS, FaultConfig, FaultInjector
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap
from repro.trace.trace import TraceBuilder

#: 16 F32 elements per 64 B block; values on a coarse grid so that
#: distinct blocks often share a Doppelgänger map.
ELEMS = 16
#: Blocks per region: one approximate and one precise region.
BLOCKS = 32
#: Seed (at the default store fraction) of a one-core trace in which a
#: store's L2 hit is undone by its own victim's writeback cascade.
SEED_CASCADE_PURGE = 101


def random_trace(seed: int, num_cores: int, n: int = 4000, write_frac: float = 0.7):
    """``n`` accesses over one approximate and one precise region.

    Blocks are drawn from a Zipf-like popularity (weight 1/rank over a
    random order), so a few hot blocks keep hitting the L2 while missing
    the L1. Approximate values are multiples of 12.5 in [0, 100]; every
    store to the approximate region carries a freshly registered value.
    """
    rng = np.random.default_rng(seed)
    approx = Region("approx", 0x10000, BLOCKS * 64, DType.F32,
                    approx=True, vmin=0.0, vmax=100.0)
    precise = Region("precise", 0x40000, BLOCKS * 64, DType.I32)
    builder = TraceBuilder(f"random-{seed}", RegionMap([approx, precise]))

    def grid(size):
        return (12.5 * rng.integers(0, 9, size=size)).astype(np.float32)

    builder.register_block_values(approx, grid(BLOCKS * ELEMS))
    weights = 1.0 / np.arange(1, 2 * BLOCKS + 1)
    blocks = rng.permutation(2 * BLOCKS)[
        rng.choice(2 * BLOCKS, size=n, p=weights / weights.sum())]
    rids = (blocks >= BLOCKS).astype(np.int32)  # 0 approximate, 1 precise
    writes = rng.random(n) < write_frac
    cores = rng.integers(0, num_cores, size=n)
    gaps = rng.integers(0, 9, size=n)
    vids = np.full(n, -1, dtype=np.int64)
    for i in np.flatnonzero(writes & (rids == 0)):
        vids[i] = builder.register_value(grid(ELEMS))
    bases = np.where(rids == 0, approx.base, precise.base)
    builder.append_batch(cores, bases + (blocks % BLOCKS) * 64, writes,
                         rids == 0, rids, vids, gaps)
    return builder.build()


def tiny_llc(kind: str, regions, policy: str = "lru"):
    """A tiny LLC; ``policy`` replaces in a Doppelgänger organization's
    tag and data arrays and the split design's precise half."""
    if kind == "baseline":
        return BaselineLLC(size_bytes=1024, ways=4, regions=regions)
    if kind == "split":
        cfg = DoppelgangerConfig(tag_entries=32, tag_ways=4, data_fraction=0.25,
                                 data_ways=4, map=MapConfig(6), policy=policy)
        return SplitDoppelgangerLLC(cfg, precise_bytes=1024, precise_ways=4,
                                    policy=policy, regions=regions)
    cfg = UniDoppelgangerConfig(tag_entries=128, tag_ways=4, data_fraction=0.25,
                                data_ways=4, map=MapConfig(6), policy=policy)
    return UnifiedDoppelgangerLLC(cfg, regions=regions)


def tiny_config(num_cores: int) -> SystemConfig:
    return SystemConfig(num_cores=num_cores, l1_bytes=256, l1_ways=2,
                        l2_bytes=512, l2_ways=4)


class _EventLog(EventSink):
    def __init__(self):
        self.lines = []

    def emit(self, event):
        row = event.as_dict()
        del row["ts_ns"]
        self.lines.append(json.dumps(row, default=str))


def _simulate(trace, kind, num_cores, engine, policy="lru", faults=None):
    log = _EventLog()
    llc = tiny_llc(kind, trace.regions, policy)
    system = System(llc, config=tiny_config(num_cores), tracer=Tracer([log]),
                    faults=None if faults is None else FaultInjector(faults))
    result = system.run(trace, engine=engine)
    return result, llc, system, log.lines


def assert_engines_agree(seed, kind, num_cores, policy="lru", faults=None):
    """Compare the two engines; returns the batched run's tallies."""
    trace = random_trace(seed, num_cores)
    ref, ref_llc, ref_sys, ref_events = _simulate(trace, kind, num_cores,
                                                  "reference", policy, faults)
    bat, bat_llc, bat_sys, bat_events = _simulate(trace, kind, num_cores,
                                                  "batched", policy, faults)
    stats = bat_sys.engine_stats
    assert bat == ref
    assert bat_llc.energy_events() == ref_llc.energy_events()
    assert _llc_stats(bat_llc, trace.regions) == _llc_stats(ref_llc, trace.regions)
    assert bat_events == ref_events
    assert bat_sys.fault_summary() == ref_sys.fault_summary()
    assert stats.get("delegated") is None
    assert sum(stats["fast"].values()) + sum(stats["slow"].values()) == len(trace)
    return stats


CASES = [(kind, cores, seed) for kind in ("baseline", "split", "uni")
         for cores in (1, 4) for seed in range(4)]


@pytest.mark.parametrize("kind,num_cores,seed", CASES,
                         ids=[f"{k}-{c}core-s{s}" for k, c, s in CASES])
def test_random_equivalence(kind, num_cores, seed):
    assert_engines_agree(seed, kind, num_cores)


POLICY_CASES = [(kind, policy, cores, seed) for kind in ("split", "uni")
                for policy in ("fifo", "random") for cores in (1, 4)
                for seed in range(2)]


@pytest.mark.parametrize(
    "kind,policy,num_cores,seed", POLICY_CASES,
    ids=[f"{k}-{p}-{c}core-s{s}" for k, p, c, s in POLICY_CASES])
def test_random_equivalence_policies(kind, policy, num_cores, seed):
    assert_engines_agree(seed, kind, num_cores, policy)


FAULT_CASES = [(kind, cores) for kind in ("baseline", "split", "uni")
               for cores in (1, 4)]
#: Faults at every site, often enough that many reads take one.
FAULTS = FaultConfig(seed=3, read_rate=0.05, targets=FAULT_TARGETS)


@pytest.mark.parametrize("kind,num_cores", FAULT_CASES,
                         ids=[f"{k}-{c}core" for k, c in FAULT_CASES])
def test_random_equivalence_under_faults(kind, num_cores):
    """With an injector attached, every L2 miss falls through to the
    slow path as ``faults`` while L1 and L2 hits stay inline, so the
    batched engine hands its per-core clock to the slow path and takes
    it back on every L2 miss: the cycles, instructions and stall
    breakdown must still be the reference's."""
    stats = assert_engines_agree(0, kind, num_cores, faults=FAULTS)
    fast = stats["fast"]
    assert stats["slow"]["faults"] > 0
    assert fast["l1_read_hit"] > 0 and fast["l2_read_hit"] > 0
    assert (fast["llc_read_hit"] + fast["mem_fill"] + fast["llc_adapter_hit"]
            + fast["llc_adapter_fill"] + fast["write_fill"]) == 0


def test_store_l2_hit_whose_victim_cascade_purges_the_demand_block():
    """A store misses the L1 and hits the L2; its dirty L1 victim
    write-fills the L2, whose dirty victim's writeback makes the
    unified LLC evict a data entry that back-invalidates the store's
    own block. The batched engine must see that the L2 hit is gone."""
    assert_engines_agree(SEED_CASCADE_PURGE, "uni", 1)
