"""Ablation — sharing-aware data-array replacement (future work, Sec. 3.5).

The paper suggests a replacement policy that accounts for "the number
of tags associated to a data entry". This bench compares plain LRU
against the tag-count-aware variant on the replacement-stressed
benchmarks and reports LLC misses, back-invalidations and runtime.
"""

from repro.core.config import DoppelgangerConfig
from repro.core.maps import MapConfig
from repro.core.replacement_ext import make_sharing_aware
from repro.harness.reporting import Table
from repro.harness.runner import baseline_spec, system_config
from repro.hierarchy.llc import SplitDoppelgangerLLC
from repro.hierarchy.system import System

WORKLOADS = ("canneal", "jpeg")


def test_ablation_sharing_aware(once, ctx, emit):
    def run():
        table = Table(
            "Ablation: sharing-aware data-array replacement (14-bit, 1/8 array)",
            ["workload", "policy", "LLC misses", "back-invalidations",
             "normalized runtime"],
        )
        for name in WORKLOADS:
            trace = ctx.trace(name)
            base_cycles = ctx.run(name, baseline_spec()).cycles
            for aware in (False, True):
                spec_llc = SplitDoppelgangerLLC(
                    DoppelgangerConfig(
                        tag_entries=max(int(16 * 1024 * ctx.size_factor), 1024),
                        data_fraction=0.125,
                        map=MapConfig(14),
                    ),
                    precise_bytes=max(int(1024 * 1024 * ctx.size_factor), 64 * 1024),
                    regions=trace.regions,
                )
                if aware:
                    make_sharing_aware(spec_llc.dopp)
                system = System(spec_llc, config=system_config(ctx.size_factor))
                result = system.run(trace)
                table.add_row(
                    name,
                    "tag-count-aware" if aware else "lru",
                    result.llc_misses,
                    result.back_invalidations,
                    result.cycles / base_cycles,
                )
        return table

    table = once(run)
    emit(table, "ablation_sharing_aware")
    # Both policies complete with consistent structures; the aware
    # policy must not increase back-invalidations dramatically.
    rows = table.rows
    for name in WORKLOADS:
        lru = next(r for r in rows if r[0] == name and r[1] == "lru")
        aware = next(r for r in rows if r[0] == name and r[1] != "lru")
        assert aware[3] <= lru[3] * 1.5, name
