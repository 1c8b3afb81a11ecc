"""Ablation — replacement policy in the Doppelgänger arrays.

The paper uses LRU in both arrays and leaves specialized replacement
to future work (Sec. 3.5). This bench swaps the policy in both the tag
and data arrays (LRU / FIFO / random) on the most replacement-
sensitive benchmark (canneal) and reports LLC misses and runtime.
"""

from repro.core.config import DoppelgangerConfig
from repro.core.maps import MapConfig
from repro.harness.reporting import Table
from repro.harness.runner import baseline_spec, system_config
from repro.hierarchy.llc import SplitDoppelgangerLLC
from repro.hierarchy.system import System

POLICIES = ("lru", "fifo", "random")
#: jpeg at the 1/8 array: the config with real data-array replacement
#: pressure (canneal's quantized working set fits at 1/4).
WORKLOAD = "jpeg"


def test_ablation_replacement(once, ctx, emit):
    trace = ctx.trace(WORKLOAD)
    base_cycles = ctx.run(WORKLOAD, baseline_spec()).cycles

    def run():
        table = Table(
            f"Ablation: replacement policy ({WORKLOAD}, 14-bit, 1/8 array)",
            ["policy", "LLC misses", "normalized runtime"],
        )
        for policy in POLICIES:
            cfg = DoppelgangerConfig(
                tag_entries=max(int(16 * 1024 * ctx.size_factor), 1024),
                data_fraction=0.125, map=MapConfig(14), policy=policy,
            )
            llc = SplitDoppelgangerLLC(
                cfg, policy=policy,
                precise_bytes=max(int(1024 * 1024 * ctx.size_factor), 64 * 1024),
                regions=trace.regions,
            )
            result = System(llc, config=system_config(ctx.size_factor)).run(trace)
            table.add_row(policy, result.llc_misses, result.cycles / base_cycles)
        return table

    table = once(run)
    emit(table, "ablation_replacement")
    rows = table.row_map()
    # All policies complete and stay within a sane band of each other.
    runtimes = [rows[p][2] for p in POLICIES]
    assert max(runtimes) / min(runtimes) < 2.0
    # LRU (the paper's choice) is not the worst policy here.
    assert rows["lru"][1] <= max(rows[p][1] for p in POLICIES)
