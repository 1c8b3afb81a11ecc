#!/usr/bin/env python
"""Quickstart: the Doppelgänger cache in five minutes.

Walks the public API (``docs/api.md``) end to end:

1. build an annotated workload (the jpeg benchmark),
2. inspect approximate similarity in its data (the paper's Sec. 2),
3. run the structural Doppelgänger cache on the workload's memory
   trace inside the full 4-core hierarchy, against the conventional
   baseline LLC — one ``repro.simulate`` call per configuration,
4. measure application output error with the functional model,
5. price the hardware with the CACTI-calibrated energy/area model
   (bundled into every simulation's :class:`repro.RunRecord`).

Run:  python examples/quickstart.py
"""

import repro
from repro.core import MapConfig
from repro.core.maps import MapGenerator
from repro.harness.reporting import Table


def main() -> None:
    # ------------------------------------------------------------ 1. workload
    # One context = one (seed, scale) universe; workloads, traces and
    # simulations are all memoized inside it. REPRO_SCALE=0.25 shrinks
    # the dataset (and the cache structures with it) for a quick pass.
    ctx = repro.ExperimentContext(seed=7, workloads=["jpeg"])
    workload = ctx.workload("jpeg")
    print(workload.describe())

    # ------------------------------------------------- 2. approximate similarity
    # Find two image blocks the hardware would deem doppelgängers:
    # different addresses, same (average, range) map.
    image = workload.region_data("image").astype(float)
    region = workload.region("image")
    gen = MapGenerator(MapConfig(bits=14), region.vmin, region.vmax, region.dtype)
    blocks = image.reshape(-1, 64)
    maps = gen.compute_batch(blocks)
    seen = {}
    pair = None
    for i, m in enumerate(maps):
        if m in seen:
            pair = (seen[m], i)
            break
        seen[m] = i
    a, b = pair
    block_a, block_b = blocks[a], blocks[b]
    print(f"\nblock {a:5d}: avg={block_a.mean():6.2f} "
          f"range={block_a.max() - block_a.min():5.1f} map={maps[a]}")
    print(f"block {b:5d}: avg={block_b.mean():6.2f} "
          f"range={block_b.max() - block_b.min():5.1f} map={maps[b]}")
    print("-> equal maps: these blocks would share ONE data-array entry\n")

    # ------------------------------------------------------ 3. cycle simulation
    trace = ctx.trace("jpeg")
    print(f"trace: {len(trace)} accesses, {trace.footprint_bytes() // 1024} KB footprint")

    # repro.simulate = trace -> 4-core hierarchy -> timing + energy,
    # memoized per (workload, config). "baseline" and "dopp" are
    # shorthands for the paper's configurations.
    base = repro.simulate("jpeg", "baseline", ctx=ctx)
    spec = repro.dopp_spec(map_bits=14, data_fraction=0.25)
    dopp = repro.simulate("jpeg", spec, ctx=ctx)

    table = Table("Baseline 2MB LLC vs split Doppelgänger (1MB precise + 1/4 data)",
                  ["metric", "baseline", "doppelganger"])
    table.add_row("cycles", base.system.cycles, dopp.system.cycles)
    table.add_row("LLC misses", base.system.llc_misses, dopp.system.llc_misses)
    table.add_row("off-chip KB", base.system.traffic_bytes // 1024,
                  dopp.system.traffic_bytes // 1024)
    table.add_row("tags per shared entry (current)", None,
                  round(dopp.llc_stats["tags_per_entry"], 2))
    print()
    print(table.render())

    # ------------------------------------------------------------- 4. error
    approximator = spec.approximator(ctx.size_factor)
    error = workload.evaluate_error(approximator)
    print(f"\napplication output error: {100 * error:.2f}% "
          f"(sharing rate {approximator.sharing_rate():.2f})")

    # ------------------------------------------------------------ 5. energy
    # Every RunRecord carries its energy report; rec.to_dict() bundles
    # config + system + energy in the unified JSON schema.
    base_energy, dopp_energy = base.energy, dopp.energy
    print(f"\nLLC area:           {base_energy.area_mm2:.2f} mm2 -> "
          f"{dopp_energy.area_mm2:.2f} mm2 "
          f"({base_energy.area_mm2 / dopp_energy.area_mm2:.2f}x reduction)")
    print(f"LLC dynamic energy: {base_energy.dynamic_pj / 1e6:.2f} uJ -> "
          f"{dopp_energy.dynamic_pj / 1e6:.2f} uJ "
          f"({base_energy.dynamic_pj / dopp_energy.dynamic_pj:.2f}x reduction)")


if __name__ == "__main__":
    main()
