"""Experiment drivers and strategies: one per table/figure of the paper.

Every driver takes an :class:`~repro.harness.runner.ExperimentContext`
(except the two config-only ones) and returns one or more
:class:`~repro.harness.reporting.Table` objects whose rows mirror the
paper's series. The benchmark suite in ``benchmarks/`` wraps each
driver, prints the tables and records timings; EXPERIMENTS.md records
the paper-vs-measured comparison.

Each driver is registered with
:func:`~repro.harness.strategy.experiment`, which declares its name,
description and simulation requirements and appends it to
:data:`STRATEGIES` (paper order) — what the global strategy registry
discovers from this module. The CLI, :func:`repro.run_experiment` and
the ``--jobs`` prefetch planner all dispatch through that registry,
while the benchmark suite and the seed-sweep harness call the driver
functions directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.similarity import threshold_storage_savings
from repro.analysis.storage import (
    LLCSnapshot,
    bdi_savings,
    dedup_savings,
    doppelganger_bdi_savings,
    doppelganger_savings,
    snapshot_from_system,
    snapshot_from_workload,
)
from repro.core.maps import MapConfig
from repro.energy.cacti import CactiModel
from repro.energy.structures import (
    TABLE3_PUBLISHED,
    baseline_llc_structure,
    doppelganger_structures,
    unidoppelganger_structures,
)
from repro.harness.reporting import Table, arithmetic_mean, geometric_mean
from repro.harness.runner import (
    ConfigSpec,
    ExperimentContext,
    baseline_spec,
    dopp_spec,
    uni_spec,
)
from repro.harness.strategy import Requirements, experiment

#: The built-in strategies in paper order, appended by the
#: :func:`~repro.harness.strategy.experiment` registrations below.
STRATEGIES: list = []

#: Fig. 2's similarity thresholds, as fractions.
FIG2_THRESHOLDS = (0.0, 0.0001, 0.001, 0.01, 0.10)
#: Map-space sweep of Figs. 7 and 9.
MAP_BITS_SWEEP = (12, 13, 14)
#: Data-array sweep of Figs. 10-12 (fractions of the 16 K tag count).
DATA_FRACTIONS = (0.5, 0.25, 0.125)
#: uniDoppelgänger sweep of Figs. 13-14 (fractions of 32 K blocks).
UNI_FRACTIONS = (0.75, 0.5, 0.25)
#: Per-read fault probabilities of the resilience sweep. The zero rate
#: is deliberate: it normalizes to the fault-free spec, pinning the
#: "zero-rate == disabled" identity in every faultsweep run.
FAULT_RATE_SWEEP = (0.0, 1e-4, 1e-3, 1e-2)
#: Fault-stream seed of the sweep (fixed: the sweep varies rate only).
FAULT_SEED = 11


def fault_config(rate: float) -> "FaultConfig":
    """The sweep's fault model at one per-read rate.

    Two-bit transient flips on every read of the unprotected structures
    — the approximate data array and DRAM transfers of approximate
    lines (precise DRAM lines stay ECC-protected and only pay refetch
    latency).
    """
    from repro.resilience.faults import FaultConfig

    return FaultConfig(
        seed=FAULT_SEED, read_rate=rate, flip_bits=2,
        targets=("approx_data", "dram"),
    )


def faultsweep_specs() -> list:
    """The base Doppelgänger config under each sweep fault rate."""
    return [
        dopp_spec(14, 0.25).with_faults(fault_config(r))
        for r in FAULT_RATE_SWEEP
    ]


def _sweep(specs, errors: bool = True) -> Requirements:
    """Requirements of a sweep: the baseline plus ``specs`` simulated,
    and the output error of ``specs`` evaluated when ``errors``."""
    specs = tuple(specs)
    return Requirements(
        run_specs=(baseline_spec(),) + specs,
        error_specs=specs if errors else (),
    )


def _snapshot(ctx: ExperimentContext, name: str) -> LLCSnapshot:
    """Approximate-data snapshot for storage analyses (Figs. 2, 7, 8)."""
    return snapshot_from_workload(ctx.workload(name))


# --------------------------------------------------------------------- Fig 2


@experiment("fig02", "storage savings vs element-wise similarity threshold")
def fig02_threshold_similarity(
    ctx: ExperimentContext, max_blocks_per_region: int = 3072
) -> Table:
    """Fig. 2: storage savings vs element-wise similarity threshold T.

    The greedy leader clustering behind the pairwise-similarity measure
    is O(blocks x leaders); large regions are sampled evenly (at most
    ``max_blocks_per_region`` blocks), mirroring the paper's sampling
    of LLC-resident blocks.
    """
    headers = ["workload"] + [f"T={100 * t:g}%" for t in FIG2_THRESHOLDS]
    table = Table("Fig. 2: approx data storage savings vs similarity threshold", headers)
    for name in ctx.names:
        snapshot = _snapshot(ctx, name)
        groups = []
        for region, blocks in snapshot.groups():
            if len(blocks) > max_blocks_per_region:
                step = len(blocks) // max_blocks_per_region
                blocks = blocks[::step][:max_blocks_per_region]
            groups.append((region, blocks))
        row = [name]
        for t in FIG2_THRESHOLDS:
            savings = []
            for region, blocks in groups:
                value_range = region.vmax - region.vmin
                savings.append(
                    (len(blocks), threshold_storage_savings(blocks, t, value_range))
                )
            total = sum(n for n, _ in savings)
            row.append(sum(n * s for n, s in savings) / total if total else 0.0)
        table.add_row(*row)
    return table


# ------------------------------------------------------------------- Table 2


@experiment(
    "table2",
    "approximate fraction of LLC blocks vs paper",
    requires=Requirements(run_specs=(baseline_spec(),)),
)
def table2_approx_footprint(ctx: ExperimentContext) -> Table:
    """Table 2: percentage of LLC blocks that are approximate.

    Measured over the baseline 2 MB LLC's resident blocks at the end
    of each workload's simulation, side by side with the paper's
    reported percentage.
    """
    table = Table(
        "Table 2: approximate fraction of LLC blocks",
        ["workload", "measured %", "paper %"],
        precision=1,
    )
    for name in ctx.names:
        record = ctx.run(name, baseline_spec())
        llc = record.llc
        trace = ctx.trace(name)
        total = 0
        approx = 0
        for addr in llc.cache.resident_addrs():
            total += 1
            region = trace.regions.find(addr)
            if region is not None and region.approx:
                approx += 1
        measured = 100.0 * approx / total if total else 0.0
        table.add_row(name, measured, ctx.workload(name).paper_approx_footprint)
    return table


# --------------------------------------------------------------------- Fig 7


@experiment("fig07", "approx data storage savings vs map space size")
def fig07_map_space_savings(
    ctx: ExperimentContext, bits_sweep: Sequence[int] = MAP_BITS_SWEEP
) -> Table:
    """Fig. 7: approximate-data storage savings vs map-space size."""
    headers = ["workload"] + [f"{b}-bit" for b in bits_sweep]
    table = Table("Fig. 7: approx data storage savings vs map space size", headers)
    per_bits = {b: [] for b in bits_sweep}
    for name in ctx.names:
        snapshot = _snapshot(ctx, name)
        row = [name]
        for b in bits_sweep:
            s = doppelganger_savings(snapshot, MapConfig(b))
            row.append(s)
            per_bits[b].append(s)
        table.add_row(*row)
    table.add_row("mean", *[arithmetic_mean(per_bits[b]) for b in bits_sweep])
    table.add_note("paper means: 65.2% (12-bit), ~50% (13-bit), 37.9% (14-bit)")
    return table


# --------------------------------------------------------------------- Fig 8


@experiment("fig08", "storage savings vs compression and deduplication")
def fig08_compression_comparison(ctx: ExperimentContext) -> Table:
    """Fig. 8: Doppelgänger vs BΔI vs exact dedup (and Dopp+BΔI)."""
    table = Table(
        "Fig. 8: storage savings vs compression and deduplication",
        ["workload", "BdI", "exact dedup", "14-bit Dopp", "14-bit Dopp + BdI"],
    )
    cols = {k: [] for k in ("bdi", "dedup", "dopp", "both")}
    for name in ctx.names:
        snapshot = _snapshot(ctx, name)
        bdi = bdi_savings(snapshot)
        dedup = dedup_savings(snapshot)
        dopp = doppelganger_savings(snapshot, MapConfig(14))
        both = doppelganger_bdi_savings(snapshot, MapConfig(14))
        table.add_row(name, bdi, dedup, dopp, both)
        cols["bdi"].append(bdi)
        cols["dedup"].append(dedup)
        cols["dopp"].append(dopp)
        cols["both"].append(both)
    table.add_row(
        "mean",
        arithmetic_mean(cols["bdi"]),
        arithmetic_mean(cols["dedup"]),
        arithmetic_mean(cols["dopp"]),
        arithmetic_mean(cols["both"]),
    )
    table.add_note("paper means: BdI 20.9%, dedup 5.3%, Dopp 37.9%, Dopp+BdI 43.9%")
    return table


# --------------------------------------------------------------------- Fig 9


@experiment(
    "fig09",
    "output error and normalized runtime vs map bits",
    requires=_sweep(dopp_spec(b, 0.25) for b in MAP_BITS_SWEEP),
)
def fig09_map_space(ctx: ExperimentContext) -> Dict[str, Table]:
    """Fig. 9: output error (a) and normalized runtime (b) vs map bits."""
    specs = {b: dopp_spec(map_bits=b, data_fraction=0.25) for b in MAP_BITS_SWEEP}
    err = Table(
        "Fig. 9a: output error vs map space size",
        ["workload"] + [f"{b}-bit" for b in MAP_BITS_SWEEP],
    )
    run = Table(
        "Fig. 9b: normalized runtime vs map space size",
        ["workload"] + [f"{b}-bit" for b in MAP_BITS_SWEEP],
    )
    runtime_cols = {b: [] for b in MAP_BITS_SWEEP}
    for name in ctx.names:
        err.add_row(name, *[ctx.error(name, specs[b]) for b in MAP_BITS_SWEEP])
        runtimes = [ctx.normalized_runtime(name, specs[b]) for b in MAP_BITS_SWEEP]
        run.add_row(name, *runtimes)
        for b, r in zip(MAP_BITS_SWEEP, runtimes):
            runtime_cols[b].append(r)
    run.add_row("geomean", *[geometric_mean(runtime_cols[b]) for b in MAP_BITS_SWEEP])
    err.add_note("paper: error decreases with map bits; <=~10% except ferret/swaptions")
    run.add_note("paper: <1% average runtime delta between 12- and 14-bit")
    return {"error": err, "runtime": run}


# -------------------------------------------------------------------- Fig 10


@experiment(
    "fig10",
    "output error and normalized runtime vs data array size",
    requires=_sweep(dopp_spec(14, f) for f in DATA_FRACTIONS),
)
def fig10_data_array(ctx: ExperimentContext) -> Dict[str, Table]:
    """Fig. 10: output error (a) and normalized runtime (b) vs data array."""
    specs = {f: dopp_spec(map_bits=14, data_fraction=f) for f in DATA_FRACTIONS}
    labels = ["1/2", "1/4", "1/8"]
    err = Table(
        "Fig. 10a: output error vs approximate data array size",
        ["workload"] + [f"{lab} data array" for lab in labels],
    )
    run = Table(
        "Fig. 10b: normalized runtime vs approximate data array size",
        ["workload"] + [f"{lab} data array" for lab in labels],
    )
    stats = Table(
        "Fig. 10 companion: Doppelgänger replacement statistics (1/4 array)",
        ["workload", "tags/entry (resident)", "tags/evicted entry",
         "dirty evictions %", "hit rate %"],
        precision=2,
    )
    runtime_cols = {f: [] for f in DATA_FRACTIONS}
    for name in ctx.names:
        err.add_row(name, *[ctx.error(name, specs[f]) for f in DATA_FRACTIONS])
        runtimes = [ctx.normalized_runtime(name, specs[f]) for f in DATA_FRACTIONS]
        run.add_row(name, *runtimes)
        for f, r in zip(DATA_FRACTIONS, runtimes):
            runtime_cols[f].append(r)
        dopp = ctx.run(name, specs[0.25]).llc.dopp
        d = dopp.stats
        stats.add_row(
            name,
            dopp.current_avg_tags_per_entry(),
            d.avg_tags_per_evicted_entry,
            100.0 * d.dirty_eviction_fraction,
            100.0 * d.hit_rate,
        )
    run.add_row("geomean", *[geometric_mean(runtime_cols[f]) for f in DATA_FRACTIONS])
    run.add_note("paper: 2.3% average runtime increase with the 1/4 data array")
    stats.add_note("paper: on average 4.4 tags per data entry; 5.1% dirty evictions")
    return {"error": err, "runtime": run, "stats": stats}


# -------------------------------------------------------------------- Fig 11


@experiment(
    "fig11",
    "LLC dynamic and leakage energy reduction",
    requires=_sweep((dopp_spec(14, f) for f in DATA_FRACTIONS), errors=False),
)
def fig11_energy_reduction(ctx: ExperimentContext) -> Dict[str, Table]:
    """Fig. 11: LLC dynamic (a) and leakage (b) energy reductions."""
    specs = {f: dopp_spec(map_bits=14, data_fraction=f) for f in DATA_FRACTIONS}
    labels = ["1/2", "1/4", "1/8"]
    dyn = Table(
        "Fig. 11a: LLC dynamic energy reduction (x)",
        ["workload"] + [f"{lab} data array" for lab in labels],
        precision=2,
    )
    leak = Table(
        "Fig. 11b: LLC leakage energy reduction (x)",
        ["workload"] + [f"{lab} data array" for lab in labels],
        precision=2,
    )
    dyn_cols = {f: [] for f in DATA_FRACTIONS}
    leak_cols = {f: [] for f in DATA_FRACTIONS}
    for name in ctx.names:
        dyn_vals = [ctx.dynamic_energy_reduction(name, specs[f]) for f in DATA_FRACTIONS]
        leak_vals = [ctx.leakage_energy_reduction(name, specs[f]) for f in DATA_FRACTIONS]
        dyn.add_row(name, *dyn_vals)
        leak.add_row(name, *leak_vals)
        for f, d, l in zip(DATA_FRACTIONS, dyn_vals, leak_vals):
            dyn_cols[f].append(d)
            leak_cols[f].append(l)
    dyn.add_row("geomean", *[geometric_mean(dyn_cols[f]) for f in DATA_FRACTIONS])
    leak.add_row("geomean", *[geometric_mean(leak_cols[f]) for f in DATA_FRACTIONS])
    dyn.add_note("paper: 2.55x dynamic energy reduction with the 1/4 data array")
    leak.add_note("paper: 1.41x leakage energy reduction with the 1/4 data array")
    return {"dynamic": dyn, "leakage": leak}


# -------------------------------------------------------------------- Fig 12


@experiment(
    "fig12",
    "normalized off-chip memory traffic",
    requires=_sweep((dopp_spec(14, f) for f in DATA_FRACTIONS), errors=False),
)
def fig12_offchip_traffic(ctx: ExperimentContext) -> Table:
    """Fig. 12: off-chip memory traffic normalized to baseline."""
    specs = {f: dopp_spec(map_bits=14, data_fraction=f) for f in DATA_FRACTIONS}
    labels = ["1/2", "1/4", "1/8"]
    table = Table(
        "Fig. 12: normalized off-chip memory traffic",
        ["workload"] + [f"{lab} data array" for lab in labels],
    )
    cols = {f: [] for f in DATA_FRACTIONS}
    for name in ctx.names:
        vals = [ctx.normalized_traffic(name, specs[f]) for f in DATA_FRACTIONS]
        table.add_row(name, *vals)
        for f, v in zip(DATA_FRACTIONS, vals):
            cols[f].append(v)
    table.add_row("geomean", *[geometric_mean(cols[f]) for f in DATA_FRACTIONS])
    table.add_note("paper: +1.1% (1/2) and +3.4% (1/4) average traffic")
    return table


# -------------------------------------------------------------------- Fig 13


@experiment(
    "fig13",
    "LLC area reduction across both designs",
    requires=Requirements(context=False),
)
def fig13_area_reduction(cacti: Optional[CactiModel] = None) -> Table:
    """Fig. 13: LLC area reduction across both designs (config-only)."""
    cacti = cacti or CactiModel()
    base_area = cacti.area_mm2(baseline_llc_structure())
    table = Table(
        "Fig. 13: LLC area reduction (x) relative to baseline 2MB",
        ["design", "data array", "area mm2", "reduction x"],
        precision=2,
    )
    for frac, label in zip(DATA_FRACTIONS, ("1/2", "1/4", "1/8")):
        structs = doppelganger_structures(data_fraction=frac)
        area = sum(cacti.area_mm2(s) for s in structs.values())
        table.add_row("Doppelganger", label, area, base_area / area)
    for frac, label in zip(UNI_FRACTIONS, ("3/4", "1/2", "1/4")):
        structs = unidoppelganger_structures(data_fraction=frac)
        area = sum(cacti.area_mm2(s) for s in structs.values())
        table.add_row("uniDoppelganger", label, area, base_area / area)
    table.add_note("paper: Dopp 1.36x/1.55x/1.70x; uniDopp 1/4 reaches 3.15x")
    return table


# -------------------------------------------------------------------- Fig 14


@experiment(
    "fig14",
    "uniDoppelganger error, runtime and dynamic energy",
    requires=_sweep(uni_spec(14, f) for f in UNI_FRACTIONS),
)
def fig14_unidoppelganger(ctx: ExperimentContext) -> Dict[str, Table]:
    """Fig. 14: uniDoppelgänger error, runtime, and dynamic energy."""
    specs = {f: uni_spec(map_bits=14, data_fraction=f) for f in UNI_FRACTIONS}
    labels = ["3/4", "1/2", "1/4"]
    err = Table(
        "Fig. 14a: uniDoppelganger output error",
        ["workload"] + [f"{lab} data array" for lab in labels],
    )
    run = Table(
        "Fig. 14b: uniDoppelganger normalized runtime",
        ["workload"] + [f"{lab} data array" for lab in labels],
    )
    dyn = Table(
        "Fig. 14c: uniDoppelganger LLC dynamic energy reduction (x)",
        ["workload"] + [f"{lab} data array" for lab in labels],
        precision=2,
    )
    run_cols = {f: [] for f in UNI_FRACTIONS}
    dyn_cols = {f: [] for f in UNI_FRACTIONS}
    for name in ctx.names:
        err.add_row(name, *[ctx.error(name, specs[f]) for f in UNI_FRACTIONS])
        runtimes = [ctx.normalized_runtime(name, specs[f]) for f in UNI_FRACTIONS]
        run.add_row(name, *runtimes)
        dyn_vals = [ctx.dynamic_energy_reduction(name, specs[f]) for f in UNI_FRACTIONS]
        dyn.add_row(name, *dyn_vals)
        for f, r, d in zip(UNI_FRACTIONS, runtimes, dyn_vals):
            run_cols[f].append(r)
            dyn_cols[f].append(d)
    run.add_row("geomean", *[geometric_mean(run_cols[f]) for f in UNI_FRACTIONS])
    dyn.add_row("geomean", *[geometric_mean(dyn_cols[f]) for f in UNI_FRACTIONS])
    dyn.add_note("paper: 2.45x dynamic energy reduction with the 1/4 (512KB) array")
    return {"error": err, "runtime": run, "dynamic": dyn}


# ------------------------------------------------------------------- Table 3


@experiment(
    "table3",
    "per-structure size, area, latency and energy",
    requires=Requirements(context=False),
)
def table3_hardware_cost(cacti: Optional[CactiModel] = None) -> Table:
    """Table 3: per-structure size / area / latency / energy.

    Sizes are exact bit-level accounting (they match the paper's
    numbers identically); area/latency/energy come from the calibrated
    model, shown beside the published CACTI values.
    """
    cacti = cacti or CactiModel()
    structs = {"baseline_llc": baseline_llc_structure()}
    structs.update(doppelganger_structures())
    structs.update(unidoppelganger_structures())
    table = Table(
        "Table 3: hardware cost, access latency and energy",
        [
            "structure",
            "entries",
            "tag bits",
            "size KB",
            "paper KB",
            "area mm2",
            "paper mm2",
            "tag ns",
            "data ns",
            "tag pJ",
            "data pJ",
        ],
        precision=2,
    )
    for name, s in structs.items():
        published = TABLE3_PUBLISHED.get(name, (None, None, None, None, None, None))
        table.add_row(
            name,
            s.entries,
            s.tag_entry_bits,
            s.total_kb,
            published[0],
            cacti.area_mm2(s),
            published[1],
            cacti.tag_latency_ns(s),
            cacti.data_latency_ns(s) if s.has_data else None,
            cacti.tag_energy_pj(s),
            cacti.data_energy_pj(s) if s.has_data else None,
        )
    table.add_note("sizes and entry widths reproduce Table 3 exactly; "
                   "area/latency/energy from the calibrated CACTI-like model")
    return table


@experiment(
    "headline",
    "the abstract's headline claims, measured",
    requires=_sweep([dopp_spec(14, 0.25)], errors=False),
)
def summary_headline(ctx: ExperimentContext) -> Table:
    """The abstract's headline claims, measured.

    1.55x area, 2.55x dynamic energy, 1.41x leakage energy, +2.3%
    runtime for the base (14-bit, 1/4) configuration.
    """
    spec = dopp_spec(14, 0.25)
    cacti = ctx.energy_model.cacti
    base_area = cacti.area_mm2(baseline_llc_structure())
    dopp_area = sum(
        cacti.area_mm2(s) for s in doppelganger_structures(data_fraction=0.25).values()
    )
    runtimes = [ctx.normalized_runtime(name, spec) for name in ctx.names]
    dyn = [ctx.dynamic_energy_reduction(name, spec) for name in ctx.names]
    leak = [ctx.leakage_energy_reduction(name, spec) for name in ctx.names]
    table = Table(
        "Headline claims (base 14-bit, 1/4 data array)",
        ["metric", "measured", "paper"],
        precision=2,
    )
    table.add_row("LLC area reduction (x)", base_area / dopp_area, 1.55)
    table.add_row("LLC dynamic energy reduction (x, geomean)", geometric_mean(dyn), 2.55)
    table.add_row("LLC leakage energy reduction (x, geomean)", geometric_mean(leak), 1.41)
    table.add_row(
        "runtime increase (%, geomean)", 100.0 * (geometric_mean(runtimes) - 1.0), 2.3
    )
    return table


# --------------------------------------------------------------- faultsweep


@experiment(
    "faultsweep",
    "output quality and cost vs injected fault rate",
    # Built on use: the sweep specs pull in the fault model.
    requires=lambda: _sweep(faultsweep_specs()),
)
def faultsweep_resilience(ctx: ExperimentContext) -> Dict[str, Table]:
    """Resilience sweep: output quality and cost vs injected fault rate.

    The base (14-bit, 1/4 data array) Doppelgänger runs with seeded
    transient bit flips injected into its unprotected structures (the
    approximate data array and approximate DRAM transfers) at the
    rates of :data:`FAULT_RATE_SWEEP`. Three views:

    * ``error`` — application output error per rate (the quality cost
      of running approximate storage without ECC);
    * ``runtime`` — runtime normalized to the fault-free baseline LLC
      (detected faults on precise DRAM lines refetch, so the timing
      cost also grows with rate);
    * ``injected`` — silent faults the timing simulation counted, the
      determinism anchor: same seed, same counts, every run.
    """
    rates = FAULT_RATE_SWEEP
    specs = {r: spec for r, spec in zip(rates, faultsweep_specs())}
    cols = [f"rate {r:g}" for r in rates]
    err = Table(
        "Faultsweep: output error vs per-read fault rate (14-bit, 1/4 array)",
        ["workload"] + cols,
    )
    run = Table(
        "Faultsweep: normalized runtime vs per-read fault rate",
        ["workload"] + cols,
    )
    injected = Table(
        "Faultsweep: silent faults injected (timing simulation)",
        ["workload"] + cols,
        precision=0,
    )
    runtime_cols = {r: [] for r in rates}
    for name in ctx.names:
        err.add_row(name, *[ctx.error(name, specs[r]) for r in rates])
        runtimes = [ctx.normalized_runtime(name, specs[r]) for r in rates]
        run.add_row(name, *runtimes)
        for r, v in zip(rates, runtimes):
            runtime_cols[r].append(v)
        counts = []
        for r in rates:
            rec = ctx.run(name, specs[r])
            counts.append(
                sum(s["faults"] for s in rec.faults["sites"].values())
                if rec.faults is not None
                else 0
            )
        injected.add_row(name, *counts)
    run.add_row("geomean", *[geometric_mean(runtime_cols[r]) for r in rates])
    err.add_note("rate 0 is the fault-free config (zero-rate == disabled)")
    injected.add_note("counts are deterministic in (seed, rate): see "
                      "docs/robustness.md")
    return {"error": err, "runtime": run, "injected": injected}


def experiment_names() -> list:
    """All registered experiment names, in registry order.

    Built-ins come first in paper (declaration) order, followed by any
    ``repro.experiments`` entry-point plugins sorted by name — see
    :class:`repro.harness.strategy.StrategyRegistry`.
    """
    from repro.harness.strategy import registry

    return registry.names()
