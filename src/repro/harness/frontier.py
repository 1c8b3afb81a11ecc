"""The ``frontier`` experiment: closed-loop energy/fault Pareto search.

Where ``faultsweep`` measures fixed fault rates open-loop, this
strategy closes the loop: an
:class:`~repro.resilience.controller.ErrorBudgetController` per
workload searches the voltage ladder of
:mod:`repro.resilience.energy` for the most aggressive operating point
whose output error still fits the declared budget, degrading
gracefully (voltage stepped back up, or full precise fallback) when a
probe blows it. The result is the paper-level Pareto frontier: energy
saved vs. output error vs. survivable fault rate, per workload.

Workload searches are independent, so with ``--jobs N`` each round's
probes fan across worker processes
(:func:`~repro.harness.parallel.prefetch_pairs`). The search is an
ordinary client of the context memo: in a recorded run every probe's
simulation and output error land in the history store's ``memo``
table, and a search rerun with ``--resume`` restarts at step 0,
re-walks its bracket through memo hits and simulates only the probes
the store lacks, with byte-identical results. Controller decisions are
``controller_step`` / ``controller_degrade`` / ``controller_converged``
run events (``ctx.emit``) and the frontier lands in per-workload
gauges.

Tune with ``--error-budget`` / ``--voltage-steps`` on the CLI (they
arrive here through ``ctx.strategy_options``); see
``docs/robustness.md`` for the full algorithm.
"""

from __future__ import annotations

from typing import Dict, List

from repro.harness.reporting import Table
from repro.harness.runner import (
    ConfigSpec,
    ExperimentContext,
    baseline_spec,
    dopp_spec,
)
from repro.harness.strategy import Requirements, experiment
from repro.resilience.controller import (
    ErrorBudgetController,
    FrontierOptions,
    FrontierResult,
)
from repro.resilience.energy import (
    VoltageStep,
    energy_saved_fraction,
    voltage_ladder,
)

#: The base Doppelgänger design point the frontier degrades (the
#: paper's 14-bit, quarter-data-array configuration).
BASE_MAP_BITS = 14
BASE_DATA_FRACTION = 0.25


def frontier_base_spec() -> ConfigSpec:
    """The fault-free design point every voltage step derives from."""
    return dopp_spec(BASE_MAP_BITS, BASE_DATA_FRACTION)


def _step_spec(step: VoltageStep, options: FrontierOptions) -> ConfigSpec:
    """The config probing one voltage step (nominal → fault-free)."""
    return frontier_base_spec().with_faults(
        step.fault_config(options.fault_seed, options.targets)
    )


def _run_search(
    ctx: ExperimentContext, options: FrontierOptions, ladder
) -> List[FrontierResult]:
    """Drive every workload's search to completion, in lockstep rounds.

    Each round collects the pending probe of every unfinished
    controller; with ``ctx.jobs > 1`` the round's (workload, spec)
    pairs fan across worker processes before the controllers observe
    the results sequentially (deterministic order: ``ctx.names``).
    Probes already in the memo (resumed from the store) are hits.
    """
    controllers = {
        name: ErrorBudgetController(name, ladder, options, emit=ctx.emit)
        for name in ctx.names
    }
    while True:
        pending = [
            (name, step)
            for name in ctx.names
            if (step := controllers[name].pending_step()) is not None
        ]
        if not pending:
            break
        if ctx.jobs > 1:
            from repro.harness.parallel import prefetch_pairs

            pairs = [(name, _step_spec(step, options)) for name, step in pending]
            prefetch_pairs(
                ctx,
                run_pairs=pairs,
                error_pairs=pairs,
                jobs=ctx.jobs,
                timeout=ctx.timeout,
                retries=ctx.retries,
            )
        for name, step in pending:
            spec = _step_spec(step, options)
            error = ctx.error(name, spec)
            record = ctx.run(name, spec)
            controllers[name].observe(
                step.index,
                error=error,
                energy_saved=energy_saved_fraction(
                    record, step, ctx.energy_model
                ),
            )
    return [controllers[name].result() for name in ctx.names]


@experiment(
    "frontier",
    "closed-loop max survivable fault rate per error budget",
    requires=Requirements(
        run_specs=(baseline_spec(), frontier_base_spec()),
        error_specs=(frontier_base_spec(),),
    ),
)
def frontier_pareto(ctx: ExperimentContext) -> Dict[str, Table]:
    """Run the frontier search and render its Pareto tables.

    The main table has one row per workload — the converged operating
    point (budget, frontier voltage, survivable fault rate, observed
    error, energy credit, recommended post-hysteresis voltage, search
    cost, outcome). The ``points`` sub-table lists every evaluated
    (workload, step) sample — the full Pareto point cloud behind the
    frontier rows.
    """
    options = FrontierOptions.from_mapping(ctx.strategy_options)
    ladder = voltage_ladder(options.voltage_steps, options.v_nom, options.v_min)
    results = _run_search(ctx, options, ladder)

    table = Table(
        "Frontier: max survivable fault rate within the error budget",
        [
            "workload", "budget", "frontier_vdd", "survivable_rate",
            "output_error", "energy_saved_%", "operating_vdd", "evals",
            "status",
        ],
    )
    for res in results:
        frontier_step = res.step(res.frontier)
        operating_step = res.step(res.operating)
        table.add_row(
            res.workload,
            options.error_budget,
            frontier_step.vdd if frontier_step is not None else None,
            f"{res.survivable_rate:.3g}",
            res.frontier_error,
            100.0 * res.frontier_energy_saved,
            operating_step.vdd if operating_step is not None else None,
            len(res.evals),
            res.status,
        )
    table.add_note(
        f"ladder: {len(ladder)} steps, "
        f"{ladder[0].vdd:g} V down to {ladder[-1].vdd:g} V; "
        f"hysteresis {options.hysteresis} step(s); "
        f"max {options.max_evals} evals/workload"
    )
    table.add_note(
        "status precise = even the fault-free approximate config "
        "missed the budget; the workload runs fully precise"
    )

    points = Table(
        "Frontier: evaluated Pareto points (energy saved vs output error)",
        [
            "workload", "step", "vdd", "read_rate", "output_error",
            "energy_saved_%", "verdict",
        ],
    )
    for res in results:
        for entry in sorted(res.evals, key=lambda e: e["step"]):
            step = res.ladder[entry["step"]]
            points.add_row(
                res.workload,
                step.index,
                step.vdd,
                f"{step.read_rate:.3g}",
                entry["error"],
                100.0 * entry["energy_saved"],
                entry["verdict"],
            )

    if ctx.obs.enabled:
        reg = ctx.obs.registry
        reg.gauge("experiment.frontier.workloads_converged").set(
            sum(1 for r in results if r.converged)
        )
        reg.gauge("experiment.frontier.evals_total").set(
            sum(len(r.evals) for r in results)
        )
        for res in results:
            prefix = f"experiment.frontier.{res.workload}"
            reg.gauge(f"{prefix}.survivable_rate").set(res.survivable_rate)
            reg.gauge(f"{prefix}.output_error").set(res.frontier_error)
            reg.gauge(f"{prefix}.energy_saved").set(res.frontier_energy_saved)

    return {"": table, "points": points}

