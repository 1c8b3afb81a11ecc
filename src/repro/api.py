"""Stable top-level API: :func:`simulate` and :func:`run_experiment`.

These two calls are the supported programmatic surface of the
reproduction (re-exported as ``repro.simulate`` /
``repro.run_experiment``; see ``docs/api.md``). Everything they return
serializes through one ``to_dict()`` schema shared with the CLI's
JSON output, so a script, ``results/json/*.json`` and the ``compare``
subcommand all consume the same shape.

Quick start::

    import repro

    record = repro.simulate("jpeg", "dopp", scale=0.25)
    print(record.system.cycles, record.to_dict()["system"]["llc_miss_rate"])

    tables = repro.run_experiment("table2", scale=0.25)
    print(tables[""].render())
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.harness.runner import (
    ConfigSpec,
    ExperimentContext,
    RunRecord,
    baseline_spec,
    dopp_spec,
    run_trace,
    uni_spec,
)

#: Shorthand accepted wherever a config is expected.
_KIND_SPECS = {
    "baseline": baseline_spec,
    "dopp": dopp_spec,
    "uni": uni_spec,
}


def as_spec(config) -> ConfigSpec:
    """Coerce ``config`` into a :class:`ConfigSpec`.

    Accepts a spec, ``None`` (baseline), or one of the kind shorthands
    ``"baseline"`` / ``"dopp"`` / ``"uni"`` (paper-default map bits
    and data fraction).
    """
    if config is None:
        return baseline_spec()
    if isinstance(config, ConfigSpec):
        return config
    if isinstance(config, str):
        try:
            return _KIND_SPECS[config]()
        except KeyError:
            raise ValueError(
                f"unknown config {config!r}; choose from {sorted(_KIND_SPECS)} "
                "or pass a ConfigSpec"
            ) from None
    raise TypeError(f"config must be a ConfigSpec, str or None, got {type(config)!r}")


def simulate(
    workload: Optional[str] = None,
    config=None,
    *,
    trace=None,
    engine: str = "batched",
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    faults=None,
    ctx: Optional[ExperimentContext] = None,
) -> RunRecord:
    """Simulate one workload — or one imported trace — under one config.

    Args:
        workload: benchmark name (see
            :func:`repro.workloads.registry.workload_names`). Mutually
            exclusive with ``trace``.
        config: a :class:`ConfigSpec`, a kind shorthand (``"baseline"``,
            ``"dopp"``, ``"uni"``) or ``None`` for the baseline LLC.
        trace: a :class:`~repro.trace.trace.Trace` or a path — ``.npz``
            archives load via :func:`repro.trace.io.load_trace`, any
            other path ingests via :func:`repro.ingest.ingest_trace`
            (format detected from the suffix). The trace's own regions
            drive the LLC; ``seed``/``scale``/``ctx`` do not apply.
        engine: ``"batched"`` (default) or ``"reference"`` — both are
            bit-identical; see :mod:`repro.engine`.
        seed: data-generation seed (``REPRO_SEED`` / 7 by default).
        scale: dataset scale (``REPRO_SCALE`` / 1.0 by default).
        faults: optional
            :class:`~repro.resilience.faults.FaultConfig` — seeded
            deterministic fault injection; the record then carries the
            fault report in ``.faults`` / ``to_dict()["faults"]``. A
            config that can never fault is treated as ``None``.
        ctx: reuse an existing context (its memo) instead of building
            a fresh one; ``seed``/``scale``/``engine`` are then
            ignored in favour of the context's.

    Returns:
        The :class:`RunRecord` — timing in ``.system``, energy in
        ``.energy``, the end-of-run LLC numbers in ``.llc_stats``, JSON
        form via ``.to_dict()``. Workload runs are memoized on the
        context; trace runs are standalone. The record holds no live
        LLC: to inspect one, build a :class:`~repro.hierarchy.system.System`
        directly (see ``examples/multiprogram.py``).
    """
    from repro.errors import ConfigError

    if (workload is None) == (trace is None):
        raise ConfigError(
            "pass exactly one of 'workload' or 'trace'", field="workload"
        )
    spec = as_spec(config)
    if faults is not None:
        spec = spec.with_faults(faults)
    if trace is not None:
        if isinstance(trace, str):
            if trace.endswith(".npz"):
                from repro.trace.io import load_trace

                trace = load_trace(trace)
            else:
                from repro.ingest import ingest_trace

                trace = ingest_trace(trace)
        return run_trace(trace, spec, engine=engine)
    if ctx is None:
        ctx = ExperimentContext(
            seed=seed, scale=scale, workloads=[workload], engine=engine
        )
    return ctx.run(workload, spec)


def run_experiment(
    experiment,
    *,
    ctx: Optional[ExperimentContext] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    workloads: Optional[Sequence[str]] = None,
    engine: Optional[str] = None,
    jobs: int = 1,
    json_dir: Optional[str] = None,
) -> Dict[str, "object"]:
    """Run one experiment strategy and return its tables.

    Args:
        experiment: a registered experiment name (``repro.cli list``
            prints them all, including installed plugins), or an
            :class:`~repro.harness.strategy.ExperimentStrategy`
            instance/class — an unregistered strategy object runs
            directly, no registration required.
        ctx: reuse an existing context; otherwise one is built from
            ``seed`` / ``scale`` / ``workloads`` / ``engine``.
        jobs: with ``jobs > 1``, prefetch the simulations the
            strategy's ``requires`` metadata declares across a process
            pool first (results are identical to a sequential run; see
            :mod:`repro.harness.parallel`).
        json_dir: also serialize the tables to
            ``<json_dir>/<name>.json`` via the unified ``to_dict()``
            schema.

    Returns:
        Mapping of sub-table key to
        :class:`~repro.harness.reporting.Table` (single-table
        experiments use the key ``""``).

    Raises:
        UnknownExperimentError: ``experiment`` is a name not present
            in the strategy registry (a :class:`ValueError` subclass,
            so pre-existing ``except ValueError`` callers still work).
    """
    from repro.harness.strategy import registry, run_strategies

    strategy = registry.resolve(experiment)
    result = run_strategies(
        [strategy],
        ctx=ctx,
        seed=seed,
        scale=scale,
        workloads=workloads,
        engine=engine,
        jobs=jobs,
        json_dir=json_dir,
    )
    return result.outcomes[0].tables
