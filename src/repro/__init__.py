"""Reproduction of *Doppelgänger: A Cache for Approximate Computing*.

San Miguel, Albericio, Moshovos, Enright Jerger — MICRO-48, 2015.

The package is organized as a set of substrates (a generic set-associative
cache simulator, a coherent multi-level hierarchy, a CACTI-like energy/area
model, trace infrastructure and nine annotated workloads) plus the paper's
contribution (the Doppelgänger and uniDoppelgänger caches) and an
experiment harness that regenerates every table and figure of the paper's
evaluation section.

The stable public API (see ``docs/api.md``)::

    import repro

    record = repro.simulate("jpeg", "dopp", scale=0.25)
    tables = repro.run_experiment("table2", scale=0.25)

See ``examples/quickstart.py`` for a complete runnable tour.
"""

from typing import TYPE_CHECKING

__version__ = "2.0.0"

#: Lazily resolved exports (PEP 562): attribute -> defining module.
#: Keeps ``import repro`` light — the simulator only loads when used.
_LAZY_EXPORTS = {
    "simulate": "repro.api",
    "run_experiment": "repro.api",
    "as_spec": "repro.api",
    "ConfigSpec": "repro.harness.runner",
    "ExperimentContext": "repro.harness.runner",
    "RunRecord": "repro.harness.runner",
    "baseline_spec": "repro.harness.runner",
    "dopp_spec": "repro.harness.runner",
    "uni_spec": "repro.harness.runner",
    "run_trace": "repro.harness.runner",
    "experiment_names": "repro.harness.strategy",
    "ExperimentStrategy": "repro.harness.strategy",
    "Requirements": "repro.harness.strategy",
    "StrategyRegistry": "repro.harness.strategy",
    "run_strategies": "repro.harness.strategy",
    "ingest_trace": "repro.ingest",
    "IngestOptions": "repro.ingest",
    "SystemResult": "repro.hierarchy.system",
    "System": "repro.hierarchy.system",
    "engine_names": "repro.engine",
    "get_engine": "repro.engine",
    "FaultConfig": "repro.resilience.faults",
    "FaultInjector": "repro.resilience.faults",
    "ReproError": "repro.errors",
    "Cancelled": "repro.errors",
    "ConfigError": "repro.errors",
    "TraceFormatError": "repro.errors",
    "SimulationFault": "repro.errors",
    "UnknownExperimentError": "repro.errors",
}

__all__ = ["__version__"] + sorted(_LAZY_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.api import as_spec, run_experiment, simulate  # noqa: F401
    from repro.engine import engine_names, get_engine  # noqa: F401
    from repro.errors import (  # noqa: F401
        Cancelled,
        ConfigError,
        ReproError,
        SimulationFault,
        TraceFormatError,
        UnknownExperimentError,
    )
    from repro.resilience.faults import FaultConfig, FaultInjector  # noqa: F401
    from repro.harness.strategy import (  # noqa: F401
        ExperimentStrategy,
        Requirements,
        StrategyRegistry,
        experiment_names,
        run_strategies,
    )
    from repro.harness.runner import (  # noqa: F401
        ConfigSpec,
        ExperimentContext,
        RunRecord,
        baseline_spec,
        dopp_spec,
        run_trace,
        uni_spec,
    )
    from repro.ingest import IngestOptions, ingest_trace  # noqa: F401
    from repro.hierarchy.system import System, SystemResult  # noqa: F401


def __getattr__(name: str):
    """Resolve a public export on first access (PEP 562)."""
    try:
        module_name = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
