"""Experiment strategies: the plugin API behind every harness run.

Every experiment of the paper's evaluation — and every scenario added
since — is an :class:`ExperimentStrategy`: a named object that
declares what it needs (:class:`Requirements`), produces its tables in
``execute()``, and is discovered through a :class:`StrategyRegistry`
rather than hard-coded CLI branches. The harness machinery that used
to be special-cased per experiment (``--jobs`` fan-splitting,
resume from the history store, retries, engine fallback, observability
phases, history-store recording) lives once in :func:`run_strategies`
and is driven purely by registry metadata, so a new experiment — in
this package or a third-party distribution — is a ~100-line class, not
a harness fork.

Discovery has two sources, in a deterministic, documented order:

1. **Built-ins** — the strategies in each registered builtin module's
   ``STRATEGIES`` sequence (paper/declaration order); the paper's
   drivers land there through :func:`experiment` registrations.
2. **Entry points** — distributions advertising the
   ``repro.experiments`` group, appended sorted by entry-point name.
   A plugin that fails to import is skipped with a warning (a broken
   third-party package must never take the CLI down), and an entry
   point whose name collides with an already-registered strategy is
   ignored (built-ins win).

Writing a plugin (see ``docs/experiments.md`` for the full guide)::

    from repro.harness.strategy import ExperimentStrategy, Requirements
    from repro.harness.reporting import Table
    from repro.harness.runner import baseline_spec, dopp_spec

    class MySweep(ExperimentStrategy):
        name = "mysweep"
        description = "my custom design-point sweep"
        requires = Requirements(
            context=True,
            run_specs=(baseline_spec(), dopp_spec(14, 0.25)),
        )

        def execute(self, ctx):
            table = Table("My sweep", ["workload", "cycles"])
            for name in ctx.names:
                table.add_row(name, ctx.run(name, dopp_spec(14, 0.25)).cycles)
            return {"": table}

    # pyproject.toml of the plugin distribution:
    # [project.entry-points."repro.experiments"]
    # mysweep = "myplugin:MySweep"

Once installed, ``repro experiments mysweep --jobs 2`` runs it with
prefetching, history recording and ``--resume`` — no harness changes.
"""

from __future__ import annotations

import os
import sys
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import Cancelled, ConfigError, UnknownExperimentError
from repro.harness.reporting import Table
from repro.harness.runner import ConfigSpec, ExperimentContext
from repro.obs import Observability

#: Entry-point group third-party distributions register strategies in.
ENTRY_POINT_GROUP = "repro.experiments"

#: What ``execute`` returns: sub-table key -> Table (``""`` = main).
Tables = Dict[str, Table]


@dataclass(frozen=True)
class Requirements:
    """What a strategy needs from the harness, as inert metadata.

    The generic driver (:func:`run_strategies`) consumes this, for
    context construction and the ``--jobs`` prefetch plan, instead of
    switching on experiment names.

    Attributes:
        context: whether the strategy needs an
            :class:`~repro.harness.runner.ExperimentContext` (workload
            instances, traces, the memoized run pipeline). Config-only
            analyses set this False and receive ``ctx=None``.
        run_specs: the :class:`~repro.harness.runner.ConfigSpec` set
            the strategy will simulate per workload — exactly what a
            ``--jobs N`` prefetch fans across workers.
        error_specs: the specs whose functional output error the
            strategy will evaluate (also prefetched).
    """

    context: bool = True
    run_specs: Tuple[ConfigSpec, ...] = ()
    error_specs: Tuple[ConfigSpec, ...] = ()

    def summary(self) -> str:
        """One-cell human summary for the registry table."""
        if not self.context:
            return "config-only"
        parts = ["context"]
        if self.run_specs:
            parts.append(f"{len(self.run_specs)} sim configs")
        if self.error_specs:
            parts.append(f"{len(self.error_specs)} error configs")
        return ", ".join(parts)


class ExperimentStrategy(ABC):
    """Base class every experiment implements.

    Lifecycle per invocation: ``setup(ctx)`` once, ``execute(ctx)``
    once (returning the tables), ``teardown(ctx)`` always — even when
    ``execute`` raised. ``ctx`` is the shared
    :class:`~repro.harness.runner.ExperimentContext` (or ``None`` for
    strategies whose :attr:`requires` declare ``context=False``).

    Class attributes:
        name: registry key, CLI name and JSON filename stem.
        description: one line for ``repro experiments --list``.
        requires: :class:`Requirements` metadata; override the class
            attribute, or redefine it as a property when the spec list
            is expensive to build.
    """

    name: str = ""
    description: str = ""
    requires: Requirements = Requirements()

    def setup(self, ctx: Optional[ExperimentContext]) -> None:
        """One-time preparation before :meth:`execute` (default no-op)."""

    @abstractmethod
    def execute(self, ctx: Optional[ExperimentContext]) -> Tables:
        """Produce the experiment's tables.

        Returns:
            Mapping of sub-table key to
            :class:`~repro.harness.reporting.Table`; single-table
            strategies may also return the bare ``Table``.
        """

    def teardown(self, ctx: Optional[ExperimentContext]) -> None:
        """Cleanup after :meth:`execute`, even on failure (default no-op)."""

    def declare_metrics(self) -> Tuple[str, ...]:
        """Custom metric names this strategy publishes while running.

        The driver pre-registers each as a gauge named
        ``experiment.<strategy>.<metric>`` in the run's metrics
        registry (when observability is enabled), so strategies can
        ``ctx.obs.registry.gauge(...)`` during :meth:`execute` and the
        values land in ``--metrics-out`` snapshots.
        """
        return ()

    def label(self) -> str:
        """Display name (the registry key)."""
        return self.name or type(self).__name__


class FunctionStrategy(ExperimentStrategy):
    """A strategy whose ``execute`` is one driver function.

    What :func:`experiment` registers. ``requires`` may be a
    zero-argument callable instead of a :class:`Requirements`, for spec
    lists too costly to build at import time; it is then rebuilt on
    each access.
    """

    def __init__(self, name: str, description: str, driver, requires):
        """Wrap ``driver`` (called as ``driver(ctx)``) under ``name``."""
        self.name = name
        self.description = description
        self.driver = driver
        self._requires = requires

    @property
    def requires(self) -> Requirements:
        """The driver's declared requirements."""
        if callable(self._requires):
            return self._requires()
        return self._requires

    def execute(self, ctx):
        """Run the driver (``ctx`` is None for config-only drivers)."""
        return self.driver(ctx)


def experiment(name: str, description: str, requires=Requirements()):
    """Decorator registering a driver function as a built-in experiment.

    Appends a :class:`FunctionStrategy` to the ``STRATEGIES`` list of
    the driver's module — the list :class:`StrategyRegistry` discovers
    built-ins from, so registration order is declaration order — and
    returns the driver unchanged for direct callers.
    """

    def register(driver):
        """Record ``driver`` in its module's ``STRATEGIES`` list."""
        module = sys.modules[driver.__module__]
        module.__dict__.setdefault("STRATEGIES", []).append(
            FunctionStrategy(name, description, driver, requires)
        )
        return driver

    return register


class StrategyRegistry:
    """Discovers and resolves :class:`ExperimentStrategy` instances.

    Iteration order is deterministic and documented: builtin modules'
    ``STRATEGIES`` sequences in declaration order, then entry-point
    strategies sorted by entry-point name. Lookups of unknown names
    raise :class:`~repro.errors.UnknownExperimentError` (exit code 2
    through the CLI), never a raw ``KeyError``.

    Args:
        builtin_modules: modules whose ``STRATEGIES`` sequence (classes
            or instances) is registered on first use.
        entry_point_group: importlib.metadata group scanned for
            third-party strategies (``None`` disables scanning).
    """

    def __init__(
        self,
        builtin_modules: Sequence[str] = (),
        entry_point_group: Optional[str] = None,
    ):
        """Create an empty registry (see class docstring)."""
        self._builtin_modules = tuple(builtin_modules)
        self._entry_point_group = entry_point_group
        self._strategies: Dict[str, ExperimentStrategy] = {}
        self._discovered = False

    # ---------------------------------------------------------- registration

    def register(self, strategy):
        """Register a strategy class or instance; usable as a decorator.

        Returns the argument unchanged so ``@registry.register`` works
        on class definitions. Raises
        :class:`~repro.errors.ConfigError` on an empty or duplicate
        name.
        """
        instance = strategy() if isinstance(strategy, type) else strategy
        if not isinstance(instance, ExperimentStrategy):
            raise ConfigError(
                f"{strategy!r} is not an ExperimentStrategy subclass or "
                "instance",
                field="strategy",
            )
        name = instance.name
        if not name:
            raise ConfigError(
                f"strategy {type(instance).__name__} has no name",
                field="strategy.name",
            )
        if name in self._strategies:
            raise ConfigError(
                f"experiment {name!r} is already registered",
                field="strategy.name",
            )
        self._strategies[name] = instance
        return strategy

    def unregister(self, name: str) -> None:
        """Remove one strategy (primarily for tests)."""
        self._strategies.pop(name, None)

    def _discover(self) -> None:
        """Load built-ins, then entry points (idempotent)."""
        if self._discovered:
            return
        self._discovered = True
        import importlib

        for module_name in self._builtin_modules:
            module = importlib.import_module(module_name)
            for strategy in getattr(module, "STRATEGIES", ()):
                self.register(strategy)
        if self._entry_point_group:
            self._discover_entry_points()

    def _discover_entry_points(self) -> None:
        """Append entry-point strategies, sorted by entry-point name.

        A plugin that fails to load — or whose name collides with an
        already-registered strategy — is skipped with a warning; a
        broken third-party distribution must never break the harness.
        """
        from importlib import metadata

        try:
            points = metadata.entry_points(group=self._entry_point_group)
        except TypeError:  # Python 3.9: entry_points() returns a dict
            points = metadata.entry_points().get(self._entry_point_group, ())
        for point in sorted(points, key=lambda p: p.name):
            try:
                loaded = point.load()
                instance = loaded() if isinstance(loaded, type) else loaded
            except Exception as exc:
                warnings.warn(
                    f"experiment plugin {point.name!r} "
                    f"({point.value}) failed to load: {exc!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if not isinstance(instance, ExperimentStrategy):
                warnings.warn(
                    f"experiment plugin {point.name!r} ({point.value}) is "
                    "not an ExperimentStrategy; skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if instance.name in self._strategies:
                warnings.warn(
                    f"experiment plugin {point.name!r} shadows registered "
                    f"experiment {instance.name!r}; skipped",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self._strategies[instance.name] = instance

    # --------------------------------------------------------------- lookups

    def get(self, name: str) -> ExperimentStrategy:
        """The strategy registered as ``name``.

        Raises:
            UnknownExperimentError: no such experiment (the error lists
                every known name; exit code 2 through the CLI).
        """
        self._discover()
        try:
            return self._strategies[name]
        except KeyError:
            raise UnknownExperimentError(name, self.names()) from None

    def resolve(self, item) -> ExperimentStrategy:
        """Coerce a name, class or instance into a strategy instance."""
        if isinstance(item, str):
            return self.get(item)
        if isinstance(item, type) and issubclass(item, ExperimentStrategy):
            return item()
        if isinstance(item, ExperimentStrategy):
            return item
        raise ConfigError(
            f"expected an experiment name or ExperimentStrategy, got "
            f"{type(item).__name__}",
            field="experiment",
        )

    def names(self) -> List[str]:
        """Every registered name, in documented deterministic order."""
        self._discover()
        return list(self._strategies)

    def __contains__(self, name: str) -> bool:
        self._discover()
        return name in self._strategies

    def __iter__(self) -> Iterator[ExperimentStrategy]:
        self._discover()
        return iter(self._strategies.values())

    def __len__(self) -> int:
        self._discover()
        return len(self._strategies)

    def table(self) -> Table:
        """The registry rendered as the shared plain-text Table."""
        table = Table(
            "Registered experiments",
            ["name", "description", "requirements"],
        )
        for strategy in self:
            table.add_row(
                strategy.name,
                strategy.description or type(strategy).__name__,
                strategy.requires.summary(),
            )
        table.add_note(
            "built-ins in declaration (paper) order, then "
            f"{ENTRY_POINT_GROUP!r} entry points sorted by name"
        )
        return table


#: The process-wide registry: built-in paper experiments plus
#: ``repro.experiments`` entry points.
registry = StrategyRegistry(
    builtin_modules=("repro.harness.experiments", "repro.harness.frontier"),
    entry_point_group=ENTRY_POINT_GROUP,
)


def experiment_names() -> List[str]:
    """Every registered experiment name, in registry order."""
    return registry.names()


# ------------------------------------------------------------------- driver


@dataclass
class StrategyOutcome:
    """One executed strategy: its tables and wall time."""

    name: str
    tables: Tables
    wall_s: float


@dataclass
class StrategyRunResult:
    """What :func:`run_strategies` hands back to its caller."""

    #: Per-strategy outcome, in execution order.
    outcomes: List[StrategyOutcome] = field(default_factory=list)
    #: The shared context (None when no strategy required one).
    ctx: Optional[ExperimentContext] = None

    @property
    def tables(self) -> Dict[str, Tables]:
        """Strategy name -> its tables."""
        return {o.name: o.tables for o in self.outcomes}

    @property
    def walls(self) -> Dict[str, float]:
        """Strategy name -> wall seconds."""
        return {o.name: o.wall_s for o in self.outcomes}


def _normalize_tables(name: str, result) -> Tables:
    """Coerce an ``execute`` return value into ``{key: Table}``."""
    if isinstance(result, Table):
        return {"": result}
    if isinstance(result, dict):
        return result
    raise ConfigError(
        f"experiment {name!r} returned {type(result).__name__}; expected a "
        "Table or a dict of Tables",
        field="experiment",
    )


def _cpu_seconds(start) -> float:
    """CPU seconds (self + children) since an ``os.times()`` snapshot."""
    end = os.times()
    return sum(end[:4]) - sum(start[:4])


def _plan_from(strategies: Sequence[ExperimentStrategy]):
    """Union of the strategies' spec requirements, first-seen order."""
    runs = [s for strat in strategies for s in strat.requires.run_specs]
    errors = [s for strat in strategies for s in strat.requires.error_specs]
    return list(dict.fromkeys(runs)), list(dict.fromkeys(errors))


def _start_history_run(store_path, argv, names, options, ctx, resume) -> tuple:
    """Open the history store and insert this invocation's run row.

    Seed, scale and engine come from ``ctx`` when there is one, so the
    row and its config hash describe what actually runs. Returns
    ``(store, run_id)``, or ``(None, None)`` when the store cannot be
    opened — the harness never fails because telemetry did, but the
    warning names the path so a deliberate store choice points
    somewhere debuggable. ``--resume`` is the exception: it reads the
    store, so there the failure is a :class:`ConfigError`.
    """
    from repro.obs.store import (
        RunStore,
        config_digest,
        default_store_path,
        git_sha,
    )

    path = store_path or default_store_path(options.get("json_dir") or None)
    faults = options.get("faults")
    if ctx is not None:
        options = dict(
            options, seed=ctx.seed, scale=ctx.scale, engine=ctx.engine
        )
    try:
        store = RunStore(path)
        run_id = store.start_run(
            experiments=names,
            workloads=options.get("workloads"),
            engine=options.get("engine") or "batched",
            seed=options.get("seed"),
            scale=options.get("scale"),
            jobs=options.get("jobs", 1),
            argv=list(argv or []),
            sha=git_sha(),
            config_hash=config_digest(
                {
                    "experiments": list(names),
                    "seed": options.get("seed"),
                    "scale": options.get("scale"),
                    "workloads": options.get("workloads"),
                    "engine": options.get("engine"),
                    "faults": faults.to_dict() if faults is not None else None,
                }
            ),
        )
    except Exception as exc:
        if resume:
            raise ConfigError(
                f"--resume cannot open the history store: {exc}", path=path
            ) from exc
        print(f"[history store {path} unavailable: {exc}]", file=sys.stderr)
        return None, None
    return store, run_id


def _land_context(store, run_id, ctx) -> None:
    """Land the context's (workload, config) results and run events."""
    if ctx is None:
        return
    records = ctx.run_records()
    for row in ctx.run_summaries():
        store.add_result(
            run_id, row, records.get((row["workload"], row["config"]))
        )
    if ctx.events:
        store.add_events(run_id, ctx.events)


def _record_history_run(
    store, run_id, ctx, *, wall_s, cpu_s, experiments, echo
):
    """Land results, run events and final timings in the history store."""
    try:
        _land_context(store, run_id, ctx)
        store.finish_run(
            run_id,
            wall_s=wall_s,
            cpu_s=cpu_s,
            experiments=experiments,
            context=ctx.context_summary() if ctx is not None else None,
        )
        if echo:
            echo(f"[run {run_id} recorded in {store.path}]")
    finally:
        _close_store(store, ctx)


def _abort_history_run(store, run_id, ctx) -> None:
    """Mark a cancelled run in the history store, without finishing it.

    Completed (workload, config) results and the run events so far —
    ending in the ``run_cancelled`` event that records why — are
    landed so the partial sweep stays queryable, and the row keeps
    ``finished = 0``: ``repro history list`` shows the run as
    unfinished, which it is. Telemetry failures are swallowed like
    everywhere else in the recording path.
    """
    try:
        _land_context(store, run_id, ctx)
    except Exception:  # pragma: no cover - telemetry must not mask Cancelled
        pass
    finally:
        _close_store(store, ctx)


def _close_store(store, ctx) -> None:
    """Close the history store and detach it from the context.

    A caller that keeps using ``result.ctx`` then memoizes in memory
    only, instead of writing to a closed connection.
    """
    if ctx is not None:
        ctx.store = ctx.run_id = None
    store.close()


def _execute_one(
    strategy: ExperimentStrategy,
    ctx: Optional[ExperimentContext],
    obs: Observability,
    *,
    out: Optional[str],
    json_dir: Optional[str],
    echo: Optional[Callable[[str], None]],
) -> StrategyOutcome:
    """Run one strategy's lifecycle; print, save and serialize tables."""
    name = strategy.label()
    if obs.enabled:
        for metric in strategy.declare_metrics():
            obs.registry.gauge(f"experiment.{name}.{metric}")
    start_ns = perf_counter_ns()
    with obs.profiler.phase(f"experiment/{name}"):
        strategy.setup(ctx if strategy.requires.context else None)
        try:
            result = strategy.execute(ctx if strategy.requires.context else None)
        finally:
            strategy.teardown(ctx if strategy.requires.context else None)
    tables = _normalize_tables(name, result)
    for key, table in tables.items():
        if echo:
            echo("")
            echo(table.render())
        if out:
            filename = f"{name}_{key}.txt" if key else f"{name}.txt"
            table.save(directory=out, filename=filename)
    wall_s = (perf_counter_ns() - start_ns) / 1e9
    if json_dir:
        from repro.obs.output import save_experiment_json, update_bench_summary

        save_experiment_json(name, tables, json_dir)
        update_bench_summary(
            json_dir,
            experiments={
                name: {"wall_s": wall_s, "tables": [k or "main" for k in tables]}
            },
        )
    if echo:
        echo(f"\n[{name} done in {wall_s:.1f}s]")
    return StrategyOutcome(name=name, tables=tables, wall_s=wall_s)


def run_strategies(
    experiments: Sequence[Union[str, ExperimentStrategy]],
    *,
    strategy_registry: Optional[StrategyRegistry] = None,
    ctx: Optional[ExperimentContext] = None,
    seed: Optional[int] = None,
    scale: Optional[float] = None,
    workloads: Optional[Sequence[str]] = None,
    engine: Optional[str] = None,
    faults=None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    resume: bool = False,
    obs: Optional[Observability] = None,
    out: Optional[str] = None,
    json_dir: Optional[str] = None,
    echo: Optional[Callable[[str], None]] = None,
    store_path: Optional[str] = None,
    record_history: bool = False,
    argv: Optional[Sequence[str]] = None,
    strategy_options: Optional[dict] = None,
) -> StrategyRunResult:
    """Run a batch of strategies through the one generic pipeline.

    This is the driver both the CLI and :func:`repro.run_experiment`
    dispatch through. Everything that used to be per-experiment
    special-casing is here once, keyed on registry metadata:

    * **context** — built only when some strategy requires one;
    * **prefetch** — with ``jobs > 1``, every workload under the union
      of the strategies' ``requires.run_specs`` / ``error_specs`` fans
      across a process pool (config fans split across idle workers),
      with ``timeout``/``retries`` resilience;
    * **history** — with ``record_history``, the invocation lands in
      the sqlite run store exactly as the CLI records it, and every
      (workload, config) result is committed to its ``memo`` table as
      it enters the context memo, sequential or prefetched;
    * **resume** — ``resume`` (which needs ``record_history``) adopts
      the memo rows of earlier runs with the same workloads, seed,
      scale, engine and git SHA before anything simulates;
    * **observability** — each strategy runs in its own profiler
      phase, and declared metrics are pre-registered.

    Args:
        experiments: registered names and/or strategy instances, in
            execution order.
        strategy_registry: registry names resolve against (the global
            :data:`registry` by default).
        ctx: reuse an existing context; otherwise one is built from
            ``seed`` / ``scale`` / ``workloads`` / ``engine`` /
            ``faults`` when any strategy requires it.
        out: directory for plain-text table files (None = don't save).
        json_dir: directory for ``<name>.json`` tables and the
            ``BENCH_obs.json`` summary (None = no JSON output).
        echo: line printer for human output (``print`` on the CLI);
            None keeps the run silent, as library callers expect. With
            ``echo`` and a TTY stderr, worker heartbeats also redraw a
            live status line there.
        store_path: history database path (None = the default store
            resolution) — only consulted when ``record_history``.
        resume: adopt finished (workload, config) results from the
            store's memo instead of recomputing them.
        argv: CLI argv recorded alongside the history run.
        strategy_options: free-form options mapping published on the
            context as ``ctx.strategy_options`` — how strategy-specific
            CLI knobs (``--error-budget``, ``--voltage-steps``) reach
            the strategies without per-experiment driver branches.

    Returns:
        :class:`StrategyRunResult` with per-strategy tables/wall times
        and the shared context.

    Raises:
        UnknownExperimentError: an experiment name is not registered.
        ConfigError: ``resume`` without ``record_history``, or with a
            store that cannot be opened — raised before anything
            simulates.
        SimulationFault: the parallel prefetch exhausted its retries.
        Cancelled: SIGINT/SIGTERM arrived during the parallel prefetch;
            a recorded history run keeps its completed results and run
            events, ending in ``run_cancelled``, without being marked
            finished.
    """
    if resume and not record_history:
        raise ConfigError("resume reads the history store; it needs "
                          "record_history", field="resume")
    reg = strategy_registry if strategy_registry is not None else registry
    resolved = [reg.resolve(item) for item in experiments]
    obs = obs or Observability.disabled()
    start_ns = perf_counter_ns()
    cpu_start = os.times()
    names = [s.label() for s in resolved]
    if ctx is None and any(s.requires.context for s in resolved):
        ctx = ExperimentContext(
            seed=seed,
            scale=scale,
            workloads=workloads,
            obs=obs,
            engine=engine,
            faults=faults,
        )
    if ctx is not None:
        # Publish the harness execution knobs so strategies that
        # orchestrate their own fan-out (e.g. frontier's adaptive
        # search) reuse the same jobs/resilience settings.
        ctx.jobs = jobs
        ctx.timeout = timeout
        ctx.retries = retries
        ctx.strategy_options = dict(strategy_options or {})
    status = None
    if ctx is not None and echo and sys.stderr.isatty():
        from repro.obs.livestream import LiveProgressSink

        status = LiveProgressSink(sys.stderr)
        ctx.listener = status.handle
    store = run_id = None
    if record_history:
        store, run_id = _start_history_run(
            store_path,
            argv,
            names,
            {
                "json_dir": json_dir,
                "workloads": list(workloads) if workloads else None,
                "engine": engine,
                "seed": seed,
                "scale": scale,
                "jobs": jobs,
                "faults": faults,
            },
            ctx,
            resume,
        )
    if store is not None and ctx is not None:
        # From here on every result entering the memo is committed.
        ctx.store, ctx.run_id = store, run_id
        if resume:
            runs, errors = ctx.resume()
            if echo:
                echo(
                    f"[resumed {runs} runs and {errors} errors from "
                    f"{store.path}]"
                )
    result = StrategyRunResult(ctx=ctx)
    try:
        if jobs > 1 and ctx is not None:
            run_specs, error_specs = _plan_from(resolved)
            if run_specs or error_specs:
                from repro.harness.parallel import prefetch_pairs

                if obs.enabled and echo:
                    echo(
                        "[note: --jobs simulates in worker processes; "
                        "per-access traces/metrics are not captured for "
                        "prefetched runs]"
                    )
                fetched = prefetch_pairs(
                    ctx,
                    run_pairs=[(n, s) for n in ctx.names for s in run_specs],
                    error_pairs=[
                        (n, s) for n in ctx.names for s in error_specs
                    ],
                    jobs=jobs,
                    timeout=timeout,
                    retries=retries,
                )
                if status is not None:
                    status.close()
                if fetched and echo:
                    echo(f"[prefetched {fetched} runs across {jobs} jobs]")

        for strategy in resolved:
            result.outcomes.append(
                _execute_one(
                    strategy, ctx, obs, out=out, json_dir=json_dir, echo=echo
                )
            )
    except Cancelled as exc:
        if ctx is not None:
            ctx.emit("run_cancelled", reason=str(exc))
        if store is not None:
            _abort_history_run(store, run_id, ctx)
        raise
    finally:
        if status is not None:
            status.close()

    if ctx is not None and json_dir:
        from repro.obs.output import update_bench_summary

        update_bench_summary(
            json_dir,
            runs=ctx.run_summaries(),
            context=ctx.context_summary(),
        )
    if store is not None:
        _record_history_run(
            store,
            run_id,
            ctx,
            wall_s=(perf_counter_ns() - start_ns) / 1e9,
            cpu_s=_cpu_seconds(cpu_start),
            experiments={o.name: {"wall_s": o.wall_s} for o in result.outcomes},
            echo=echo,
        )
    return result
