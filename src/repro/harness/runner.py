"""Simulation pipeline and result cache for the experiment drivers.

A :class:`ConfigSpec` names one LLC organization of the paper's sweeps
(baseline / split Doppelgänger / uniDoppelgänger with given map bits
and data-array fraction). :class:`ExperimentContext` owns the
workloads (instantiated once), their traces (generated once), and a
memoized ``run()`` so experiments that share configurations — e.g.
Fig. 10's runtime and Fig. 11's energy both need the 1/4-data-array
runs — simulate each (workload, config) pair exactly once.

Dataset scale and seed honour the ``REPRO_SCALE`` / ``REPRO_SEED``
environment variables so the benchmark suite can be sped up without
touching code.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import DoppelgangerConfig, UniDoppelgangerConfig
from repro.core.functional import BlockApproximator
from repro.core.maps import MapConfig
from repro.energy.accounting import EnergyModel, EnergyReport
from repro.engine import get_engine
from repro.errors import SimulationFault
from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC, UnifiedDoppelgangerLLC
from repro.hierarchy.system import System, SystemConfig, SystemResult
from repro.obs import EVENT_ENGINE_FALLBACK, Observability, get_logger
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.workloads.registry import get_workload, workload_names


def _scaled_bytes(base: int, factor) -> int:
    """Scale a capacity, keeping at least 64 KB and power-of-two-ness."""
    return max(int(base * factor), 64 * 1024)


def _scaled_entries(base: int, factor) -> int:
    """Scale an entry count, keeping at least 1 K entries."""
    return max(int(base * factor), 1024)


def snap_pow2(scale: float) -> float:
    """Nearest power-of-two factor for a dataset scale (min 1/16)."""
    import math

    if scale >= 1.0:
        return 1.0
    return 2.0 ** max(round(math.log2(scale)), -4)


@dataclass(frozen=True)
class ConfigSpec:
    """One LLC organization in the design space.

    Attributes:
        kind: ``baseline``, ``dopp`` (split) or ``uni``.
        map_bits: map-space size M (ignored by the baseline).
        data_fraction: Doppelgänger data-array fraction — of the tag
            count for the split design, of the baseline block count for
            the unified design.
        faults: optional deterministic fault injection
            (:class:`~repro.resilience.faults.FaultConfig`); ``None``
            simulates fault-free hardware. Always set through
            :meth:`with_faults`, which drops configs that can never
            fault so a zero-rate sweep memoizes and labels exactly
            like a fault-free one.
    """

    kind: str = "baseline"
    map_bits: int = 14
    data_fraction: float = 0.25
    faults: Optional[FaultConfig] = None

    def with_faults(self, faults: Optional[FaultConfig]) -> "ConfigSpec":
        """Copy of this spec under ``faults``.

        An inactive config (every rate zero, no stuck bits, or no
        targets) normalizes to ``None`` — the acceptance criterion
        that a zero-rate fault sweep is bit-identical to one with
        faults disabled falls out of the resulting specs being equal.
        """
        if faults is not None and not faults.active:
            faults = None
        if faults == self.faults:
            return self
        return replace(self, faults=faults)

    def label(self) -> str:
        """Human-readable config name."""
        if self.kind == "baseline":
            base = "baseline-2MB"
        else:
            frac = f"1/{round(1 / self.data_fraction)}" if self.data_fraction <= 0.5 else "3/4"
            base = f"{self.kind}-{self.map_bits}bit-{frac}"
        if self.faults is not None:
            base += "+" + self.faults.label()
        return base

    def to_dict(self) -> dict:
        """JSON-friendly form (see ``docs/api.md``)."""
        out = {
            "kind": self.kind,
            "map_bits": self.map_bits,
            "data_fraction": self.data_fraction,
            "label": self.label(),
        }
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out

    def build_llc(self, regions, size_factor: int = 1):
        """Instantiate the LLC adapter for this spec.

        ``size_factor`` scales every structure (a power-of-two
        fraction/multiple of Table 1's sizes) so that reduced-scale
        datasets exercise the same capacity regimes.
        """
        if self.kind == "baseline":
            return BaselineLLC(
                size_bytes=_scaled_bytes(2 * 1024 * 1024, size_factor), regions=regions
            )
        if self.kind == "dopp":
            cfg = DoppelgangerConfig(
                tag_entries=_scaled_entries(16 * 1024, size_factor),
                data_fraction=self.data_fraction,
                map=MapConfig(self.map_bits),
            )
            return SplitDoppelgangerLLC(
                cfg,
                precise_bytes=_scaled_bytes(1024 * 1024, size_factor),
                regions=regions,
            )
        if self.kind == "uni":
            cfg = UniDoppelgangerConfig(
                tag_entries=_scaled_entries(32 * 1024, size_factor),
                data_fraction=self.data_fraction,
                map=MapConfig(self.map_bits),
            )
            return UnifiedDoppelgangerLLC(cfg, regions=regions)
        raise ValueError(f"unknown config kind {self.kind!r}")

    def approximator(self, size_factor: int = 1) -> Optional[BlockApproximator]:
        """Functional approximator matching this spec (None = precise).

        When the spec carries a fault config, the approximator gets its
        own :class:`~repro.resilience.faults.FaultInjector` so silent
        faults corrupt the values the application actually consumes
        (the output-error consequence of running approximate storage
        unprotected).
        """
        if self.kind == "baseline":
            return None
        if self.kind == "dopp":
            entries = int(_scaled_entries(16 * 1024, size_factor) * self.data_fraction)
        else:
            entries = int(_scaled_entries(32 * 1024, size_factor) * self.data_fraction)
        entries = max(entries, 256)
        faults = FaultInjector(self.faults) if self.faults is not None else None
        return BlockApproximator(
            MapConfig(self.map_bits), data_entries=entries, faults=faults
        )


def baseline_spec() -> ConfigSpec:
    """The conventional 2 MB LLC."""
    return ConfigSpec("baseline")


def dopp_spec(map_bits: int = 14, data_fraction: float = 0.25) -> ConfigSpec:
    """A split Doppelgänger configuration."""
    return ConfigSpec("dopp", map_bits, data_fraction)


def uni_spec(map_bits: int = 14, data_fraction: float = 0.5) -> ConfigSpec:
    """A unified Doppelgänger configuration."""
    return ConfigSpec("uni", map_bits, data_fraction)


@dataclass
class RunRecord:
    """One simulated (workload, config) result."""

    spec: ConfigSpec
    system: SystemResult
    energy: EnergyReport
    llc: object
    #: Simulation wall time (ns, ``perf_counter_ns``) and trace length,
    #: recorded so the BENCH summary can chart accesses/second.
    wall_ns: int = 0
    accesses: int = 0
    #: Fault-injection report (``FaultInjector.summary()``) when the
    #: spec carried a fault config, else None.
    faults: Optional[dict] = None
    #: Engine that produced the result when it differs from the one
    #: requested (the batched engine degraded to the reference).
    engine_used: Optional[str] = None
    #: Per-class fast/slow-path tallies published by the engine
    #: (``system.engine_stats``; see ``docs/engine.md``).
    engine_stats: Optional[dict] = None

    @property
    def cycles(self) -> int:
        """Runtime in cycles."""
        return self.system.cycles

    @property
    def accesses_per_sec(self) -> float:
        """Simulated trace accesses per wall-clock second."""
        return self.accesses / (self.wall_ns / 1e9) if self.wall_ns else 0.0

    def to_dict(self) -> dict:
        """JSON-friendly form, nesting the unified result schemas.

        ``config``/``system``/``energy`` serialize through
        :meth:`ConfigSpec.to_dict`, ``SystemResult.to_dict`` and
        ``EnergyReport.to_dict`` respectively (see ``docs/api.md``).
        """
        out = {
            "config": self.spec.to_dict(),
            "system": self.system.to_dict(),
            "energy": self.energy.to_dict(),
            "sim_wall_s": self.wall_ns / 1e9,
            "accesses": self.accesses,
            "accesses_per_sec": self.accesses_per_sec,
        }
        if self.faults is not None:
            out["faults"] = self.faults
        if self.engine_used is not None:
            out["engine_used"] = self.engine_used
        if self.engine_stats is not None:
            out["engine_stats"] = self.engine_stats
        return out

    def summary_row(self, workload: str, error: Optional[float] = None) -> dict:
        """Flat BENCH run row for this record (one dict per run).

        The single serialization the ``BENCH_obs.json`` summary, the
        ``compare`` gate and the run-history store
        (:mod:`repro.obs.store`) all consume, so a row diffed from a
        file and one exported from the store are field-identical.
        """
        sysres = self.system
        row = {
            "workload": workload,
            "config": self.spec.label(),
            "sim_wall_s": self.wall_ns / 1e9,
            "accesses": self.accesses,
            "accesses_per_sec": self.accesses_per_sec,
            "cycles": sysres.cycles,
            "instructions": sysres.instructions,
            "llc_miss_rate": sysres.llc_miss_rate,
            "l1_hit_rate": sysres.l1_stats.hit_rate,
            "l2_hit_rate": sysres.l2_stats.hit_rate,
            "back_invalidations": sysres.back_invalidations,
            "coherence_invalidations": sysres.coherence_invalidations,
            "wb_stall_cycles": sysres.wb_stall_cycles,
            "traffic_bytes": sysres.traffic_bytes,
            "error": error,
        }
        if self.faults is not None:
            row["faults"] = self.faults
        if self.engine_used is not None:
            row["engine_used"] = self.engine_used
        if self.engine_stats is not None:
            row["slow_path_fraction"] = self.engine_stats.get("slow_fraction")
            row["engine_stats"] = self.engine_stats
        return row


def run_trace(
    trace,
    spec: Optional[ConfigSpec] = None,
    *,
    engine: Optional[str] = None,
    size_factor: float = 1.0,
    energy_model: Optional[EnergyModel] = None,
    obs: Optional[Observability] = None,
) -> RunRecord:
    """Simulate a standalone trace (no workload registry entry).

    The front door for imported traces (:mod:`repro.ingest`) and traces
    loaded via :func:`repro.trace.io.load_trace`: builds the spec's LLC
    over the trace's own regions, runs the full system under the chosen
    engine, and returns the same :class:`RunRecord` shape the memoized
    workload pipeline produces — so replayed results serialize, compare
    and report identically.

    Raises:
        SimulationFault: the simulation failed (no cross-engine
            fallback here — callers replaying a trace pick the engine
            deliberately).
    """
    spec = spec if spec is not None else baseline_spec()
    obs = obs or Observability.disabled()
    llc = spec.build_llc(trace.regions, size_factor)
    injector = FaultInjector(spec.faults) if spec.faults is not None else None
    system = System(llc, tracer=obs.tracer, faults=injector)
    start_ns = perf_counter_ns()
    try:
        result = system.run(trace, engine=engine)
    except Exception as exc:
        raise SimulationFault(
            f"replay of trace {trace.name!r} failed under {spec.label()}: {exc}"
        ) from exc
    wall_ns = perf_counter_ns() - start_ns
    energy = (energy_model or EnergyModel()).dynamic_energy(
        llc, cycles=result.cycles
    )
    return RunRecord(
        spec=spec, system=result, energy=energy, llc=llc,
        wall_ns=wall_ns, accesses=len(trace),
        faults=injector.summary() if injector is not None else None,
        engine_stats=system.engine_stats,
    )


def env_scale(default: float = 1.0) -> float:
    """Dataset scale from ``REPRO_SCALE`` (default 1.0)."""
    return float(os.environ.get("REPRO_SCALE", default))


def env_seed(default: int = 7) -> int:
    """Seed from ``REPRO_SEED``."""
    return int(os.environ.get("REPRO_SEED", default))


class ExperimentContext:
    """Shared state for a suite of experiments.

    Args:
        seed: data-generation seed.
        scale: dataset scale (``REPRO_SCALE`` overrides the default).
        workloads: benchmark subset (all nine by default).
        obs: optional :class:`~repro.obs.Observability` bundle; when
            given, every pipeline stage is phase-profiled, structure
            counters are published into its metrics registry, and
            protocol events flow to its tracer. Defaults to the inert
            bundle.
        engine: simulation engine name threaded into every
            :meth:`run` (``"batched"``, ``"reference"`` or ``None``
            for the :func:`repro.engine.get_engine` default). Resolved
            once here, so :attr:`engine` names the engine that runs.
        faults: context-wide default fault config, applied (via
            :meth:`apply_faults`) to every spec that does not already
            carry one. Inactive configs normalize to ``None``.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        workloads=None,
        obs: Optional[Observability] = None,
        engine: Optional[str] = None,
        faults: Optional[FaultConfig] = None,
    ):
        self.obs = obs or Observability.disabled()
        self.log = get_logger("harness.runner")
        self.engine = get_engine(engine)[0]
        self.faults = faults if faults is not None and faults.active else None
        self.seed = env_seed() if seed is None else seed
        self.scale = env_scale() if scale is None else scale
        #: Structure sizes scale with the dataset (power-of-two snap)
        #: so reduced-scale runs exercise the same capacity regimes.
        self.size_factor = snap_pow2(self.scale)
        self.names = list(workloads) if workloads else workload_names()
        self._workloads: Dict[str, object] = {}
        self._traces: Dict[str, object] = {}
        self._runs: Dict[Tuple[str, ConfigSpec], RunRecord] = {}
        self._errors: Dict[Tuple[str, ConfigSpec], float] = {}
        self._precise_outputs: Dict[str, object] = {}
        self.energy_model = EnergyModel()
        #: Harness execution knobs the generic driver
        #: (:func:`repro.harness.strategy.run_strategies`) publishes so
        #: strategies that orchestrate their own fan-out (e.g. the
        #: frontier search) reuse them. Defaults describe a
        #: sequential, unrecorded, option-free run.
        self.jobs = 1
        self.timeout: Optional[float] = None
        self.retries = 0
        #: The run-history store and run id the driver records into
        #: (None when unrecorded): every result entering the memo is
        #: committed there as a ``memo`` row, which ``--resume`` reads.
        self.store = None
        self.run_id: Optional[int] = None
        self.strategy_options: Dict[str, object] = {}
        #: Run events, in emission order (see :meth:`emit`); the driver
        #: lands them in the run-history store when the run finishes
        #: or is cancelled.
        self.events: List[dict] = []
        #: Optional callable handed every run event as it is emitted:
        #: the CLI's TTY status line, or a ``--jobs`` worker's
        #: heartbeat queue.
        self.listener: Optional[Callable[[dict], None]] = None

    def emit(self, kind: str, **fields) -> None:
        """Record one run event: the single entry point for them.

        Run events (``controller_*``, ``engine_fallback``,
        ``worker_retry``, ``worker_heartbeat``, ``run_cancelled``) are
        appended to :attr:`events` as ``{"kind", "ts_unix", **fields}``
        dicts (an event forwarded from a worker keeps its own
        ``ts_unix``), forwarded to ``obs.tracer`` (a no-op unless
        tracing is on) and handed to :attr:`listener`. Structure events
        (map generation, tag moves, evictions, coherence) stay on the
        tracer alone.
        """
        event = {"kind": kind, "ts_unix": time.time(), **fields}
        self.events.append(event)
        self.obs.tracer.emit(kind, **fields)
        if self.listener is not None:
            self.listener(event)

    # -------------------------------------------------------------- builders

    def workload(self, name: str):
        """Workload instance (built once)."""
        if name not in self._workloads:
            with self.obs.profiler.phase(f"workload/{name}"):
                self._workloads[name] = get_workload(
                    name, seed=self.seed, scale=self.scale
                )
        return self._workloads[name]

    def trace(self, name: str):
        """Workload trace (generated once)."""
        if name not in self._traces:
            self.log.info("generating trace for %s (scale %s)", name, self.scale)
            with self.obs.profiler.phase(f"trace/{name}"):
                self._traces[name] = self.workload(name).build_trace()
        return self._traces[name]

    def _system_config(self) -> SystemConfig:
        """Table 1 system with L2 capacity scaled alongside the LLC."""
        from repro.hierarchy.system import KB

        if self.size_factor >= 1.0:
            return SystemConfig()
        return SystemConfig(
            l2_bytes=max(int(128 * KB * self.size_factor), 32 * KB)
        )

    # ------------------------------------------------------------------ memo

    def remember_run(self, name: str, spec: ConfigSpec, record: RunRecord) -> None:
        """Adopt one simulation record into the memo, committing it.

        Every record a context computes or receives from a ``--jobs``
        worker enters the memo here (resumed ones are already stored),
        so a recorded run commits sequential and parallel results
        alike, each as it lands.
        """
        self._runs[(name, spec)] = record
        self._commit("run", name, spec, record)

    def remember_error(self, name: str, spec: ConfigSpec, error: float) -> None:
        """Adopt one output-error value into the memo, committing it."""
        self._errors[(name, spec)] = error
        self._commit("error", name, spec, error)

    def _commit(self, kind: str, name: str, spec: ConfigSpec, value) -> None:
        """Write one ``memo`` row to :attr:`store`, if recording.

        Telemetry never fails a run: the first failed write (disk full,
        a lock held past the busy timeout) warns once and turns memo
        writes off, costing only resumability.
        """
        if self.store is None:
            return
        try:
            self.store.remember(
                self.run_id, kind, name, spec, value,
                seed=self.seed, scale=self.scale, engine=self.engine,
            )
        except Exception as exc:
            self.log.warning(
                "memo writes to %s stopped: %s", self.store.path, exc
            )
            self.store = None

    def resume(self) -> Tuple[int, int]:
        """Adopt :attr:`store`'s memo rows; returns ``(runs, errors)``.

        Only rows for :attr:`names` under this context's resolved
        (seed, scale, engine), written at the recording run's git SHA,
        qualify (:meth:`~repro.obs.store.RunStore.memo_for`); pairs
        already memoized are kept.
        """
        runs = errors = 0
        for kind, name, spec, value in self.store.memo_for(
            self.run_id, self.names,
            seed=self.seed, scale=self.scale, engine=self.engine,
        ):
            key = (name, spec)
            if kind == "run" and key not in self._runs:
                self._runs[key] = value
                runs += 1
            elif kind == "error" and key not in self._errors:
                self._errors[key] = float(value)
                errors += 1
        return runs, errors

    # ------------------------------------------------------------------ runs

    def apply_faults(self, spec: ConfigSpec) -> ConfigSpec:
        """Resolve the fault config a spec runs under.

        A spec that already carries faults keeps them; otherwise the
        context-wide default (``--faults`` on the CLI) applies. Called
        at the top of :meth:`run`/:meth:`error` so memo keys, labels
        and stored memo digests all agree on the resolved spec.
        """
        if spec.faults is None and self.faults is not None:
            return spec.with_faults(self.faults)
        return spec

    def _simulate(self, name: str, spec: ConfigSpec, trace):
        """Build and run one system, degrading to the reference engine.

        Returns ``(result, llc, injector, engine_used, engine_stats)``.
        A batched
        failure rebuilds the hierarchy (the failed run mutated it) and
        replays under the reference interpreter, logged and emitted as
        an ``engine_fallback`` run event; if the reference fails too — or
        was the engine asked for — the error surfaces as a
        :class:`~repro.errors.SimulationFault` naming the (workload,
        config) pair.
        """
        label = spec.label()

        def build():
            """Assemble a fresh System around this spec's LLC."""
            llc = spec.build_llc(trace.regions, self.size_factor)
            injector = (
                FaultInjector(spec.faults) if spec.faults is not None else None
            )
            system = System(
                llc, config=self._system_config(), tracer=self.obs.tracer,
                faults=injector,
            )
            if self.obs.enabled:
                system.publish_metrics(self.obs.registry, f"sim.{name}.{label}")
            return llc, injector, system

        llc, injector, system = build()
        try:
            result = system.run(trace, engine=self.engine)
            return result, llc, injector, None, system.engine_stats
        except Exception as exc:
            if self.engine == "reference":
                raise SimulationFault(
                    f"reference engine failed for {name}/{label}: {exc}"
                ) from exc
            self.log.warning(
                "batched engine failed for %s/%s (%s); retrying with the "
                "reference engine", name, label, exc,
            )
            self.emit(
                EVENT_ENGINE_FALLBACK,
                engine=self.engine, error=repr(exc),
                workload=name, config=label,
            )
        # The failed run left the hierarchy partially mutated: rebuild
        # from scratch (metrics sources re-register over the old ones).
        llc, injector, system = build()
        try:
            result = system.run(trace, engine="reference")
        except Exception as exc:
            raise SimulationFault(
                f"simulation failed under both engines for {name}/{label}: "
                f"{exc}"
            ) from exc
        return result, llc, injector, "reference", system.engine_stats

    def run(self, name: str, spec: ConfigSpec) -> RunRecord:
        """Simulate one (workload, config); memoized."""
        spec = self.apply_faults(spec)
        key = (name, spec)
        if key not in self._runs:
            trace = self.trace(name)
            label = spec.label()
            self.log.info("simulating %s under %s", name, label)
            with self.obs.profiler.phase(f"sim/{name}/{label}"):
                start_ns = perf_counter_ns()
                result, llc, injector, engine_used, engine_stats = (
                    self._simulate(name, spec, trace)
                )
                wall_ns = perf_counter_ns() - start_ns
            with self.obs.profiler.phase(f"energy/{name}/{label}"):
                energy = self.energy_model.dynamic_energy(llc, cycles=result.cycles)
            self.remember_run(name, spec, RunRecord(
                spec=spec, system=result, energy=energy, llc=llc,
                wall_ns=wall_ns, accesses=len(trace),
                faults=injector.summary() if injector is not None else None,
                engine_used=engine_used,
                engine_stats=engine_stats,
            ))
        return self._runs[key]

    def error(self, name: str, spec: ConfigSpec) -> float:
        """Application output error under a config; memoized.

        Uses the functional Pin-style methodology: the full application
        runs with its approximate arrays routed through the functional
        Doppelgänger of the spec. The baseline error is 0 by
        definition (its hardware is fully ECC-protected, so even an
        injected fault never corrupts an output).
        """
        if spec.kind == "baseline":
            return 0.0
        spec = self.apply_faults(spec)
        key = (name, spec)
        if key not in self._errors:
            workload = self.workload(name)
            if name not in self._precise_outputs:
                # Evaluate against the canonical mid-run state: output
                # regions populated (idempotent — build_trace does the
                # same). Without this, the error depended on whether the
                # trace had been generated yet, and a --jobs prefetch
                # (trace first, in the worker) disagreed with the
                # sequential drivers (error table first).
                workload.refresh_outputs()
                with self.obs.profiler.phase(f"error/{name}/precise"):
                    self._precise_outputs[name] = workload.run(None)
            approximator = spec.approximator(self.size_factor)
            with self.obs.profiler.phase(f"error/{name}/{spec.label()}"):
                approx_out = workload.run(approximator)
            self.remember_error(
                name, spec, workload.error(self._precise_outputs[name], approx_out)
            )
        return self._errors[key]

    def normalized_runtime(self, name: str, spec: ConfigSpec) -> float:
        """Runtime relative to the baseline LLC (Figs. 9b, 10b, 14b)."""
        base = self.run(name, baseline_spec()).cycles
        this = self.run(name, spec).cycles
        return this / base if base else 0.0

    def normalized_traffic(self, name: str, spec: ConfigSpec) -> float:
        """Off-chip traffic relative to the baseline LLC (Fig. 12)."""
        base = self.run(name, baseline_spec()).system.traffic_bytes
        this = self.run(name, spec).system.traffic_bytes
        return this / base if base else 0.0

    def dynamic_energy_reduction(self, name: str, spec: ConfigSpec) -> float:
        """Baseline LLC dynamic energy over this config's (Figs. 11a, 14c)."""
        base = self.run(name, baseline_spec()).energy.dynamic_pj
        this = self.run(name, spec).energy.dynamic_pj
        return base / this if this else 0.0

    def leakage_energy_reduction(self, name: str, spec: ConfigSpec) -> float:
        """Baseline LLC leakage energy over this config's (Fig. 11b).

        Leakage energy = leakage power x runtime, so the ratio folds in
        both area and the (small) runtime change.
        """
        base_rec = self.run(name, baseline_spec())
        this_rec = self.run(name, spec)
        base = base_rec.energy.leakage_mw * base_rec.cycles
        this = this_rec.energy.leakage_mw * this_rec.cycles
        return base / this if this else 0.0

    # ----------------------------------------------------------- summaries

    def run_summaries(self) -> List[dict]:
        """One BENCH-summary dict per simulated (workload, config).

        Feeds ``results/json/BENCH_obs.json`` so the performance
        trajectory (sim wall time, accesses/sec, hit rates, error)
        is chartable across PRs. Rows are sorted by (workload, config)
        so a parallel ``--jobs`` prefetch and a sequential run emit
        byte-identical summaries.
        """
        items = sorted(
            self._runs.items(), key=lambda kv: (kv[0][0], kv[0][1].label())
        )
        return [
            rec.summary_row(name, error=self._errors.get((name, spec)))
            for (name, spec), rec in items
        ]

    def run_records(self) -> Dict[Tuple[str, str], dict]:
        """Full nested ``RunRecord.to_dict()`` per (workload, config label).

        The run-history store (:mod:`repro.obs.store`) persists these
        alongside the flat summary rows so ``history export`` can
        reconstruct everything a run knew, not just the BENCH columns.
        """
        return {
            (name, spec.label()): rec.to_dict()
            for (name, spec), rec in self._runs.items()
        }

    def context_summary(self) -> dict:
        """The knobs that shaped this context (for the BENCH summary)."""
        return {
            "seed": self.seed,
            "scale": self.scale,
            "size_factor": self.size_factor,
            "workloads": list(self.names),
            "engine": self.engine,
            "faults": self.faults.to_dict() if self.faults is not None else None,
        }
