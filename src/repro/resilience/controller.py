"""Closed-loop error-budget controller over the voltage ladder.

The open-loop ``faultsweep`` experiment answers "what does a fixed
fault rate cost?"; this module answers the paper-level question "how
far can the approximate LLC be degraded before a workload's output
error exceeds its budget?". One :class:`ErrorBudgetController` per
workload searches the voltage ladder of
:mod:`repro.resilience.energy` for the *frontier*: the most aggressive
(lowest-voltage, highest-fault-rate) step whose observed output error
still fits the declared budget.

The control loop (see ``docs/robustness.md``):

* **monotone bracketing** — fault rate is non-decreasing down the
  ladder, and output error is treated as monotone in fault rate, so
  the search maintains an invariant bracket ``(lo, hi)``: every step
  at or above ``lo`` is known within budget, every step at or below
  ``hi`` known over it. Each evaluation bisects the bracket, so
  convergence costs O(log steps) simulations per workload.
* **bounded retries** — :attr:`FrontierOptions.max_evals` caps the
  simulations one workload's search may spend; hitting the cap
  finalizes on the best verified step instead of looping.
* **graceful degradation** — a step that blows the budget narrows
  ``hi``; the next probe is at a *higher* voltage (the controller
  literally steps the voltage back up), emitted as a
  ``controller_degrade`` event. If even the nominal step (the plain
  approximate configuration, no faults) exceeds the budget, the
  workload falls back to fully precise annotation: zero error, zero
  energy credit, ``degraded="precise"``.
* **hysteresis** — the recommended *operating* point backs off
  :attr:`FrontierOptions.hysteresis` steps from the verified frontier
  as a guard band, so a marginal frontier step is not what deployment
  advice points at.
* **resume from the store** — the controller keeps no state of its
  own: the search is a deterministic function of each probe's output
  error and run record, which ``--resume`` restores from the history
  store's memo. A resumed search restarts at the nominal step,
  re-walks its bracket through memo hits (re-emitting its full
  decision log) and simulates only the probes the store lacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.resilience.energy import (
    DEFAULT_FAULT_TARGETS,
    V_MIN,
    V_NOM,
    VoltageStep,
)
from repro.resilience.faults import FAULT_TARGETS

#: Default fault-stream seed (matches the ``faultsweep`` experiment's).
DEFAULT_FAULT_SEED = 11


@dataclass(frozen=True)
class FrontierOptions:
    """Knobs of the frontier search, validated on construction.

    Attributes:
        error_budget: maximum acceptable output error (paper error
            metric, a fraction).
        voltage_steps: ladder length (nominal plus scaled steps).
        v_nom: nominal supply voltage (V).
        v_min: most aggressive supply voltage (V).
        hysteresis: guard-band steps between the verified frontier and
            the recommended operating point.
        max_evals: simulation budget per workload search.
        fault_seed: fault-stream seed for every probed step.
        targets: structures the scaled array exposes to injection.
    """

    error_budget: float = 0.1
    voltage_steps: int = 8
    v_nom: float = V_NOM
    v_min: float = V_MIN
    hysteresis: int = 1
    max_evals: int = 12
    fault_seed: int = DEFAULT_FAULT_SEED
    targets: Tuple[str, ...] = DEFAULT_FAULT_TARGETS

    def __post_init__(self):
        """Validate every knob, naming the offending field."""
        if not 0.0 < self.error_budget <= 1.0:
            raise ConfigError(
                f"must be in (0, 1], got {self.error_budget}",
                field="error_budget",
            )
        if self.voltage_steps < 2:
            raise ConfigError(
                f"must be >= 2, got {self.voltage_steps}",
                field="voltage_steps",
            )
        if self.hysteresis < 0:
            raise ConfigError(
                f"must be >= 0, got {self.hysteresis}", field="hysteresis"
            )
        if self.max_evals < 2:
            raise ConfigError(
                f"must be >= 2 (the search needs at least the nominal "
                f"probe plus one scaled one), got {self.max_evals}",
                field="max_evals",
            )
        unknown = [t for t in self.targets if t not in FAULT_TARGETS]
        if unknown:
            raise ConfigError(
                f"unknown fault target(s) {unknown}; choose from "
                f"{list(FAULT_TARGETS)}",
                field="targets",
            )
        object.__setattr__(self, "targets", tuple(sorted(set(self.targets))))

    @classmethod
    def from_mapping(cls, options: Optional[dict]) -> "FrontierOptions":
        """Build options from a loosely-typed mapping (CLI plumbing).

        Unknown keys are ignored (the mapping is shared by every
        strategy); ``None`` values fall back to the defaults.
        """
        options = options or {}
        kwargs = {}
        for name in (
            "error_budget", "voltage_steps", "v_nom", "v_min",
            "hysteresis", "max_evals", "fault_seed", "targets",
        ):
            value = options.get(name)
            if value is not None:
                kwargs[name] = tuple(value) if name == "targets" else value
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """JSON-friendly form (round-trips through :meth:`from_mapping`)."""
        return {
            "error_budget": self.error_budget,
            "voltage_steps": self.voltage_steps,
            "v_nom": self.v_nom,
            "v_min": self.v_min,
            "hysteresis": self.hysteresis,
            "max_evals": self.max_evals,
            "fault_seed": self.fault_seed,
            "targets": list(self.targets),
        }


@dataclass
class FrontierResult:
    """Outcome of one workload's frontier search.

    Attributes:
        workload: workload name.
        ladder: the searched voltage ladder.
        frontier: index of the most aggressive step verified within
            budget (``-1`` when even nominal blew the budget).
        operating: recommended operating index after the hysteresis
            guard band (``-1`` for the precise fallback).
        evals: evaluation history, in search order, as dicts with
            ``step``/``error``/``energy_saved``/``verdict``.
        degraded: ``None``, or ``"precise"`` when the workload fell
            back to fully precise annotation.
        converged: False when :attr:`FrontierOptions.max_evals` ended
            the search before the bracket closed.
    """

    workload: str
    ladder: Tuple[VoltageStep, ...]
    frontier: int
    operating: int
    evals: List[dict] = field(default_factory=list)
    degraded: Optional[str] = None
    converged: bool = True

    def step(self, index: int) -> Optional[VoltageStep]:
        """The ladder step at ``index`` (None for the precise fallback)."""
        return self.ladder[index] if index >= 0 else None

    @property
    def survivable_rate(self) -> float:
        """Per-read fault rate at the verified frontier (0 = none)."""
        step = self.step(self.frontier)
        return step.read_rate if step is not None else 0.0

    @property
    def frontier_error(self) -> float:
        """Observed output error at the frontier step (0 = fallback)."""
        for entry in self.evals:
            if entry["step"] == self.frontier:
                return entry["error"]
        return 0.0

    @property
    def frontier_energy_saved(self) -> float:
        """Energy-credit fraction at the frontier step (0 = fallback)."""
        for entry in self.evals:
            if entry["step"] == self.frontier:
                return entry["energy_saved"]
        return 0.0

    @property
    def status(self) -> str:
        """One-word outcome for the Pareto table."""
        if self.degraded is not None:
            return self.degraded
        return "converged" if self.converged else "eval-capped"


class ErrorBudgetController:
    """Adaptive per-workload search for the max survivable fault rate.

    Drive it with the probe loop::

        while (step := controller.pending_step()) is not None:
            spec = base.with_faults(step.fault_config(seed, targets))
            controller.observe(
                step.index, error=ctx.error(w, spec),
                energy_saved=energy_saved_fraction(ctx.run(w, spec), step),
            )
        result = controller.result()

    Bracket invariant: ``lo`` is the highest index verified within
    budget (``-1`` before the nominal probe), ``hi`` the lowest index
    verified over it (``len(ladder)`` before any failure). The search
    ends when ``hi - lo <= 1`` (bracket closed), when the eval budget
    is exhausted, or when nominal itself blows the budget (precise
    fallback).

    Args:
        workload: workload name (event payloads).
        ladder: the voltage ladder to search.
        options: validated :class:`FrontierOptions`.
        emit: optional ``emit(kind, **fields)`` callable receiving
            ``controller_step`` / ``controller_degrade`` /
            ``controller_converged`` events (the harness passes
            :meth:`~repro.harness.runner.ExperimentContext.emit`).
    """

    def __init__(
        self,
        workload: str,
        ladder: Tuple[VoltageStep, ...],
        options: FrontierOptions,
        *,
        emit: Optional[Callable[..., None]] = None,
    ):
        self.workload = workload
        self.ladder = tuple(ladder)
        self.options = options
        self.emit = emit
        self.lo = -1
        self.hi = len(self.ladder)
        self.evals: List[dict] = []
        self.degraded: Optional[str] = None
        self._converged_emitted = False

    # ------------------------------------------------------------- search

    @property
    def evaluated(self) -> Dict[int, dict]:
        """Evaluation history keyed by step index."""
        return {entry["step"]: entry for entry in self.evals}

    @property
    def done(self) -> bool:
        """Whether the search has finalized."""
        if self.degraded is not None:
            return True
        if len(self.evals) >= self.options.max_evals:
            return True
        return self.pending_step() is None

    def pending_step(self) -> Optional[VoltageStep]:
        """The next step to evaluate, or None when the search is over.

        Nominal (step 0) is always probed first — it verifies the
        workload's inherent approximation error fits the budget at
        all. After that, each probe bisects the open bracket.
        """
        if self.degraded is not None:
            return None
        if len(self.evals) >= self.options.max_evals:
            return None
        if self.lo < 0 and 0 not in self.evaluated:
            return self.ladder[0]
        if self.hi - self.lo <= 1:
            return None
        mid = (self.lo + self.hi) // 2
        if mid in self.evaluated:  # numeric safety; bracket should exclude
            return None
        return self.ladder[mid]

    def observe(
        self, step_index: int, error: float, energy_saved: float
    ) -> None:
        """Feed back one evaluated step; advances the bracket.

        Emits a ``controller_step`` event with the verdict, a
        ``controller_degrade`` event when the budget was blown (the
        next probe steps the voltage back up — or the workload falls
        back to precise annotation if nominal itself failed).
        """
        step = self.ladder[step_index]
        within = error <= self.options.error_budget
        entry = {
            "step": step_index,
            "error": error,
            "energy_saved": energy_saved,
            "verdict": "within" if within else "over",
        }
        self.evals.append(entry)
        if within:
            self.lo = max(self.lo, step_index)
        else:
            self.hi = min(self.hi, step_index)
        self._emit(
            "controller_step",
            step=step_index,
            vdd=step.vdd,
            read_rate=step.read_rate,
            error=error,
            budget=self.options.error_budget,
            energy_saved=energy_saved,
            verdict=entry["verdict"],
            lo=self.lo,
            hi=self.hi,
        )
        if not within:
            if step_index == 0:
                # Even the fault-free approximate config misses the
                # budget: no voltage step can help — degrade to fully
                # precise annotation (zero error, zero energy credit).
                self.degraded = "precise"
                self._emit(
                    "controller_degrade",
                    action="precise_fallback",
                    step=step_index,
                    error=error,
                    budget=self.options.error_budget,
                )
            else:
                self._emit(
                    "controller_degrade",
                    action="raise_voltage",
                    step=step_index,
                    error=error,
                    budget=self.options.error_budget,
                    ceiling=self.hi,
                )

    def result(self) -> FrontierResult:
        """Finalize the search into a :class:`FrontierResult`.

        Emits ``controller_converged`` (once) with the frontier and
        recommended operating point.
        """
        if self.degraded is not None:
            frontier = operating = -1
        else:
            frontier = self.lo
            operating = max(0, frontier - self.options.hysteresis)
        converged = self.degraded is not None or self.hi - self.lo <= 1
        result = FrontierResult(
            workload=self.workload,
            ladder=self.ladder,
            frontier=frontier,
            operating=operating,
            evals=list(self.evals),
            degraded=self.degraded,
            converged=converged,
        )
        if not self._converged_emitted:
            self._converged_emitted = True
            self._emit(
                "controller_converged",
                frontier=frontier,
                operating=operating,
                survivable_rate=result.survivable_rate,
                error=result.frontier_error,
                energy_saved=result.frontier_energy_saved,
                evals=len(self.evals),
                status=result.status,
            )
        return result

    # ------------------------------------------------------------ plumbing

    def _emit(self, kind: str, **fields) -> None:
        """Emit one controller decision (silent without ``emit``)."""
        if self.emit is not None:
            self.emit(
                kind, unit=self.workload, workload=self.workload, **fields
            )
