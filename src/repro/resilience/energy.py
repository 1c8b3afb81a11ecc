"""Voltage scaling model: SRAM Vdd steps, fault rates, energy credits.

Doppelgänger's approximate data array tolerates wrong bits, which is
what makes aggressive Vdd scaling of that one structure attractive:
dynamic energy falls quadratically with supply voltage while the
per-bit failure probability rises exponentially as cells approach
their retention margin (the classic SRAM Vmin trade-off; the
error-analysis framing follows the approximate-multiplier literature,
arXiv:1908.01343, and the quality-management taxonomy of the
approximate-computing survey, arXiv:2307.11124).

This module is the bridge between that physical story and the existing
deterministic fault layer (:mod:`repro.resilience.faults`):

* a :class:`VoltageStep` names one operating point — its Vdd, the
  per-bit fault probability the margin loss implies, the per-read
  fault rate over a 64-bit storage word, and the dynamic/leakage
  energy scale factors relative to nominal;
* :func:`voltage_ladder` builds the ordered ladder of steps (nominal
  first) that the :class:`~repro.resilience.controller.ErrorBudgetController`
  searches;
* :meth:`VoltageStep.fault_config` maps a step onto a
  :class:`~repro.resilience.faults.FaultConfig`, so every existing
  injection/determinism guarantee carries over unchanged;
* :func:`energy_saved_fraction` turns a step into an *energy credit*:
  the fraction of a run's total LLC energy saved by holding only the
  approximate data array at the step's Vdd (tag, MTag and precise
  structures must stay correct, so they remain at nominal voltage).

The numbers: per-bit failure probability grows one decade per
:data:`DECADE_V` volts of droop below :data:`V_NOM` starting from
:data:`P_BIT_NOM` (a nominal-voltage soft-error floor small enough to
round to zero), dynamic energy scales as ``(V/V_nom)**2`` (CV²), and
leakage power scales linearly with V (first-order; sub-threshold
effects would make scaling look even better). Rates below
:data:`MIN_READ_RATE` are floored to exactly ``0.0`` so the nominal
step normalizes to the fault-free spec — a ladder's step 0 memoizes
and labels identically to a plain fault-free configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.resilience.faults import TARGET_APPROX_DATA, TARGET_DRAM, FaultConfig

#: Nominal SRAM supply voltage (V).
V_NOM = 1.0
#: Lowest modeled supply voltage (V) — far past any real Vmin.
V_MIN = 0.5
#: Per-bit per-read failure probability at nominal voltage.
P_BIT_NOM = 1e-9
#: Volts of droop per decade of per-bit failure probability.
DECADE_V = 0.06
#: Bits per storage word (the functional model stores float64 values).
WORD_BITS = 64
#: Per-read rates below this floor to exactly zero (fault-free step).
MIN_READ_RATE = 1e-7

#: Structures that run at scaled voltage: only the approximate data
#: arrays — tag/MTag/precise structures hold architectural state and
#: stay at nominal Vdd.
APPROX_DATA_STRUCTURES = ("dopp_data", "uni_data")

#: Structures a voltage-scaled data array exposes to fault injection
#: (approximate DRAM transfers ride along unprotected, as in the
#: ``faultsweep`` experiment).
DEFAULT_FAULT_TARGETS = (TARGET_APPROX_DATA, TARGET_DRAM)


def p_bit(vdd: float, v_nom: float = V_NOM) -> float:
    """Per-bit per-read failure probability at supply voltage ``vdd``.

    One decade of probability per :data:`DECADE_V` volts of droop
    below ``v_nom``, from the :data:`P_BIT_NOM` floor; clamped to 1.
    """
    if vdd >= v_nom:
        return P_BIT_NOM
    return min(1.0, P_BIT_NOM * 10.0 ** ((v_nom - vdd) / DECADE_V))


def read_rate(vdd: float, v_nom: float = V_NOM) -> float:
    """Per-read fault probability of one ``WORD_BITS``-bit word.

    ``1 - (1 - p_bit)**64``, floored to exactly 0.0 below
    :data:`MIN_READ_RATE` so nominal-voltage steps normalize to the
    fault-free configuration.
    """
    rate = 1.0 - (1.0 - p_bit(vdd, v_nom)) ** WORD_BITS
    return rate if rate >= MIN_READ_RATE else 0.0


def dynamic_scale(vdd: float, v_nom: float = V_NOM) -> float:
    """Dynamic-energy scale factor vs nominal (CV²: quadratic)."""
    return (vdd / v_nom) ** 2


def leakage_scale(vdd: float, v_nom: float = V_NOM) -> float:
    """Leakage-power scale factor vs nominal (first-order: linear)."""
    return vdd / v_nom


@dataclass(frozen=True)
class VoltageStep:
    """One operating point of the voltage ladder.

    Attributes:
        index: position in the ladder (0 = nominal).
        vdd: supply voltage of the approximate data array (V).
        p_bit: per-bit per-read failure probability at this Vdd.
        read_rate: per-read fault probability over one 64-bit word
            (0.0 exactly when the step is effectively fault-free).
        flip_bits: bits flipped per faulty read (expected faulty bits
            per word, at least 1).
        dynamic_scale: dynamic-energy factor vs nominal (``<= 1``).
        leakage_scale: leakage-power factor vs nominal (``<= 1``).
    """

    index: int
    vdd: float
    p_bit: float
    read_rate: float
    flip_bits: int
    dynamic_scale: float
    leakage_scale: float

    def fault_config(
        self,
        seed: int,
        targets: Tuple[str, ...] = DEFAULT_FAULT_TARGETS,
    ) -> Optional[FaultConfig]:
        """The step's deterministic fault model (None = fault-free).

        The returned config rides the existing splitmix64 injection
        machinery, so a voltage step inherits every determinism
        guarantee of :mod:`repro.resilience.faults`.
        """
        if self.read_rate <= 0.0:
            return None
        return FaultConfig(
            seed=seed,
            read_rate=self.read_rate,
            flip_bits=self.flip_bits,
            targets=targets,
        )


def voltage_ladder(
    steps: int = 8, v_nom: float = V_NOM, v_min: float = V_MIN
) -> Tuple[VoltageStep, ...]:
    """The ordered ladder of voltage steps the controller searches.

    ``steps`` evenly spaced supply voltages from ``v_nom`` (step 0,
    fault-free) down to ``v_min`` (the most aggressive point). Fault
    rate is non-decreasing and energy scale non-increasing along the
    ladder — the monotone structure the controller's bracketing search
    relies on.

    Raises:
        ConfigError: fewer than 2 steps, or a non-increasing voltage
            range.
    """
    if steps < 2:
        raise ConfigError(
            f"must be >= 2 (nominal plus at least one scaled step), "
            f"got {steps}",
            field="voltage_steps",
        )
    if not 0.0 < v_min < v_nom:
        raise ConfigError(
            f"need 0 < v_min < v_nom, got v_min={v_min}, v_nom={v_nom}",
            field="voltage_steps",
        )
    ladder = []
    span = (v_nom - v_min) / (steps - 1)
    for i in range(steps):
        vdd = v_nom - i * span
        p = p_bit(vdd, v_nom)
        ladder.append(
            VoltageStep(
                index=i,
                vdd=round(vdd, 6),
                p_bit=p,
                read_rate=read_rate(vdd, v_nom),
                flip_bits=min(WORD_BITS, max(1, round(WORD_BITS * p))),
                dynamic_scale=dynamic_scale(vdd, v_nom),
                leakage_scale=leakage_scale(vdd, v_nom),
            )
        )
    return tuple(ladder)


def approx_energy_shares(record, model=None) -> Tuple[float, float]:
    """Shares of one run's LLC energy owned by the approximate array.

    Returns ``(dynamic_share, leakage_share)``: the fraction of the
    run's dynamic energy spent in the approximate data ports (the
    MTag port stays nominal — its bits are architectural), and the
    fraction of leakage power attributable to the approximate data
    bits (pro-rated by bit count within the data structure).

    Args:
        record: a :class:`~repro.harness.runner.RunRecord` of a
            Doppelgänger configuration.
        model: optional :class:`~repro.energy.accounting.EnergyModel`
            (a fresh calibrated model by default).
    """
    from repro.energy.accounting import EnergyModel

    model = model or EnergyModel()
    report = record.energy
    dyn_approx = sum(
        pj
        for (struct, port), pj in report.breakdown.items()
        if struct in APPROX_DATA_STRUCTURES and port == "data"
    )
    dyn_share = dyn_approx / report.dynamic_pj if report.dynamic_pj else 0.0
    structures = model.structures_for(record.llc)
    total_leak = model.cacti.leakage_mw_total(structures.values())
    approx_leak = 0.0
    for name, structure in structures.items():
        if name in APPROX_DATA_STRUCTURES and structure.has_data:
            data_frac = structure.data_bits_total / (
                structure.tag_bits_total + structure.data_bits_total
            )
            approx_leak += model.cacti.leakage_mw(structure) * data_frac
    leak_share = approx_leak / total_leak if total_leak else 0.0
    return dyn_share, leak_share


def energy_saved_fraction(record, step: VoltageStep, model=None) -> float:
    """Energy credit: fraction of total LLC energy saved at ``step``.

    Only the approximate data array scales — its dynamic energy by
    ``step.dynamic_scale`` and its leakage share by
    ``step.leakage_scale`` — so the credit is the approximate shares
    weighted by ``1 - scale``, over the run's total (dynamic +
    leakage) energy. Step 0 (nominal) always yields 0.0.
    """
    dyn_share, leak_share = approx_energy_shares(record, model)
    report = record.energy
    total = report.total_pj
    if not total:
        return 0.0
    saved = report.dynamic_pj * dyn_share * (1.0 - step.dynamic_scale)
    saved += report.leakage_energy_pj * leak_share * (1.0 - step.leakage_scale)
    return saved / total
