"""Event-based energy accounting for a simulated run.

Combines the structural model (:mod:`repro.energy.cacti`) with the
event counts an LLC adapter reports via ``energy_events()``:

* **Dynamic energy** = Σ over structures of (tag accesses × tag energy
  + data accesses × data energy) + map generations × 168 pJ.
* **Leakage energy** = leakage power × runtime. Because every
  comparison in the paper is a *reduction ratio* at equal wall-clock
  baselines, reductions are computed from leakage power and the two
  runs' cycle counts.

The map-generation energy follows Sec. 5.6 exactly: 21 floating-point
multiply-add operations at 8 pJ each (Galal et al. FPU generator), so
168 pJ per generated map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.energy.cacti import CactiModel
from repro.energy.structures import (
    CacheStructure,
    doppelganger_structures,
    l1_structure,
    l2_structure,
    unidoppelganger_structures,
)

#: Sec. 5.6: 21 FP multiply-add ops x 8 pJ per op.
MAP_GENERATION_PJ = 21 * 8.0


@dataclass
class EnergyReport:
    """Energy summary of one simulated run.

    Attributes:
        dynamic_pj: total LLC dynamic energy in picojoules.
        leakage_mw: LLC leakage power in milliwatts.
        area_mm2: total LLC area.
        breakdown: per-(structure, port) dynamic energy in pJ.
        cycles: runtime used for leakage energy.
        structures: the priced LLC's physical structures (Table 3),
            kept for leakage shares but left out of :meth:`to_dict`.
    """

    dynamic_pj: float
    leakage_mw: float
    area_mm2: float
    breakdown: Dict[tuple, float]
    cycles: int = 0
    frequency_ghz: float = 1.0
    structures: Dict[str, CacheStructure] = field(default_factory=dict)

    @property
    def leakage_energy_pj(self) -> float:
        """Leakage energy over the run (power x time)."""
        seconds = self.cycles / (self.frequency_ghz * 1e9)
        return self.leakage_mw * 1e-3 * seconds * 1e12

    @property
    def total_pj(self) -> float:
        """Dynamic plus leakage energy."""
        return self.dynamic_pj + self.leakage_energy_pj

    def to_dict(self) -> dict:
        """JSON-friendly form (the ``energy`` object of ``docs/api.md``)."""
        return {
            "dynamic_pj": self.dynamic_pj,
            "leakage_mw": self.leakage_mw,
            "leakage_energy_pj": self.leakage_energy_pj,
            "total_pj": self.total_pj,
            "area_mm2": self.area_mm2,
            "cycles": self.cycles,
            "frequency_ghz": self.frequency_ghz,
            "breakdown": {
                "/".join(map(str, key)): round(val, 3)
                for key, val in sorted(self.breakdown.items())
            },
        }


class EnergyModel:
    """Maps LLC event counts to energy and area.

    Args:
        cacti: structural model (a fresh calibrated model by default).
    """

    def __init__(self, cacti: Optional[CactiModel] = None):
        self.cacti = cacti or CactiModel()

    # -------------------------------------------------------- configurations

    def structures_for(self, llc) -> Dict[str, CacheStructure]:
        """Physical structures of an LLC adapter instance."""
        name = getattr(llc, "name", "baseline")
        if name == "baseline":
            from repro.energy.structures import conventional_structure

            size = getattr(getattr(llc, "cache", None), "size_bytes", 2 * 1024 * 1024)
            return {"baseline_llc": conventional_structure("baseline_llc", size)}
        if name == "doppelganger":
            cfg = llc.config
            return doppelganger_structures(
                tag_entries=cfg.tag_entries,
                data_fraction=cfg.data_fraction,
                ways=cfg.data_ways,
                map_bits=cfg.map.bits,
                precise_bytes=llc.precise.size_bytes,
            )
        if name == "unidoppelganger":
            cfg = llc.config
            return unidoppelganger_structures(
                tag_entries=cfg.tag_entries,
                data_fraction=cfg.data_fraction,
                ways=cfg.data_ways,
                map_bits=cfg.map.bits,
            )
        raise ValueError(f"unknown LLC organization {name!r}")

    # ------------------------------------------------------------- accounting

    def dynamic_energy(self, llc, cycles: int = 0) -> EnergyReport:
        """Energy report for a finished run of ``llc``."""
        structures = self.structures_for(llc)
        events = llc.energy_events()
        breakdown: Dict[tuple, float] = {}
        total = 0.0
        for (struct_name, port), count in events.items():
            if struct_name == "map_generation":
                energy = count * MAP_GENERATION_PJ
            else:
                structure = structures[struct_name]
                if port == "tag":
                    energy = count * self.cacti.tag_energy_pj(structure)
                elif port == "data":
                    energy = count * self.cacti.data_energy_pj(structure)
                else:
                    raise ValueError(f"unknown port {port!r}")
            breakdown[(struct_name, port)] = energy
            total += energy
        area = sum(self.cacti.area_mm2(s) for s in structures.values())
        leakage = self.cacti.leakage_mw_total(structures.values())
        return EnergyReport(
            dynamic_pj=total,
            leakage_mw=leakage,
            area_mm2=area,
            breakdown=breakdown,
            cycles=cycles,
            structures=structures,
        )

    def llc_area_mm2(self, llc) -> float:
        """Total LLC area of an adapter's configuration."""
        return sum(self.cacti.area_mm2(s) for s in self.structures_for(llc).values())

    def hierarchy_area_mm2(self, llc, num_cores: int = 4) -> float:
        """LLC area plus the private L1/L2 areas of ``num_cores`` cores."""
        private = num_cores * (
            self.cacti.area_mm2(l1_structure()) + self.cacti.area_mm2(l2_structure())
        )
        return self.llc_area_mm2(llc) + private
