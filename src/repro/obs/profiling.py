"""Wall-clock phase profiling.

The harness brackets its pipeline stages — workload construction,
trace generation, simulation, energy accounting, functional error
runs — with :meth:`PhaseProfiler.phase`. Phase names are
slash-separated paths (``sim/canneal/dopp-14bit-1/4``) so the report
can both show leaf timings and roll totals up by top-level stage.

Timing uses ``perf_counter_ns`` (monotonic, ns resolution); a disabled
profiler's ``phase()`` yields immediately without reading the clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict


class PhaseStat:
    """Accumulated time of one named phase."""

    __slots__ = ("total_ns", "count")

    def __init__(self):
        """Start at zero time, zero entries."""
        self.total_ns = 0
        self.count = 0

    @property
    def seconds(self) -> float:
        """Accumulated time in seconds."""
        return self.total_ns / 1e9

    def as_dict(self) -> dict:
        """JSON-friendly snapshot."""
        return {"seconds": self.seconds, "count": self.count}


class PhaseProfiler:
    """Accumulates wall time per named phase.

    Args:
        enabled: a disabled profiler times nothing and renders empty.
    """

    def __init__(self, enabled: bool = True):
        """Create an empty profiler (see class docstring)."""
        self.enabled = enabled
        self._phases: Dict[str, PhaseStat] = {}

    @contextmanager
    def phase(self, name: str):
        """Time a block of code under ``name`` (re-entrant, additive)."""
        if not self.enabled:
            yield
            return
        start = perf_counter_ns()
        try:
            yield
        finally:
            elapsed = perf_counter_ns() - start
            stat = self._phases.get(name)
            if stat is None:
                stat = self._phases[name] = PhaseStat()
            stat.total_ns += elapsed
            stat.count += 1

    # ------------------------------------------------------------ reporting

    @property
    def phases(self) -> Dict[str, PhaseStat]:
        """Recorded phases in first-seen order."""
        return dict(self._phases)

    def total_seconds(self) -> float:
        """Sum of *top-level* phase time (nested phases overlap parents)."""
        return sum(
            stat.seconds for name, stat in self._phases.items() if "/" not in name
        )

    def by_stage(self) -> Dict[str, float]:
        """Seconds per top-level stage (first path component)."""
        stages: Dict[str, float] = {}
        for name, stat in self._phases.items():
            stage = name.split("/", 1)[0]
            # Only leaves count toward a stage to avoid double-counting
            # when a parent phase with the same prefix is also recorded.
            if any(
                other != name and other.startswith(name + "/")
                for other in self._phases
            ):
                continue
            stages[stage] = stages.get(stage, 0.0) + stat.seconds
        return stages

    def report(self) -> dict:
        """JSON-friendly breakdown: per-phase and per-stage."""
        return {
            "phases": {name: stat.as_dict() for name, stat in self._phases.items()},
            "stages": self.by_stage(),
        }

    def render(self, min_seconds: float = 0.0) -> str:
        """Human-readable per-phase timing breakdown."""
        if not self._phases:
            return "phase profile: (no phases recorded)"
        stages = self.by_stage()
        grand = sum(stages.values()) or 1.0
        lines = ["phase profile", "============="]
        lines.append(f"{'stage':<12} {'seconds':>9}  {'%':>5}")
        for stage, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
            lines.append(f"{stage:<12} {secs:>9.3f}  {100 * secs / grand:>5.1f}")
        lines.append("")
        lines.append(f"{'phase':<44} {'seconds':>9}  {'count':>5}")
        ordered = sorted(self._phases.items(), key=lambda kv: -kv[1].total_ns)
        for name, stat in ordered:
            if stat.seconds < min_seconds:
                continue
            lines.append(f"{name:<44} {stat.seconds:>9.3f}  {stat.count:>5}")
        return "\n".join(lines)

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's phases into this one."""
        for name, stat in other._phases.items():
            mine = self._phases.get(name)
            if mine is None:
                mine = self._phases[name] = PhaseStat()
            mine.total_ns += stat.total_ns
            mine.count += stat.count

    def reset(self) -> None:
        """Drop all recorded phases."""
        self._phases.clear()
