"""Wall-clock phase profiling.

The harness brackets its pipeline stages — workload construction,
trace generation, simulation, energy accounting, functional error
runs — with :meth:`PhaseProfiler.phase`. Phase names are
slash-separated paths (``sim/canneal/dopp-14bit-1/4``) so the report
can both show per-phase timings and roll them up by top-level stage.

Phases nest: ``experiment/fig10`` encloses the ``sim/…`` phases of the
runs it simulates. Each phase therefore records its total time and its
*self* time — the total minus the time of the phases opened inside it.
Stage roll-ups sum self times, so every nanosecond counts toward
exactly one stage.

Timing uses ``perf_counter_ns`` (monotonic, ns resolution); a disabled
profiler's ``phase()`` yields immediately without reading the clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, List


class PhaseStat:
    """Accumulated total and self time of one named phase."""

    __slots__ = ("total_ns", "self_ns", "count")

    def __init__(self):
        """Start at zero time, zero entries."""
        self.total_ns = 0
        self.self_ns = 0
        self.count = 0

    @property
    def seconds(self) -> float:
        """Accumulated time in seconds, nested phases included."""
        return self.total_ns / 1e9

    @property
    def self_seconds(self) -> float:
        """Accumulated time in seconds outside nested phases."""
        return self.self_ns / 1e9

    def as_dict(self) -> dict:
        """JSON-friendly snapshot."""
        return {
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
            "count": self.count,
        }


class PhaseProfiler:
    """Accumulates wall time per named phase.

    Args:
        enabled: a disabled profiler times nothing and renders empty.
    """

    def __init__(self, enabled: bool = True):
        """Create an empty profiler (see class docstring)."""
        self.enabled = enabled
        self._phases: Dict[str, PhaseStat] = {}
        #: Nested-phase time so far of each open phase, innermost last.
        self._open: List[int] = []

    @contextmanager
    def phase(self, name: str):
        """Time a block of code under ``name`` (re-entrant, additive)."""
        if not self.enabled:
            yield
            return
        self._open.append(0)
        start = perf_counter_ns()
        try:
            yield
        finally:
            elapsed = perf_counter_ns() - start
            nested = self._open.pop()
            if self._open:
                self._open[-1] += elapsed
            stat = self._phases.get(name)
            if stat is None:
                stat = self._phases[name] = PhaseStat()
            stat.total_ns += elapsed
            stat.self_ns += elapsed - nested
            stat.count += 1

    # ------------------------------------------------------------ reporting

    @property
    def phases(self) -> Dict[str, PhaseStat]:
        """Recorded phases in first-seen order."""
        return dict(self._phases)

    def total_seconds(self) -> float:
        """Time spent inside any phase (the sum of all self times)."""
        return sum(stat.self_ns for stat in self._phases.values()) / 1e9

    def by_stage(self) -> Dict[str, float]:
        """Self seconds per top-level stage (first path component)."""
        stages: Dict[str, int] = {}
        for name, stat in self._phases.items():
            stage = name.split("/", 1)[0]
            stages[stage] = stages.get(stage, 0) + stat.self_ns
        return {stage: ns / 1e9 for stage, ns in stages.items()}

    def report(self) -> dict:
        """JSON-friendly breakdown: per-phase and per-stage."""
        return {
            "phases": {name: stat.as_dict() for name, stat in self._phases.items()},
            "stages": self.by_stage(),
        }

    def render(self, min_seconds: float = 0.0) -> str:
        """Human-readable per-phase timing breakdown, by self time."""
        if not self._phases:
            return "phase profile: (no phases recorded)"
        stages = self.by_stage()
        grand = sum(stages.values()) or 1.0
        title = "phase profile (self time: nested phases excluded)"
        lines = [title, "=" * len(title)]
        lines.append(f"{'stage':<12} {'self s':>9}  {'%':>5}")
        for stage, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
            lines.append(f"{stage:<12} {secs:>9.3f}  {100 * secs / grand:>5.1f}")
        lines.append("")
        lines.append(f"{'phase':<44} {'self s':>9} {'total s':>9}  {'count':>5}")
        ordered = sorted(self._phases.items(), key=lambda kv: -kv[1].self_ns)
        for name, stat in ordered:
            if stat.self_seconds < min_seconds:
                continue
            lines.append(f"{name:<44} {stat.self_seconds:>9.3f} "
                         f"{stat.seconds:>9.3f}  {stat.count:>5}")
        return "\n".join(lines)

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's phases into this one."""
        for name, stat in other._phases.items():
            mine = self._phases.get(name)
            if mine is None:
                mine = self._phases[name] = PhaseStat()
            mine.total_ns += stat.total_ns
            mine.self_ns += stat.self_ns
            mine.count += stat.count

    def reset(self) -> None:
        """Drop all recorded phases."""
        self._phases.clear()
