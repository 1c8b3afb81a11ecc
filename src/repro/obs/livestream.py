"""Worker heartbeats for parallel sweeps and their terminal status line.

A ``--jobs N`` sweep used to be a black box between "prefetching…" and
the merged tables: a stuck or thrashing worker was only visible when
``--timeout`` finally fired. Every worker therefore emits
*heartbeats* — ``worker_heartbeat`` run events naming the work unit,
the (workload, config) just simulated, accesses done,
accesses/second, the engine's slow-path fraction and the worker's
peak RSS — through its context's
:meth:`~repro.harness.runner.ExperimentContext.emit`, whose listener
puts them on the pool's queue (:mod:`repro.harness.parallel`). The
parent re-emits each one into its own context, so heartbeats land in
the run-history store with every other run event (``SELECT … FROM
events WHERE kind = 'worker_heartbeat'``).

When the driver prints and stderr is a TTY, a :class:`LiveProgressSink`
is the parent context's listener and redraws an in-place one-line
status from the latest heartbeat of every unit.

Heartbeats are plain dicts (not classes) so they cross process
boundaries with no import coupling.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

#: Event kind heartbeats carry in the queue, the context and the store.
HEARTBEAT_KIND = "worker_heartbeat"

#: Heartbeat lifecycle phases, in emission order per unit.
HEARTBEAT_PHASES = ("start", "trace", "run", "error", "done")


def rss_kb() -> int:
    """Peak resident set size of this process in KB (0 if unknown)."""
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, ValueError, OSError):
        return 0
    # Linux reports KB; macOS reports bytes.
    return int(usage // 1024) if usage > 1 << 30 else int(usage)


def make_heartbeat(
    unit: str,
    phase: str,
    *,
    workload: Optional[str] = None,
    config: Optional[str] = None,
    done: int = 0,
    total: int = 0,
    accesses: int = 0,
    accesses_per_sec: float = 0.0,
    slow_path_fraction: Optional[float] = None,
) -> dict:
    """One heartbeat's fields for ``ctx.emit`` (adds pid and RSS)."""
    return {
        "unit": unit,
        "phase": phase,
        "workload": workload,
        "config": config,
        "done": done,
        "total": total,
        "accesses": accesses,
        "accesses_per_sec": accesses_per_sec,
        "slow_path_fraction": slow_path_fraction,
        "rss_kb": rss_kb(),
        "pid": os.getpid(),
    }


def _format_rate(value: float) -> str:
    """Compact accesses/second rendering (``450k/s``, ``1.2M/s``)."""
    if value >= 1e6:
        return f"{value / 1e6:.1f}M/s"
    if value >= 1e3:
        return f"{value / 1e3:.0f}k/s"
    return f"{value:.0f}/s"


class LiveProgressSink:
    """In-place terminal status line over the latest heartbeat per unit.

    Its :meth:`handle` is a run-event listener; events other than
    heartbeats are ignored.

    Args:
        stream: where the status line goes (the driver passes
            ``sys.stderr`` when it is a TTY).
        width: maximum status-line width before truncation.
    """

    def __init__(self, stream, width: int = 110):
        """See class docstring for the arguments."""
        self.stream = stream
        self.width = width
        self.units: Dict[str, dict] = {}
        self._wrote_line = False

    def handle(self, event: dict) -> None:
        """Track one run event; a heartbeat redraws the status line."""
        if event.get("kind") != HEARTBEAT_KIND:
            return
        self.units[event.get("unit") or "?"] = event
        self.stream.write("\r" + self.status_line().ljust(self.width))
        self.stream.flush()
        self._wrote_line = True

    def close(self) -> None:
        """Erase a drawn status line, so output resumes there."""
        if self._wrote_line:
            self.stream.write("\r" + " " * self.width + "\r")
            self.stream.flush()
            self._wrote_line = False

    def status_line(self) -> str:
        """One-line summary of every unit's latest heartbeat."""
        parts = []
        for unit in sorted(self.units):
            beat = self.units[unit]
            phase = beat.get("phase", "?")
            if phase == "done":
                parts.append(f"{unit}: done")
                continue
            bit = f"{unit}: {beat.get('done', 0)}/{beat.get('total', 0)}"
            rate = beat.get("accesses_per_sec") or 0.0
            if rate:
                bit += f" @{_format_rate(rate)}"
            slow = beat.get("slow_path_fraction")
            if slow is not None:
                bit += f" slow={100.0 * slow:.0f}%"
            rss = beat.get("rss_kb") or 0
            if rss:
                bit += f" rss={rss // 1024}MB"
            parts.append(bit)
        line = f"[{len(self.units)} workers] " + " | ".join(parts)
        if len(line) > self.width:
            line = line[: self.width - 1] + "…"
        return line
