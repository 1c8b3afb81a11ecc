"""Structured event tracing with pluggable sinks.

*Structure events* are the interesting Doppelgänger mechanics — the
ones the paper's Secs. 3.3-3.6 reason about — not every cache access.
They reach the tracer alone:

==========================  ===================================================
kind                        payload fields
==========================  ===================================================
``map_generation``          ``addr``, ``region``, ``map`` (Sec. 3.7 hash+bin)
``tag_insert``              ``addr``, ``map``, ``shared`` (joined existing list?)
``tag_move``                ``addr``, ``old_map``, ``new_map`` (Sec. 3.4 write)
``data_eviction``           ``map``, ``tags``, ``dirty`` (Sec. 3.5 fan-out)
``back_invalidation``       ``addr``, ``origin`` (inclusive-LLC purge)
``coherence_invalidation``  ``addr``, ``writer``, ``sharers`` (MSI store)
``wb_enqueue``              ``addr``, ``stall`` (writeback-buffer pressure)
``fault_injected``          ``site``, ``addr``, ``detected`` (resilience layer)
==========================  ===================================================

``fault_injected`` marks one injected fault (``detected`` tells an
ECC-detected refetch from a silent approximate-array corruption; see
``docs/robustness.md``).

*Run events* — ``worker_retry``, ``worker_heartbeat``,
``controller_step`` / ``controller_degrade`` /
``controller_converged`` and ``run_cancelled`` — describe the harness
run, not the simulated hardware. They enter through
:meth:`repro.harness.runner.ExperimentContext.emit`, which records
them in ``ctx.events`` (always stored in the run history) and forwards
them here; ``docs/observability.md`` lists their payloads.

A :class:`Tracer` fans each event out to its sinks. With no sinks
attached ``tracer.enabled`` is False and instrumented code skips the
emit entirely; the harness-wide default is a disabled tracer, so the
simulation hot path pays one attribute check.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns
from typing import Deque, List, NamedTuple, Optional

from collections import deque

EVENT_MAP_GENERATION = "map_generation"
EVENT_TAG_INSERT = "tag_insert"
EVENT_TAG_MOVE = "tag_move"
EVENT_DATA_EVICTION = "data_eviction"
EVENT_BACK_INVALIDATION = "back_invalidation"
EVENT_COHERENCE_INVALIDATION = "coherence_invalidation"
EVENT_WB_ENQUEUE = "wb_enqueue"
EVENT_FAULT_INJECTED = "fault_injected"
EVENT_WORKER_RETRY = "worker_retry"
EVENT_CONTROLLER_STEP = "controller_step"
EVENT_CONTROLLER_DEGRADE = "controller_degrade"
EVENT_CONTROLLER_CONVERGED = "controller_converged"

#: Every kind an instrumented structure may emit (docs + validation).
EVENT_KINDS = (
    EVENT_MAP_GENERATION,
    EVENT_TAG_INSERT,
    EVENT_TAG_MOVE,
    EVENT_DATA_EVICTION,
    EVENT_BACK_INVALIDATION,
    EVENT_COHERENCE_INVALIDATION,
    EVENT_WB_ENQUEUE,
    EVENT_FAULT_INJECTED,
    EVENT_WORKER_RETRY,
    EVENT_CONTROLLER_STEP,
    EVENT_CONTROLLER_DEGRADE,
    EVENT_CONTROLLER_CONVERGED,
)


class Event(NamedTuple):
    """One traced event."""

    seq: int
    ts_ns: int
    kind: str
    fields: dict

    def as_dict(self) -> dict:
        """Flat JSON-friendly representation."""
        out = {"seq": self.seq, "ts_ns": self.ts_ns, "kind": self.kind}
        out.update(self.fields)
        return out


class EventSink:
    """Sink interface; subclasses override :meth:`emit`."""

    def emit(self, event: Event) -> None:
        """Consume one event (abstract)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""

    def summary(self) -> dict:
        """Sink health for :meth:`Tracer.summary`; subclasses extend."""
        return {"sink": type(self).__name__}


class RingBufferSink(EventSink):
    """Keeps the last ``capacity`` events in memory.

    When the ring wraps, the overwritten events are counted in
    ``dropped_events`` — ``total_emitted == len(events) +
    dropped_events`` always holds (until :meth:`clear`), so a
    truncated trace is detectable instead of silently looking
    complete.
    """

    def __init__(self, capacity: int = 4096):
        """Allocate a ring holding the last ``capacity`` events."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buf: Deque[Event] = deque(maxlen=capacity)
        self.total_emitted = 0
        #: Events overwritten by ring wrap-around (lost to readers).
        self.dropped_events = 0

    def emit(self, event: Event) -> None:
        """Append one event, counting a drop when the ring is full."""
        if len(self._buf) == self.capacity:
            self.dropped_events += 1
        self._buf.append(event)
        self.total_emitted += 1

    @property
    def events(self) -> List[Event]:
        """Buffered events, oldest first."""
        return list(self._buf)

    def counts_by_kind(self) -> dict:
        """Histogram of buffered event kinds."""
        counts: dict = {}
        for ev in self._buf:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return counts

    def clear(self) -> None:
        """Drop buffered events (``total_emitted`` keeps counting).

        A deliberate clear is not data loss: ``dropped_events`` keeps
        counting wrap-around only.
        """
        self._buf.clear()

    def summary(self) -> dict:
        """Capacity, fill level and drop accounting for this ring."""
        return {
            "sink": type(self).__name__,
            "capacity": self.capacity,
            "buffered": len(self._buf),
            "total_emitted": self.total_emitted,
            "dropped_events": self.dropped_events,
        }


class JsonlFileSink(EventSink):
    """Appends one JSON object per event to a file.

    The file is opened lazily on the first event so constructing a
    tracer never touches the filesystem.
    """

    def __init__(self, path: str):
        """Bind the sink to ``path`` without opening it yet."""
        self.path = path
        self._fh = None
        self.written = 0

    def emit(self, event: Event) -> None:
        """Append one JSON line, opening the file on first use."""
        if self._fh is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(self.path, "w")
        self._fh.write(json.dumps(event.as_dict(), default=str))
        self._fh.write("\n")
        self.written += 1

    def close(self) -> None:
        """Close the file handle if it was opened."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def summary(self) -> dict:
        """Path and line count for this file sink."""
        return {
            "sink": type(self).__name__,
            "path": self.path,
            "written": self.written,
        }


def read_jsonl(path: str) -> List[dict]:
    """Load a JSONL trace back into a list of dicts."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


class Tracer:
    """Fans events out to attached sinks.

    ``enabled`` is kept in sync with sink attachment so hot code can
    guard with ``if tracer is not None and tracer.enabled``.

    Args:
        sinks: initial sinks (more can be attached later).
        sample: emit one event in every ``sample`` (1 = every event).
            Sequence numbers keep counting *all* events, so a sampled
            trace still reveals the true event volume — consecutive
            ``seq`` values in the file differ by ``sample``.
    """

    def __init__(self, sinks: Optional[List[EventSink]] = None, sample: int = 1):
        """Create a tracer over ``sinks`` with 1-in-``sample`` emission."""
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self._sinks: List[EventSink] = list(sinks) if sinks else []
        self.enabled = bool(self._sinks)
        self.sample = int(sample)
        self._seq = 0
        self._forwarded = 0
        self._t0 = perf_counter_ns()

    def add_sink(self, sink: EventSink) -> EventSink:
        """Attach a sink (enables the tracer); returns it."""
        self._sinks.append(sink)
        self.enabled = True
        return sink

    @property
    def sinks(self) -> List[EventSink]:
        """The attached sinks (a copy)."""
        return list(self._sinks)

    def emit(self, kind: str, **fields) -> None:
        """Emit one event; a no-op without sinks.

        With ``sample > 1`` only every ``sample``-th event reaches the
        sinks (the first one always does), but every call advances the
        sequence counter.
        """
        if not self.enabled:
            return
        self._seq += 1
        if (self._seq - 1) % self.sample:
            return
        event = Event(self._seq, perf_counter_ns() - self._t0, kind, fields)
        self._forwarded += 1
        for sink in self._sinks:
            sink.emit(event)

    def summary(self) -> dict:
        """Emission accounting across the tracer and its sinks.

        ``emitted`` counts every :meth:`emit` call, ``forwarded`` the
        events that survived sampling, and ``dropped_events`` sums the
        sinks' wrap-around losses (ring buffers) — nonzero means the
        buffered trace is truncated and conclusions drawn from it
        should say so.
        """
        sinks = [sink.summary() for sink in self._sinks]
        return {
            "emitted": self._seq,
            "forwarded": self._forwarded,
            "sample": self.sample,
            "dropped_events": sum(
                s.get("dropped_events", 0) for s in sinks
            ),
            "sinks": sinks,
        }

    def close(self) -> None:
        """Close every sink."""
        for sink in self._sinks:
            sink.close()
