"""The :class:`Observability` bundle the harness threads through runs.

One bundle = one tracer + one profiler, sharing an enabled/disabled
fate. ``Observability.disabled()`` is the library-wide default: its
tracer has no sinks and its profiler skips the clock, so
uninstrumented callers pay (almost) nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import JsonlFileSink, RingBufferSink, Tracer
from repro.obs.profiling import PhaseProfiler


class Observability:
    """Bundle of one tracer and one profiler.

    Args:
        enabled: master switch; a disabled bundle is inert.
        trace_path: attach a JSONL file sink at this path.
        ring_capacity: attach an in-memory ring sink of this size
            (0 disables the ring; library callers read recent events
            and per-kind counts off it).
        trace_sample: emit one traced event in every ``trace_sample``
            (``--trace-sample N``); lets full-scale runs keep
            ``--trace-out`` on without drowning in events.
    """

    def __init__(
        self,
        enabled: bool = True,
        trace_path: Optional[str] = None,
        ring_capacity: int = 0,
        trace_sample: int = 1,
    ):
        """Build the bundle (see class docstring for the arguments)."""
        self.enabled = enabled
        self.tracer = Tracer(sample=trace_sample)
        self.ring: Optional[RingBufferSink] = None
        self.jsonl: Optional[JsonlFileSink] = None
        if enabled and ring_capacity:
            self.ring = RingBufferSink(ring_capacity)
            self.tracer.add_sink(self.ring)
        if enabled and trace_path:
            self.jsonl = JsonlFileSink(trace_path)
            self.tracer.add_sink(self.jsonl)
        self.profiler = PhaseProfiler(enabled=enabled)

    @classmethod
    def disabled(cls) -> "Observability":
        """The inert default bundle."""
        return cls(enabled=False)

    def close(self) -> None:
        """Flush and close every sink."""
        self.tracer.close()
