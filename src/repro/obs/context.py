"""The :class:`Observability` bundle the harness threads through runs.

One bundle = one metrics registry + one tracer + one profiler, all
sharing an enabled/disabled fate. ``Observability.disabled()`` is the
library-wide default: its registry hands out no-op instruments, its
tracer has no sinks, its profiler skips the clock — so uninstrumented
callers pay (almost) nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import JsonlFileSink, RingBufferSink, Tracer
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import PhaseProfiler


class Observability:
    """Bundle of one registry, tracer and profiler.

    Args:
        enabled: master switch; a disabled bundle is inert.
        trace_path: attach a JSONL file sink at this path.
        ring_capacity: attach an in-memory ring sink of this size
            (0 disables the ring; the CLI uses the ring for its
            end-of-run event summary).
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
        self.registry = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(sample=trace_sample)
        self.ring: Optional[RingBufferSink] = None
        self.jsonl: Optional[JsonlFileSink] = None
        self.log = get_logger("obs")
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
