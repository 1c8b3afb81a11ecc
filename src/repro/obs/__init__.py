"""Observability subsystem: event tracing, phase profiling, run history.

The simulator's structures (:class:`~repro.cache.stats.CacheStats`,
:class:`~repro.core.doppelganger.DoppelgangerStats`, the writeback
buffer, DRAM) count events internally, and a finished run carries the
numbers in its :class:`~repro.harness.runner.RunRecord`; this package
makes the protocol events behind them, and the cost of each pipeline
phase, visible:

* :mod:`repro.obs.events` — typed event tracing with pluggable sinks
  (in-memory ring buffer, JSONL file);
* :mod:`repro.obs.profiling` — wall-clock phase profiling built on
  ``perf_counter_ns``;
* :mod:`repro.obs.output` — machine-readable experiment output (JSON
  tables under ``results/json/`` and the ``BENCH_obs.json`` run
  summary);
* :mod:`repro.obs.logs` — the ``repro`` logger hierarchy;
* :mod:`repro.obs.store` — the sqlite run-history store every harness
  invocation appends to (``repro history``, ``store:`` compare refs);
* :mod:`repro.obs.livestream` — worker heartbeats for parallel sweeps
  and their TTY status line.

:class:`Observability` bundles one tracer and one profiler and is what
the harness passes around; ``Observability.disabled()`` (the default
everywhere) costs one attribute check per instrumented site.
"""

from repro.obs.context import Observability
from repro.obs.events import (
    EVENT_BACK_INVALIDATION,
    EVENT_COHERENCE_INVALIDATION,
    EVENT_CONTROLLER_CONVERGED,
    EVENT_CONTROLLER_DEGRADE,
    EVENT_CONTROLLER_STEP,
    EVENT_DATA_EVICTION,
    EVENT_FAULT_INJECTED,
    EVENT_MAP_GENERATION,
    EVENT_TAG_INSERT,
    EVENT_TAG_MOVE,
    EVENT_WB_ENQUEUE,
    EVENT_WORKER_RETRY,
    Event,
    EventSink,
    JsonlFileSink,
    RingBufferSink,
    Tracer,
)
from repro.obs.livestream import LiveProgressSink
from repro.obs.logs import configure_logging, get_logger
from repro.obs.profiling import PhaseProfiler
from repro.obs.store import (
    RunStore,
    default_store_path,
    is_store_ref,
    load_bench_source,
)

__all__ = [
    "Observability",
    "Event",
    "EventSink",
    "RingBufferSink",
    "JsonlFileSink",
    "Tracer",
    "EVENT_MAP_GENERATION",
    "EVENT_TAG_INSERT",
    "EVENT_TAG_MOVE",
    "EVENT_DATA_EVICTION",
    "EVENT_BACK_INVALIDATION",
    "EVENT_COHERENCE_INVALIDATION",
    "EVENT_WB_ENQUEUE",
    "EVENT_FAULT_INJECTED",
    "EVENT_WORKER_RETRY",
    "EVENT_CONTROLLER_STEP",
    "EVENT_CONTROLLER_DEGRADE",
    "EVENT_CONTROLLER_CONVERGED",
    "PhaseProfiler",
    "RunStore",
    "default_store_path",
    "is_store_ref",
    "load_bench_source",
    "LiveProgressSink",
    "configure_logging",
    "get_logger",
]
