"""The reference engine: one slow-path step per trace record.

This is the semantics oracle — the batched engine must match it
bit-for-bit (``tests/test_engine_equivalence.py``). It still benefits
from the trace-level precomputation (the chunked row stream, map
seeding) because those are behavior-preserving.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.precompute import run_length, trace_rows
from repro.engine.step import finalize, make_state, prepare, process_access


def run(system, trace, limit: Optional[int] = None):
    """Simulate ``trace`` (optionally only its first ``limit`` records)."""
    n = run_length(trace, limit)
    st = make_state(system)
    prepare(system, trace)

    step = process_access
    for row in trace_rows(trace, n, system.config.block_size):
        step(system, st, *row)
    system.engine_stats = {
        "engine": "reference",
        "accesses": n,
        "fast": {},
        "slow": {"interpreted": n},
        "slow_fraction": 1.0 if n else 0.0,
    }
    return finalize(system, st)
