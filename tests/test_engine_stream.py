"""The engines' row stream (``repro.engine.precompute.trace_rows``).

Both engines read the trace through one stream that converts
``CHUNK`` records at a time, so a run holds one chunk of Python
lists, never a whole-trace conversion.
"""

from __future__ import annotations

import tracemalloc
from itertools import islice

import numpy as np
import pytest

from repro.engine import precompute
from repro.engine.precompute import CHUNK, run_length, trace_rows
from repro.harness.runner import baseline_spec
from repro.hierarchy.system import System
from repro.trace.trace import Trace
from repro.workloads.registry import get_workload

L1_SETS = 64
SLOT_BASE = 4


@pytest.fixture(scope="module")
def trace():
    """swaptions at seed 3, scale 0.05 (33,912 accesses, over four
    chunks), with every address moved off its block boundary."""
    t = get_workload("swaptions", seed=3, scale=0.05).build_trace()
    offsets = np.arange(len(t), dtype=np.int64) % t.block_size
    return Trace(
        t.name, t.regions, t.cores, t.addrs + offsets, t.is_write, t.approx,
        t.region_ids, t.value_ids, t.gaps, t.values, t.initial_image,
        t.block_size,
    )


def _limit(trace, limit):
    return {"len": len(trace), "past": len(trace) + 1}.get(limit, limit)


@pytest.mark.parametrize("limit", [0, 1, CHUNK, "len", "past"])
def test_rows_equal_whole_trace_conversion(trace, limit):
    """Every field of every row, in both forms the engines ask for,
    equals a record-by-record conversion of the whole trace."""
    n = run_length(trace, _limit(trace, limit))
    assert n == min(_limit(trace, limit), len(trace))
    bs = trace.block_size
    whole = [
        (core, addr - addr % bs, wr, ap, rid, vid, gap)
        for core, addr, wr, ap, rid, vid, gap in islice(trace, n)
    ]
    # The reference engine's rows: process_access's arguments.
    rows = list(trace_rows(trace, n, bs))
    assert rows == whole
    # The batched engine's: the L1 set first, the gap plus slot_base.
    rows = list(trace_rows(trace, n, bs, SLOT_BASE, L1_SETS))
    assert rows == [
        (core * L1_SETS + (addr // bs) % L1_SETS, core, addr, wr, ap, rid,
         vid, gap + SLOT_BASE)
        for core, addr, wr, ap, rid, vid, gap in whole
    ]
    # Plain Python values, not numpy scalars.
    assert {tuple(map(type, row)) for row in rows} <= {
        (int, int, int, bool, bool, int, int, int)
    }


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_run_memory_stays_under_a_whole_trace_conversion(monkeypatch, engine):
    """A run's traced peak stays under half of what converting its
    records in one go holds.

    canneal keeps all 196,608 accesses at every scale; the run
    simulates 30,000 of them, 1,024 records a chunk, so that it stays
    short under tracemalloc. A whole-trace conversion (~17 MB) exceeds
    the bound more than tenfold.
    """
    t = get_workload("canneal", seed=3, scale=0.01).build_trace()
    n = 30000
    monkeypatch.setattr(precompute, "CHUNK", 1024)
    system = System(baseline_spec().build_llc(t.regions, 0.0625))
    cols = (t.cores, t.addrs & np.int64(-t.block_size), t.is_write, t.approx,
            t.region_ids, t.value_ids, t.gaps)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lists = [col[:n].tolist() for col in cols]
        converted = tracemalloc.get_traced_memory()[0] - start
        del lists
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        system.run(t, limit=n, engine=engine)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert system.engine_stats["accesses"] == n
    assert peak < converted / 2, (peak, converted)
