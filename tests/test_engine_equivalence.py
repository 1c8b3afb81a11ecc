"""Batched vs reference engine: bit-identical results.

The batched engine's contract is exact equivalence — same CacheStats,
cycle counts, stall breakdowns, coherence counters and approximation
behavior as the reference interpreter on every workload and LLC
organization, and the same counters inside the LLC: what the energy
model prices (``energy_events``) and what a run record carries
(``llc_stats``). Floating-point fields are compared with ``==``, not
approx: the fast path only regroups exact dyadic sums. With a tracer
attached the batched engine must also emit the reference's event
stream, and take the same fast paths as an untraced run.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import DoppelgangerConfig
from repro.core.maps import MapConfig
from repro.engine import ENGINES, engine_names, get_engine
from repro.engine.precompute import CHUNK
from repro.harness.runner import (
    ConfigSpec,
    _llc_stats,
    baseline_spec,
    dopp_spec,
    uni_spec,
)
from repro.hierarchy.llc import SplitDoppelgangerLLC
from repro.hierarchy.system import System
from repro.obs.events import EventSink, Tracer
from repro.workloads.registry import get_workload, workload_names

SEED = 3
SCALE = 0.05


def _run(trace, spec: ConfigSpec, engine: str):
    llc = spec.build_llc(trace.regions, 0.0625)
    return System(llc).run(trace, engine=engine), llc


def assert_llcs_equal(ref_llc, bat_llc, regions):
    """The LLC's own counters: priced by the energy model, carried by
    the run record."""
    assert ref_llc.energy_events() == bat_llc.energy_events()
    assert _llc_stats(ref_llc, regions) == _llc_stats(bat_llc, regions)


def assert_results_equal(ref, bat):
    assert ref.cycles == bat.cycles
    assert ref.per_core_cycles == bat.per_core_cycles
    assert ref.instructions == bat.instructions
    assert ref.llc_misses == bat.llc_misses
    assert ref.llc_accesses == bat.llc_accesses
    assert ref.dram_reads == bat.dram_reads
    assert ref.dram_writes == bat.dram_writes
    assert ref.traffic_bytes == bat.traffic_bytes
    assert ref.coherence_invalidations == bat.coherence_invalidations
    assert ref.back_invalidations == bat.back_invalidations
    assert ref.wb_stall_cycles == bat.wb_stall_cycles
    assert ref.l1_stats == bat.l1_stats
    assert ref.l2_stats == bat.l2_stats
    # Bit-identical, not approximately equal.
    assert ref.stall_breakdown == bat.stall_breakdown


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name in workload_names():
        out[name] = get_workload(name, seed=SEED, scale=SCALE).build_trace()
    return out


@pytest.mark.parametrize("name", workload_names())
def test_baseline_equivalence_all_workloads(traces, name):
    trace = traces[name]
    ref, ref_llc = _run(trace, baseline_spec(), "reference")
    bat, bat_llc = _run(trace, baseline_spec(), "batched")
    assert_results_equal(ref, bat)
    assert_llcs_equal(ref_llc, bat_llc, trace.regions)


@pytest.mark.parametrize("name", ["canneal", "jpeg"])
@pytest.mark.parametrize(
    "spec", [dopp_spec(14, 0.25), uni_spec(14, 0.5)], ids=["dopp", "uni"]
)
def test_approx_llc_equivalence(traces, name, spec):
    trace = traces[name]
    ref, ref_llc = _run(trace, spec, "reference")
    bat, bat_llc = _run(trace, spec, "batched")
    assert_results_equal(ref, bat)
    assert_llcs_equal(ref_llc, bat_llc, trace.regions)


def _fifo_precise_llc(trace):
    """The split design at dopp-14bit-1/4 sizes (scale 0.05) over a
    16 KB FIFO precise half, which the batched engine drives through the
    adapter: small enough that canneal's precise blocks both hit and
    get evicted, so the victim order matters."""
    cfg = DoppelgangerConfig(tag_entries=1024, data_fraction=0.25,
                             map=MapConfig(14))
    return SplitDoppelgangerLLC(cfg, precise_bytes=16 * 1024, policy="fifo",
                                regions=trace.regions)


def test_fifo_precise_half_equivalence(traces):
    trace = traces["canneal"]
    ref_llc = _fifo_precise_llc(trace)
    bat_llc = _fifo_precise_llc(trace)
    ref = System(ref_llc).run(trace, engine="reference")
    bat = System(bat_llc).run(trace, engine="batched")
    assert_results_equal(ref, bat)
    assert_llcs_equal(ref_llc, bat_llc, trace.regions)
    precise = ref_llc.precise.stats
    assert precise.hits > 0 and precise.evictions > 0


class _EventLog(EventSink):
    """Keeps every event as the JSONL sink would write it, minus ``ts_ns``."""

    def __init__(self):
        self.lines = []

    def emit(self, event):
        row = event.as_dict()
        del row["ts_ns"]
        self.lines.append(json.dumps(row, default=str))


def _run_traced(trace, spec: ConfigSpec, engine: str):
    log = _EventLog()
    llc = spec.build_llc(trace.regions, 0.0625)
    system = System(llc, tracer=Tracer([log]))
    result = system.run(trace, engine=engine)
    return result, llc, system.engine_stats, log.lines


TRACED_SPECS = {
    "baseline": baseline_spec(),
    "dopp": dopp_spec(14, 0.25),
    "uni": uni_spec(14, 0.5),
}
TRACED_CASES = [(name, "baseline") for name in workload_names()] + [
    (name, kind) for name in ("canneal", "jpeg") for kind in ("dopp", "uni")
]


@pytest.mark.parametrize(
    "name,kind", TRACED_CASES, ids=[f"{n}-{k}" for n, k in TRACED_CASES]
)
def test_traced_equivalence(traces, name, kind):
    trace = traces[name]
    spec = TRACED_SPECS[kind]
    ref, ref_llc, _, ref_events = _run_traced(trace, spec, "reference")
    bat, bat_llc, bat_stats, bat_events = _run_traced(trace, spec, "batched")
    assert_results_equal(ref, bat)
    assert_llcs_equal(ref_llc, bat_llc, trace.regions)
    assert len(bat_events) == len(ref_events)
    assert bat_events == ref_events
    # A tracer never changes which path an access takes.
    plain = System(spec.build_llc(trace.regions, 0.0625))
    assert plain.run(trace, engine="batched") == bat
    assert bat_stats == plain.engine_stats


def test_limit_equivalence(traces):
    trace = traces["swaptions"]
    llc_r = baseline_spec().build_llc(trace.regions, 0.0625)
    llc_b = baseline_spec().build_llc(trace.regions, 0.0625)
    ref = System(llc_r).run(trace, limit=5000, engine="reference")
    bat = System(llc_b).run(trace, limit=5000, engine="batched")
    assert_results_equal(ref, bat)
    assert_llcs_equal(llc_r, llc_b, trace.regions)


#: Limits around the row stream's chunk boundaries (the swaptions trace
#: has 33,912 accesses, more than 2 * CHUNK + 1).
CHUNK_EDGES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


@pytest.mark.parametrize("limit", CHUNK_EDGES)
def test_limit_equivalence_at_chunk_edges(traces, limit):
    trace = traces["swaptions"]
    assert len(trace) > limit
    llc_r = dopp_spec(14, 0.25).build_llc(trace.regions, 0.0625)
    llc_b = dopp_spec(14, 0.25).build_llc(trace.regions, 0.0625)
    ref_sys, bat_sys = System(llc_r), System(llc_b)
    ref = ref_sys.run(trace, limit=limit, engine="reference")
    bat = bat_sys.run(trace, limit=limit, engine="batched")
    assert bat_sys.engine_stats["accesses"] == limit
    assert_results_equal(ref, bat)
    assert_llcs_equal(llc_r, llc_b, trace.regions)


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_negative_limit_rejected(traces, engine):
    trace = traces["swaptions"]
    system = System(baseline_spec().build_llc(trace.regions, 0.0625))
    with pytest.raises(ValueError, match="limit must be non-negative, got -1"):
        system.run(trace, limit=-1, engine=engine)
    # Rejected before the engine started: nothing was simulated.
    assert system.engine_stats is None
    assert system.l1s[0].stats.accesses == 0


def test_engine_registry():
    assert engine_names()[0] == "batched"
    assert set(ENGINES) == {"batched", "reference"}
    name, fn = get_engine(None)
    assert name == "batched" and callable(fn)
    with pytest.raises(ValueError):
        get_engine("turbo")


def test_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert get_engine(None)[0] == "reference"
    # explicit choice beats the environment
    assert get_engine("batched")[0] == "batched"
