"""Slow-path-fraction accounting (``system.engine_stats``).

ISSUE 5's contract: the batched engine publishes per-class batch and
fall-through tallies, the classes sum to the total access count, and
the fraction surfaces through ``RunRecord`` into the BENCH summaries.
"""

from __future__ import annotations

import pytest

from repro.harness.runner import (
    ExperimentContext,
    baseline_spec,
    dopp_spec,
    run_trace,
    snap_pow2,
    uni_spec,
)
from repro.hierarchy.system import System, SystemConfig
from repro.workloads.registry import get_workload, workload_names

SEED = 3
SCALE = 0.05


@pytest.fixture(scope="module")
def traces():
    out = {}
    for name in workload_names():
        out[name] = get_workload(name, seed=SEED, scale=SCALE).build_trace()
    return out


def _engine_stats(trace, spec, engine, config=None):
    llc = spec.build_llc(trace.regions, 0.0625)
    system = System(llc, config=config or SystemConfig())
    system.run(trace, engine=engine)
    return system.engine_stats


@pytest.mark.parametrize("name", workload_names())
def test_classes_sum_to_accesses_baseline(traces, name):
    es = _engine_stats(traces[name], baseline_spec(), "batched")
    assert es["engine"] == "batched"
    assert es["accesses"] == len(traces[name])
    fast = sum(es["fast"].values())
    slow = sum(es["slow"].values())
    assert fast + slow == es["accesses"]
    assert es["slow_fraction"] == (slow / es["accesses"])


@pytest.mark.parametrize(
    "spec", [dopp_spec(14, 0.25), uni_spec(14, 0.5)], ids=["dopp", "uni"]
)
@pytest.mark.parametrize("name", ["canneal", "jpeg"])
def test_classes_sum_to_accesses_approx_llc(traces, name, spec):
    es = _engine_stats(traces[name], spec, "batched")
    assert sum(es["fast"].values()) + sum(es["slow"].values()) == es["accesses"]
    # Doppelgänger organizations retire double-misses through the
    # adapter protocol, not the raw-dict LLC path.
    assert es["fast"]["llc_read_hit"] == 0
    assert es["fast"]["mem_fill"] == 0


@pytest.mark.parametrize("name", workload_names())
def test_inlined_llc_evictions_count_loads_and_stores(traces, name):
    # Every access retires inline here, so every LLC eviction (each a
    # back-invalidation) is an inlined one, whether a load or a store
    # missed.
    rec = run_trace(
        traces[name], baseline_spec(), engine="batched",
        size_factor=snap_pow2(SCALE),
    )
    assert rec.engine_stats["slow_fraction"] == 0
    inlined = rec.engine_stats["aux"]["llc_evictions_inlined"]
    assert inlined == rec.system.back_invalidations
    assert inlined == rec.llc_stats["baseline"]["evictions"]


def test_slow_fraction_below_gate_on_table2(traces):
    """The ISSUE 5 acceptance gate: < 3% fall-through on table2."""
    total = slow = 0
    for name in workload_names():
        es = _engine_stats(traces[name], baseline_spec(), "batched")
        total += es["accesses"]
        slow += sum(es["slow"].values())
    assert total > 0
    assert slow / total < 0.03


def test_reference_engine_reports_interpreted(traces):
    es = _engine_stats(traces["jpeg"], baseline_spec(), "reference")
    assert es["engine"] == "reference"
    assert es["slow"] == {"interpreted": len(traces["jpeg"])}
    assert es["slow_fraction"] == 1.0


def test_delegated_config_is_marked(traces):
    # A non-power-of-two issue width delegates wholesale to the
    # reference loop.
    cfg = SystemConfig(issue_width=3)
    es = _engine_stats(traces["jpeg"], baseline_spec(), "batched", cfg)
    assert es["engine"] == "batched"
    assert es.get("delegated") is True
    assert es["slow_fraction"] == 1.0


def test_engine_stats_surface_in_records_and_summaries():
    ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=["jpeg"])
    rec = ctx.run("jpeg", baseline_spec())
    assert rec.engine_stats is not None
    assert rec.engine_stats["accesses"] == rec.accesses
    assert "engine_stats" in rec.to_dict()
    (row,) = ctx.run_summaries()
    assert row["slow_path_fraction"] == rec.engine_stats["slow_fraction"]
    assert row["engine_stats"] == rec.engine_stats


#: The parent engine's tallies for these runs, before the Doppelgänger
#: LLC step moved inline; the inline step must not move them.
DOPP_STEP_STATS = {
    ("canneal", "dopp"): dict(
        l1_read_hit=78227, l1_write_hit=6898, l2_read_hit=22591,
        l2_write_hit=45, llc_adapter_fill=3820, llc_adapter_hit=80087,
        write_fill=4940, coherence_inlined=10867,
        remote_invalidations_inlined=23626),
    ("canneal", "uni"): dict(
        l1_read_hit=77864, l1_write_hit=6900, l2_read_hit=21279,
        l2_write_hit=43, llc_adapter_fill=8189, llc_adapter_hit=77393,
        write_fill=4940, coherence_inlined=10803,
        remote_invalidations_inlined=23329),
    ("fluidanimate", "dopp"): dict(
        l1_read_hit=308, l1_write_hit=0, l2_read_hit=0, l2_write_hit=385,
        llc_adapter_fill=51537, llc_adapter_hit=0, write_fill=1155,
        coherence_inlined=0, remote_invalidations_inlined=0),
    ("fluidanimate", "uni"): dict(
        l1_read_hit=308, l1_write_hit=0, l2_read_hit=0, l2_write_hit=0,
        llc_adapter_fill=51537, llc_adapter_hit=0, write_fill=1540,
        coherence_inlined=0, remote_invalidations_inlined=0),
}


def _expected_stats(accesses, t):
    """A full ``engine_stats`` dict from the tallies that vary."""
    fast = ("l1_read_hit", "l1_write_hit", "l2_read_hit", "l2_write_hit",
            "llc_read_hit", "mem_fill", "llc_adapter_hit",
            "llc_adapter_fill", "write_fill")
    return {
        "engine": "batched",
        "accesses": accesses,
        "fast": {k: t.get(k, 0) for k in fast},
        "slow": {"untracked_values": 0, "victim_entangled": 0, "faults": 0},
        "aux": {
            "coherence_inlined": t["coherence_inlined"],
            "remote_invalidations_inlined": t["remote_invalidations_inlined"],
            "llc_evictions_inlined": 0,
        },
        "slow_fraction": 0.0,
    }


@pytest.mark.parametrize("name,kind", sorted(DOPP_STEP_STATS),
                         ids=[f"{n}-{k}" for n, k in sorted(DOPP_STEP_STATS)])
def test_doppelganger_llc_step_runs_inline(traces, monkeypatch, name, kind):
    """The batched engine retires every Doppelgänger LLC access without
    the adapter's read/fill or the core's lookup, and keeps its tallies."""
    from repro.core.doppelganger import DoppelgangerCache
    from repro.hierarchy.llc import SplitDoppelgangerLLC, UnifiedDoppelgangerLLC

    def forbidden(*args, **kwargs):
        raise AssertionError("the batched LLC step called the adapter")

    for cls in (SplitDoppelgangerLLC, UnifiedDoppelgangerLLC):
        monkeypatch.setattr(cls, "read", forbidden)
        monkeypatch.setattr(cls, "fill", forbidden)
    monkeypatch.setattr(DoppelgangerCache, "lookup", forbidden)
    spec = dopp_spec(14, 0.25) if kind == "dopp" else uni_spec(14, 0.5)
    rec = run_trace(traces[name], spec, engine="batched",
                    size_factor=snap_pow2(SCALE))
    assert rec.engine_stats == _expected_stats(
        len(traces[name]), DOPP_STEP_STATS[(name, kind)])
