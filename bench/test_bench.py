"""Self-test of the benchmark: ``python -m pytest bench/``.

Not part of the tier-1 suite (``testpaths`` is ``tests``). Covers the
tracer's arithmetic, the metronome normalization, the result
comparator, the golden files and the agreement between ``run.py`` and
``BENCHMARK.json``.
"""

import copy
import json
import os
import re
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import child  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _golden(seed):
    return run.load_golden(seed)


# ------------------------------------------------------------------ tracer


def test_calibration_measures_a_positive_wrapper_cost():
    tracer = layers.LayerTracer()
    tracer.calibrate(calls=2_000, rounds=3)
    assert tracer.inner_ns >= 0
    assert tracer.outer_ns >= 0
    assert tracer.wrapper_ns > 0
    assert not tracer.agg, "calibration leaves no aggregates behind"


@pytest.fixture
def nested(monkeypatch):
    """A traced outer call with two inner calls, on a fake clock."""
    now = [0]
    monkeypatch.setattr(layers, "perf_counter_ns", lambda: now[0])

    class Nested:
        def outer(self):
            now[0] += 10
            self.inner()
            now[0] += 5
            self.inner()
            now[0] += 1

        def inner(self):
            now[0] += 100

    tracer = layers.LayerTracer()
    tracer.wrap(Nested, "outer", "Nested.outer", span=True)
    tracer.wrap(Nested, "inner", "Nested.inner")
    Nested().outer()
    return tracer


def test_self_time_excludes_wrapped_children(nested):
    calls = {c["name"]: c for c in nested.calls()}
    assert calls["Nested.outer"]["parent"] == "<root>"
    assert calls["Nested.inner"]["parent"] == "Nested.outer"
    assert calls["Nested.inner"]["count"] == 2
    assert calls["Nested.outer"]["total_s"] == pytest.approx(216e-9)
    assert calls["Nested.outer"]["self_s"] == pytest.approx(16e-9)
    assert calls["Nested.inner"]["self_s"] == pytest.approx(200e-9)
    [span] = nested.spans
    assert (span["name"], span["parent"], span["end_ns"] - span["start_ns"]) == (
        "Nested.outer", None, 216)


def test_wrapper_cost_is_subtracted_from_every_timer(nested):
    nested.inner_ns, nested.outer_ns = 2.0, 3.0
    calls = {c["name"]: c for c in nested.calls()}
    # inner: 200 - 2 calls x inner cost
    assert calls["Nested.inner"]["total_s"] == pytest.approx(196e-9)
    assert calls["Nested.inner"]["self_s"] == pytest.approx(196e-9)
    # outer total: 216 - its inner cost - 2 descendants x whole cost;
    # outer self: 16 - its inner cost - 2 direct children x outer cost.
    assert calls["Nested.outer"]["total_s"] == pytest.approx(204e-9)
    assert calls["Nested.outer"]["self_s"] == pytest.approx(8e-9)


def test_calls_count_entries_into_a_group_once():
    def call(parent, name, count, self_s=0.0):
        return {"parent": parent, "name": name, "count": count,
                "total_s": self_s, "self_s": self_s}

    report = {
        "wrapper_ns": 1.0,
        "counters": {"engine_accesses": 100, "dopp_lookups": 4, "dopp_hits": 1},
        "calls": [
            call("System.run", "UnifiedDoppelgangerLLC.fill", 5),
            call("UnifiedDoppelgangerLLC.fill", "UniDoppelgangerCache.insert_block", 5, 1.0),
            call("UniDoppelgangerCache.insert_block", "DoppelgangerCache.insert", 3, 2.0),
            call("DoppelgangerCache.writeback", "DoppelgangerCache.insert", 1, 0.5),
            call("<root>", "System.run", 2, 4.0),
        ],
    }
    metrics = layers.layer_metrics(report)
    assert metrics["core.insert_calls"] == 6
    assert metrics["core.insert_s"] == pytest.approx(3.5)
    assert metrics["llc.fill_calls"] == 5
    assert metrics["engine.runs"] == 2
    assert metrics["engine.self_ns_per_access"] == pytest.approx(4e7)
    assert metrics["core.lookup_hit_frac"] == pytest.approx(0.25)
    assert set(metrics) == set(layers.UNITS)


# --------------------------------------------------------- normalization


def test_trimmed_mean_drops_the_outer_tenths():
    assert child.trimmed_mean([5.0]) == 5.0
    samples = [1.0] + [2.0] * 8 + [100.0]
    assert child.trimmed_mean(samples) == 2.0


def test_metronome_samples_while_the_main_thread_is_busy():
    with child.Metronome() as metronome:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(metronome.table_samples) == len(metronome.loop_samples) >= 3
    report = metronome.report()
    assert report["table_unit_s"] > 0 and report["loop_unit_s"] > 0


def units(table_slowdown: float, loop_slowdown: float) -> dict:
    """A metronome report whose units ran this much slower than the reference."""
    return {"table_unit_s": table_slowdown * run.REFERENCE_TABLE_UNIT_S,
            "loop_unit_s": loop_slowdown * run.REFERENCE_LOOP_UNIT_S}


def test_host_slowdown_is_the_geometric_mean_of_the_units():
    assert run.host_slowdown(run.Spawned(0, 1.0, 1.0, 1.0, units(2.0, 2.0))) \
        == pytest.approx(2.0)
    assert run.host_slowdown(run.Spawned(0, 1.0, 1.0, 1.0, units(4.0, 1.0))) \
        == pytest.approx(2.0)


def test_times_are_normalized_by_each_childs_metronome(monkeypatch):
    """A child on a host twice as slow as the reference reads half its time."""
    monkeypatch.setattr(run, "SENSITIVITY", 1.0)

    def rep(wall, cpu, slowdown):
        return run.Rep("plain", run.Spawned(0, wall, cpu, 50.0, units(slowdown, slowdown)),
                       accesses=1000)

    setups = [run.Spawned(0, 1.0, 1.0, 9.0,
                          dict(units(u, u), setup_s=s * 2, setup_cpu_s=s))
              for u, s in ((2.0, 0.8), (1.0, 0.3), (4.0, 1.6))]
    reps = [rep(5.0, 4.0, 2.0), rep(2.5, 2.0, 1.0), rep(9.0, 9.0, 3.0)]
    values = run.end_to_end(reps, setups)
    assert values["norm_cpu_s"] == pytest.approx(2.0)
    assert values["norm_kacc_per_s"] == pytest.approx(0.5)
    assert values["setup_s"] == pytest.approx(0.4)
    assert values["norm_wall_s"] == pytest.approx(2.5)
    assert values["wall_s"] == 5.0 and values["cpu_s"] == 4.0
    assert values["raw_setup_s"] == 1.6
    assert values["host_slowdown"] == pytest.approx(2.0)
    assert values["peak_rss_mb"] == 50.0
    assert set(values) == set(run.END_TO_END) | set(run.PRINTED) - {"ops_failed_frac"}


def test_sensitivity_is_an_exponent_on_the_slowdown(monkeypatch):
    monkeypatch.setattr(run, "SENSITIVITY", 2.0)
    slow = run.Spawned(0, 1.0, 1.0, 1.0, units(2.0, 2.0))
    assert run.speed_factor(slow) == pytest.approx(0.25)


# -------------------------------------------------------------- comparator


def _rep_from_golden(wl, record):
    ops = run.from_record(record)
    rows = {op: value for op, value in ops.items() if op[0] != "table"}
    tables = {op[1]: value for op, value in ops.items() if op[0] == "table"}
    return run.Rep("plain", run.Spawned(0, 1.0, 1.0, 1.0, units(1.0, 1.0)), rows=rows,
                   engine={op: {"accesses": 1} for op in rows}, tables=tables)


@pytest.fixture
def no_state(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "STATE", str(tmp_path))


def test_golden_comparator_accepts_the_golden_results(no_state):
    wl = run.BY_NAME["dopp-sweep"]
    rep = _rep_from_golden(wl, _golden(7)[wl.name])
    attempted, failed, notes = run.check(wl, 7, [rep, copy.deepcopy(rep)])
    assert (attempted, failed) == (2 * len(wl.ops()), 0)
    assert any("golden seed7" in n for n in notes)


@pytest.mark.parametrize("workload", [w.name for w in run.WORKLOADS])
def test_golden_comparator_flags_one_perturbed_field(no_state, workload):
    wl = run.BY_NAME[workload]
    rep = _rep_from_golden(wl, _golden(7)[wl.name])
    key = sorted(rep.rows)[-1]
    rep.rows[key]["cycles"] += 1
    assert run.check(wl, 7, [rep])[1] == 1


def test_comparator_flags_missing_ops_and_engine_drift(no_state):
    wl = run.BY_NAME["uni-sweep"]
    good = _rep_from_golden(wl, _golden(11)[wl.name])
    missing = copy.deepcopy(good)
    del missing.tables["error"]
    drifted = copy.deepcopy(good)
    drifted.kind = "traced"
    drifted.engine[sorted(drifted.engine)[0]] = {"accesses": 2}
    assert run.check(wl, 11, [good, missing, drifted])[1] == 2


def test_cross_workload_state_is_checked(no_state):
    sweep, profiled = run.BY_NAME["dopp-sweep"], run.BY_NAME["dopp-profiled"]
    rep = _rep_from_golden(sweep, _golden(7)[sweep.name])
    run.save_state(sweep, 12345, rep)
    other = copy.deepcopy(rep)
    other.rows[sorted(other.rows)[0]]["error"] = 0.5
    attempted, failed, notes = run.check(profiled, 12345, [other])
    assert failed == 1
    assert any("dopp-sweep" in n for n in notes)


def test_state_of_other_sources_is_ignored(no_state, monkeypatch):
    """Results changed on purpose are not checked against stale state."""
    sweep, profiled = run.BY_NAME["dopp-sweep"], run.BY_NAME["dopp-profiled"]
    rep = _rep_from_golden(sweep, _golden(7)[sweep.name])
    monkeypatch.setattr(run, "source_hash", lambda: "old-sources")
    run.save_state(sweep, 12345, rep)
    monkeypatch.setattr(run, "source_hash", lambda: "new-sources")
    changed = copy.deepcopy(rep)
    changed.rows[sorted(changed.rows)[0]]["error"] = 0.5
    attempted, failed, notes = run.check(profiled, 12345, [changed])
    assert failed == 0
    assert any("ignored" in n for n in notes)
    # The new sources' state replaces the stale one and is checked again.
    run.save_state(profiled, 12345, changed)
    assert run.check(sweep, 12345, [rep])[1] == 1


# ------------------------------------------------------------ golden files


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELDOUT_SEED])
def test_golden_files_cover_every_op(seed):
    golden = _golden(seed)
    assert set(golden) == set(run.BY_NAME)
    for wl in run.WORKLOADS:
        assert golden[wl.name]["args"] == wl.cli_args(seed)
        assert set(run.from_record(golden[wl.name])) == set(wl.ops())
        for row in golden[wl.name]["rows"]:
            assert not set(row) & set(run.HOST_FIELDS)


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELDOUT_SEED])
def test_golden_files_obey_the_any_seed_checks(seed):
    golden = {name: run.from_record(rec) for name, rec in _golden(seed).items()}
    assert golden["dopp-profiled"] == golden["dopp-sweep"]
    baselines = [
        {op: v for op, v in golden[name].items() if op[1] == run.BASELINE}
        for name in run.SHARED_BASELINE
    ]
    assert baselines[0] and all(b == baselines[0] for b in baselines)


# ------------------------------------------------------- names and schema


def test_every_printed_name_is_well_formed():
    names = list(run.ALL_UNITS) + list(run.BY_NAME)
    names += [f"{w}.{m}" for w in run.BY_NAME for m in run.ALL_UNITS]
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for unit in run.ALL_UNITS.values():
        assert UNIT.fullmatch(unit), unit
    line = json.loads(run.result_line(True, 1, 0, {"norm_cpu_s": 1.5}, run.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"norm_cpu_s": {"value": 1.5, "unit": "s"}}


def test_benchmark_json_matches_what_run_py_emits():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(run.BY_NAME)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


# ------------------------------------------------------------- end to end


def test_traced_child_keeps_results_and_the_inline_path():
    """A small traced run matches its untraced twin and never calls the LLC."""
    wl = run.Workload("tiny", "table2", 0.05, (run.BASELINE,), ("main",),
                      apps=("swaptions",))
    plain = run.run_rep(wl, 3, "plain", timeout=120)
    traced = run.run_rep(wl, 3, "traced", timeout=120)
    assert plain.run.ok() and traced.run.ok()
    assert traced.rows == plain.rows and traced.engine == plain.engine
    metrics = layers.layer_metrics(traced.layers)
    assert metrics["llc.read_calls"] == metrics["llc.fill_calls"] == 0
    assert metrics["core.insert_calls"] == 0 and metrics["obs.events"] == 0
    assert metrics["engine.accesses"] == plain.accesses
    assert metrics["trace.wrapper_ns"] > 0
