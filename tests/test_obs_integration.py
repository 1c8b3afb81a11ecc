"""End-to-end observability tests: system, harness and CLI wiring."""

import dataclasses
import gc
import json
import os
import pickle
import weakref

import pytest

import repro.harness.runner as runner
from repro.cache.stats import CacheStats
from repro.cli import main
from repro.harness.runner import (
    ExperimentContext,
    baseline_spec,
    dopp_spec,
    run_trace,
    uni_spec,
)
from repro.hierarchy.llc import SplitDoppelgangerLLC
from repro.hierarchy.system import System
from repro.obs import Observability
from repro.obs.events import read_jsonl
from repro.core.config import DoppelgangerConfig
from repro.core.maps import MapConfig


class TestCacheStatsAsDict:
    def test_as_dict_holds_every_counter(self):
        stats = CacheStats(accesses=3, hits=2)
        d = stats.as_dict()
        assert set(d) == {f.name for f in dataclasses.fields(CacheStats)}
        assert d["accesses"] == 3
        assert d["hits"] == 2


def small_dopp_llc(regions):
    cfg = DoppelgangerConfig(
        tag_entries=256, tag_ways=4, data_fraction=0.25, data_ways=4,
        map=MapConfig(8),
    )
    return SplitDoppelgangerLLC(cfg, precise_bytes=64 * 1024, regions=regions)


class TestSystemTracing:
    def test_system_run_emits_protocol_events(self, small_trace):
        obs = Observability(enabled=True, ring_capacity=65536)
        llc = small_dopp_llc(small_trace.regions)
        system = System(llc, tracer=obs.tracer)
        system.run(small_trace)
        kinds = obs.ring.counts_by_kind()
        assert kinds.get("map_generation", 0) > 0
        assert kinds.get("tag_insert", 0) > 0

    def test_disabled_tracer_is_normalized_to_none(self, small_trace):
        obs = Observability.disabled()
        llc = small_dopp_llc(small_trace.regions)
        system = System(llc, tracer=obs.tracer)
        assert system.tracer is None
        system.run(small_trace)  # runs clean without sinks

    def test_traced_and_untraced_runs_agree(self, small_trace):
        obs = Observability(enabled=True, ring_capacity=1024)
        traced = System(small_dopp_llc(small_trace.regions), tracer=obs.tracer)
        plain = System(small_dopp_llc(small_trace.regions))
        assert traced.run(small_trace) == plain.run(small_trace)


class TestExperimentContextObservability:
    @pytest.fixture(scope="class")
    def ctx_and_obs(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        obs = Observability(enabled=True, trace_path=str(path), ring_capacity=4096)
        ctx = ExperimentContext(seed=3, scale=0.05, workloads=["swaptions"], obs=obs)
        ctx.run("swaptions", dopp_spec(14, 0.25))
        ctx.error("swaptions", dopp_spec(14, 0.25))
        obs.close()
        return ctx, obs, str(path)

    def test_phases_cover_pipeline_stages(self, ctx_and_obs):
        ctx, obs, _ = ctx_and_obs
        stages = obs.profiler.by_stage()
        for stage in ("workload", "trace", "sim", "energy", "error"):
            assert stage in stages, stages

    def test_trace_contains_doppelganger_events(self, ctx_and_obs):
        _, _, path = ctx_and_obs
        kinds = {e["kind"] for e in read_jsonl(path)}
        assert "map_generation" in kinds

    def test_run_summaries_schema(self, ctx_and_obs):
        ctx, _, _ = ctx_and_obs
        (summary,) = ctx.run_summaries()
        assert summary["workload"] == "swaptions"
        assert summary["config"] == "dopp-14bit-1/4"
        assert summary["sim_wall_s"] > 0
        assert summary["accesses_per_sec"] > 0
        assert 0.0 <= summary["llc_miss_rate"] <= 1.0
        assert summary["error"] is not None
        json.dumps(ctx.run_summaries())

    def test_context_summary(self, ctx_and_obs):
        ctx, _, _ = ctx_and_obs
        cs = ctx.context_summary()
        assert cs["seed"] == 3
        assert cs["workloads"] == ["swaptions"]

    def test_default_context_has_inert_obs(self):
        ctx = ExperimentContext(seed=1, scale=0.05, workloads=["swaptions"])
        assert not ctx.obs.enabled
        assert ctx.obs.profiler.phases == {}


class TestObservedRunsKeepNoSystem:
    """An enabled bundle holds no reference to a finished simulation,
    so profiling a sweep does not keep every System alive."""

    def test_systems_are_collectable_after_run(self, monkeypatch):
        built = []

        class Tracked(System):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr(runner, "System", Tracked)
        obs = Observability(enabled=True)
        ctx = ExperimentContext(
            seed=3, scale=0.01, workloads=["canneal"], obs=obs
        )
        for spec in (baseline_spec(), dopp_spec(), uni_spec()):
            ctx.run("canneal", spec)
        gc.collect()
        assert len(built) == 3
        assert [ref() for ref in built] == [None, None, None]


class TestTracedRecordsPickle:
    """A finished record holds no tracer, so traced runs can be stored
    in the history store's memo."""

    @pytest.mark.parametrize(
        "spec", [dopp_spec(), uni_spec()], ids=["dopp", "uni"]
    )
    def test_traced_record_pickles(self, spec, tmp_path):
        obs = Observability(enabled=True, trace_path=str(tmp_path / "t.jsonl"))
        ctx = ExperimentContext(
            seed=3, scale=0.01, workloads=["canneal"], obs=obs
        )
        try:
            records = [
                ctx.run("canneal", spec),
                run_trace(ctx.trace("canneal"), spec, obs=obs),
            ]
            blobs = [pickle.dumps(record) for record in records]
        finally:
            obs.close()
        assert obs.jsonl.written > 0  # the LLC was traced while it ran
        for record, blob in zip(records, blobs):
            assert pickle.loads(blob).system == record.system


class TestCliObservability:
    def test_profile_flag_writes_all_artifacts(self, capsys, tmp_path):
        json_dir = str(tmp_path / "json")
        assert main(
            ["table2", "--scale", "0.05", "--seed", "3",
             "--workloads", "swaptions", "--json-out", json_dir, "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert os.path.exists(os.path.join(json_dir, "table2.json"))
        assert os.path.exists(os.path.join(json_dir, "BENCH_obs.json"))
        # Profiling reads timers only: no metrics snapshot, and the
        # event stream needs --trace-out.
        assert not os.path.exists(os.path.join(json_dir, "metrics_table2.json"))
        assert not os.path.exists(os.path.join(json_dir, "trace_table2.jsonl"))
        bench = json.load(open(os.path.join(json_dir, "BENCH_obs.json")))
        assert "table2" in bench["experiments"]
        assert bench["runs"]
        assert bench["profile"]["stages"]

    def test_profile_leaves_results_and_engine_stats_unchanged(
        self, capsys, tmp_path
    ):
        argv = ["table2", "--scale", "0.05", "--seed", "3",
                "--workloads", "swaptions", "jpeg", "--no-store"]
        plain_dir = str(tmp_path / "plain")
        profiled_dir = str(tmp_path / "profiled")
        assert main(argv + ["--json-out", plain_dir]) == 0
        assert main(argv + ["--json-out", profiled_dir, "--profile"]) == 0
        capsys.readouterr()

        def rows(json_dir):
            bench = json.load(open(os.path.join(json_dir, "BENCH_obs.json")))
            host = ("sim_wall_s", "accesses_per_sec")
            return [
                {k: v for k, v in row.items() if k not in host}
                for row in bench["runs"]
            ]

        plain, profiled = rows(plain_dir), rows(profiled_dir)
        assert len(plain) == 2
        assert profiled == plain
        # Both runs reach the LLC's inline miss path.
        assert all(row["engine_stats"]["fast"]["mem_fill"] for row in profiled)
        assert not [f for f in os.listdir(profiled_dir) if f.endswith(".jsonl")]

    def test_profile_with_trace_out_writes_the_trace(self, capsys, tmp_path):
        trace_path = str(tmp_path / "events.jsonl")
        json_dir = str(tmp_path / "json")
        assert main(
            ["table2", "--scale", "0.05", "--seed", "3",
             "--workloads", "swaptions", "--json-out", json_dir,
             "--no-store", "--profile", "--trace-out", trace_path]
        ) == 0
        out = capsys.readouterr().out
        events = read_jsonl(trace_path)
        assert "back_invalidation" in {e["kind"] for e in events}
        assert f"[event trace: {len(events)} events -> {trace_path}]" in out

    def test_profile_lands_in_history_store(self, capsys, tmp_path):
        json_dir = str(tmp_path / "json")
        store = str(tmp_path / "h.db")
        exported = str(tmp_path / "export.json")
        assert main(
            ["fig10", "--scale", "0.01", "--seed", "3",
             "--workloads", "kmeans", "--json-out", json_dir,
             "--store", store, "--profile"]
        ) == 0
        assert main(
            ["history", "--store", store, "export", "last", "--out", exported]
        ) == 0
        capsys.readouterr()
        bench = json.load(open(os.path.join(json_dir, "BENCH_obs.json")))
        profile = json.load(open(exported))["profile"]
        assert profile == bench["profile"]
        assert "experiment/fig10" in profile["phases"]
        assert set(profile["stages"]) >= {"experiment", "sim", "trace"}

    def test_json_table_rows_match_text_table(self, capsys, tmp_path):
        json_dir = str(tmp_path / "json")
        main(
            ["table2", "--scale", "0.05", "--seed", "3",
             "--workloads", "swaptions", "--json-out", json_dir]
        )
        text = capsys.readouterr().out
        data = json.load(open(os.path.join(json_dir, "table2.json")))
        row = data["tables"]["main"]["rows"][0]
        assert row[0] == "swaptions"
        assert row[0] in text

    def test_trace_out_flag_standalone(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        json_dir = str(tmp_path / "json")
        main(
            ["fig10", "--scale", "0.05", "--seed", "3", "--workloads", "swaptions",
             "--json-out", json_dir, "--trace-out", trace_path]
        )
        capsys.readouterr()
        kinds = {e["kind"] for e in read_jsonl(trace_path)}
        assert "map_generation" in kinds

    def test_report_subcommand(self, capsys, tmp_path):
        json_dir = str(tmp_path / "json")
        main(
            ["table2", "--scale", "0.05", "--seed", "3",
             "--workloads", "swaptions", "--json-out", json_dir]
        )
        capsys.readouterr()
        assert main(["report", "--json-out", json_dir]) == 0
        out = capsys.readouterr().out
        assert "Experiment wall time" in out
        assert "table2" in out

    def test_report_without_results(self, capsys, tmp_path):
        assert main(["report", "--json-out", str(tmp_path / "missing")]) == 0
        assert "run an experiment first" in capsys.readouterr().out

    def test_log_level_flag_validates(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["list", "--log-level", "NOPE"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_log_level_flag_accepts_lowercase(self, capsys):
        assert main(["list", "--log-level", "info"]) == 0
        assert "fig10" in capsys.readouterr().out
