"""End-to-end observability tests: system, harness and CLI wiring."""

import json
import os
import pickle

import pytest

from repro.cache.stats import CacheStats
from repro.cli import main
from repro.harness.runner import ExperimentContext, dopp_spec, run_trace, uni_spec
from repro.hierarchy.llc import SplitDoppelgangerLLC
from repro.hierarchy.system import System
from repro.obs import Observability, RingBufferSink
from repro.obs.events import read_jsonl
from repro.core.config import DoppelgangerConfig
from repro.core.maps import MapConfig


class TestCacheStatsExtraHandling:
    """Satellite coverage: merge/reset/as_dict with the extra dict."""

    def test_merge_does_not_alias_extra(self):
        a, b = CacheStats(), CacheStats()
        a.extra["x"] = 1
        merged = a.merge(b)
        merged.extra["x"] = 99
        assert a.extra["x"] == 1

    def test_merge_with_only_left_extra(self):
        a, b = CacheStats(), CacheStats()
        a.extra["left"] = 4
        assert a.merge(b).extra == {"left": 4}

    def test_as_dict_includes_extra_and_all_counters(self):
        stats = CacheStats(accesses=3, hits=2)
        stats.extra["custom"] = 7
        d = stats.as_dict()
        assert d["accesses"] == 3
        assert d["custom"] == 7
        assert "extra" not in d

    def test_as_dict_extra_shadows_nothing_after_reset(self):
        stats = CacheStats(accesses=1)
        stats.extra["accesses_like"] = 5
        stats.reset()
        d = stats.as_dict()
        assert d["accesses"] == 0
        assert "accesses_like" not in d

    def test_reset_clears_extra_in_place(self):
        stats = CacheStats()
        extra = stats.extra
        extra["x"] = 1
        stats.reset()
        assert stats.extra is extra
        assert extra == {}


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

    def test_publish_metrics_exposes_all_structures(self, small_trace):
        obs = Observability(enabled=True)
        llc = small_dopp_llc(small_trace.regions)
        system = System(llc, tracer=obs.tracer)
        system.publish_metrics(obs.registry, "sys")
        system.run(small_trace)
        out = obs.registry.collect()
        assert out["sys.l1.0.accesses"] > 0
        assert "sys.dram.reads" in out
        assert "sys.wb_buffer.enqueued" in out
        assert "sys.llc.dopp.stats.insertions" in out
        assert "sys.llc.dopp.arrays.tag_occupied" in out
        assert "sys.coherence.back_invalidations" in out


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

    def test_metrics_published_per_run(self, ctx_and_obs):
        ctx, obs, _ = ctx_and_obs
        out = obs.registry.collect()
        assert any(k.startswith("sim.swaptions.dopp-14bit-1/4.") for k in out)

    def test_default_context_has_inert_obs(self):
        ctx = ExperimentContext(seed=1, scale=0.05, workloads=["swaptions"])
        assert not ctx.obs.enabled
        assert ctx.obs.profiler.phases == {}


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
        assert os.path.exists(os.path.join(json_dir, "metrics_table2.json"))
        assert os.path.exists(os.path.join(json_dir, "trace_table2.jsonl"))
        bench = json.load(open(os.path.join(json_dir, "BENCH_obs.json")))
        assert "table2" in bench["experiments"]
        assert bench["runs"]
        assert bench["profile"]["stages"]

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
