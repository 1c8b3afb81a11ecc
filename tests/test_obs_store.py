"""Tests for the run-history store, the history CLI and store: refs."""

import json
import os
import sqlite3
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.errors import ConfigError
from repro.obs.store import (
    _MIGRATION_V2,
    _SCHEMA_V1,
    SCHEMA_VERSION,
    RunStore,
    config_digest,
    default_store_path,
    is_store_ref,
    load_bench_source,
)


def summary_row(workload="kmeans", config="baseline-2MB", **over):
    base = {
        "workload": workload,
        "config": config,
        "sim_wall_s": 0.5,
        "accesses": 1000,
        "accesses_per_sec": 2000.0,
        "cycles": 5000,
        "llc_miss_rate": 0.25,
        "l1_hit_rate": 0.9,
        "l2_hit_rate": 0.5,
        "traffic_bytes": 4096,
        "error": 0.01,
    }
    base.update(over)
    return base


@pytest.fixture
def store(tmp_path):
    with RunStore(str(tmp_path / "history.db")) as s:
        yield s


#: The ``jobs`` table schema v3 added for the since-removed job daemon,
#: as v3 created it, so migrating off it is tested on its real shape.
V3_JOBS_DDL = (
    """
    CREATE TABLE IF NOT EXISTS jobs (
        id TEXT PRIMARY KEY,
        submitted_unix REAL NOT NULL,
        started_unix REAL,
        finished_unix REAL,
        state TEXT NOT NULL,
        spec TEXT NOT NULL,
        run_id INTEGER REFERENCES runs(id) ON DELETE SET NULL,
        error TEXT,
        daemon TEXT
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs(state)",
)


def old_store(path, version):
    """A store as schema ``version`` (1-4) built it, with two runs.

    Each run holds one result row; at v3 the ``jobs`` table also holds
    one job row per run, linked through ``run_id`` (v4 dropped it).
    """
    conn = sqlite3.connect(path)
    for stmt in _SCHEMA_V1:
        conn.execute(stmt)
    if version >= 2:
        for stmt in _MIGRATION_V2:
            conn.execute(stmt)
    if version == 3:
        for stmt in V3_JOBS_DDL:
            conn.execute(stmt)
    for run_id in (1, 2):
        conn.execute(
            "INSERT INTO runs (id, started_unix, experiments, engine, "
            "git_sha, wall_s, finished) VALUES (?, ?, ?, 'batched', 'abc', "
            "1.0, 1)",
            (run_id, float(run_id), json.dumps({"table2": {"wall_s": 0.9}})),
        )
        conn.execute(
            "INSERT INTO results (run_id, workload, config, error, summary) "
            "VALUES (?, 'kmeans', 'baseline-2MB', 0.01, ?)",
            (run_id, json.dumps(summary_row())),
        )
        if version == 3:
            conn.execute(
                "INSERT INTO jobs (id, submitted_unix, state, spec, run_id, "
                "daemon) VALUES (?, ?, 'done', ?, ?, 'host:1')",
                (f"job{run_id}", float(run_id),
                 json.dumps({"experiments": ["table2"]}), run_id),
            )
    conn.execute(f"PRAGMA user_version = {version}")
    conn.commit()
    conn.close()
    return path


def schema_of(path):
    """Every (type, name, sql) row of a store's schema, after opening."""
    with RunStore(path) as store:
        assert store.schema_version == SCHEMA_VERSION
        return set(
            store.query(
                "SELECT type, name, sql FROM sqlite_master "
                "WHERE name NOT LIKE 'sqlite_%'"
            )[1]
        )


class TestSchema:
    def test_fresh_store_is_current_version(self, store):
        assert store.schema_version == SCHEMA_VERSION

    def test_fresh_store_has_all_tables(self, store):
        tables = {
            row[0]
            for row in store.query(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )[1]
        }
        assert {
            "runs", "results", "metrics", "events", "engine_stats", "memo"
        } <= tables

    def test_v1_database_auto_upgrades(self, tmp_path):
        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        for stmt in _SCHEMA_V1:
            conn.execute(stmt)
        conn.execute("PRAGMA user_version = 1")
        conn.execute(
            "INSERT INTO runs (started_unix, engine) VALUES (1.0, 'batched')"
        )
        conn.commit()
        conn.close()
        with RunStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            # v2 additions are live: the events table and runs.cpu_s.
            store.add_events(1, [{"kind": "worker_heartbeat", "unit": "kmeans"}])
            assert store.events_for(1)[0]["unit"] == "kmeans"
            columns = {
                row[1] for row in store.query("PRAGMA table_info(runs)")[1]
            }
            assert "cpu_s" in columns
            # The pre-migration row survived.
            assert store.run_row(1)["engine"] == "batched"

    def test_migrated_and_fresh_schemas_match(self, tmp_path):
        fresh = schema_of(str(tmp_path / "fresh.db"))
        assert "jobs" not in {name for _, name, _ in fresh}
        for version in (1, 2, 3, 4):
            path = old_store(str(tmp_path / f"v{version}.db"), version)
            assert schema_of(path) == fresh, f"v{version}"

    def test_newer_schema_is_refused(self, tmp_path):
        path = str(tmp_path / "future.db")
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ConfigError, match="newer"):
            RunStore(path)


class TestMigrationOffJobs:
    def test_v3_runs_survive_and_jobs_are_dropped(self, tmp_path):
        path = old_store(str(tmp_path / "v3.db"), 3)
        with RunStore(path) as store:
            assert store.run_ids() == [1, 2]
            assert store.results_for(2) == [summary_row()]
            tables = {row[0] for row in store.query(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )[1]}
            assert "jobs" not in tables

    def test_history_and_compare_work_on_migrated_v3(self, tmp_path, capsys):
        path = old_store(str(tmp_path / "v3.db"), 3)
        assert main(["history", "--store", path, "list"]) == 0
        assert capsys.readouterr().out.count("table2") == 2
        assert main(["history", "--store", path, "show", "last"]) == 0
        assert "git_sha: abc" in capsys.readouterr().out
        assert main(
            ["compare", "store:last-1", "store:last", "--store", path]
        ) == 0
        assert "no regressions" in capsys.readouterr().out


class TestRefs:
    def test_is_store_ref(self):
        assert is_store_ref("store:last")
        assert not is_store_ref("results/json/BENCH_obs.json")

    def test_resolve_last_and_offsets(self, store):
        ids = [store.start_run() for _ in range(3)]
        assert store.resolve_ref("store:last") == ids[-1]
        assert store.resolve_ref("store:last-1") == ids[-2]
        assert store.resolve_ref("store:last-2") == ids[0]
        assert store.resolve_ref("last") == ids[-1]
        assert store.resolve_ref(f"store:{ids[0]}") == ids[0]

    def test_bad_refs_raise(self, store):
        store.start_run()
        with pytest.raises(ConfigError, match="bad store ref"):
            store.resolve_ref("store:last-x")
        with pytest.raises(ConfigError, match="bad store ref"):
            store.resolve_ref("store:latest")
        with pytest.raises(ConfigError, match="past history"):
            store.resolve_ref("store:last-5")
        with pytest.raises(ConfigError, match="no run"):
            store.resolve_ref("store:999")

    def test_empty_store_raises(self, store):
        with pytest.raises(ConfigError, match="no recorded runs"):
            store.resolve_ref("store:last")


class TestRecording:
    def test_start_and_finish_run(self, store):
        run_id = store.start_run(
            experiments=["table2"], workloads=["kmeans"], engine="batched",
            seed=7, scale=0.05, jobs=2, argv=["table2"], sha="abc123",
            config_hash="deadbeef",
        )
        store.finish_run(
            run_id, wall_s=1.5, cpu_s=2.5,
            experiments={"table2": {"wall_s": 1.4}},
            context={"seed": 7},
        )
        row = store.run_row(run_id)
        assert row["finished"] == 1
        assert row["wall_s"] == 1.5
        assert row["cpu_s"] == 2.5
        assert row["experiments"] == {"table2": {"wall_s": 1.4}}
        assert row["git_sha"] == "abc123"
        assert row["argv"] == ["table2"]

    def test_results_round_trip_verbatim(self, store):
        run_id = store.start_run()
        row = summary_row(slow_path_fraction=0.125)
        store.add_result(run_id, row, record={"accesses": 1000})
        assert store.results_for(run_id) == [row]
        assert store.records_for(run_id) == {
            ("kmeans", "baseline-2MB"): {"accesses": 1000}
        }

    def test_fault_site_counters_land_in_metrics(self, store):
        run_id = store.start_run()
        row = summary_row(
            faults={
                "injected": 5,
                "sites": {"llc": {"injected": 3}, "dram": {"injected": 2}},
            }
        )
        store.add_result(run_id, row)
        headers, rows = store.query(
            "SELECT name, value FROM metrics WHERE run_id = ? ORDER BY name",
            (run_id,),
        )
        assert rows == [("faults.dram.injected", 2.0), ("faults.llc.injected", 3.0)]

    def test_profile_round_trips_through_metrics(self, store):
        run_id = store.start_run()
        assert "profile" not in store.export_run(run_id)
        report = {
            "phases": {
                "experiment/fig10": {
                    "seconds": 2.5, "self_seconds": 0.125, "count": 1,
                },
                "sim/kmeans/uni-14bit-0.5": {
                    "seconds": 2.375, "self_seconds": 2.375, "count": 4,
                },
            },
            "stages": {"experiment": 0.125, "sim": 2.375},
        }
        store.add_profile(run_id, report)
        exported = store.export_run(run_id)["profile"]
        assert exported == report
        assert isinstance(
            exported["phases"]["experiment/fig10"]["count"], int
        )
        _, rows = store.query(
            "SELECT name FROM metrics WHERE result_id IS NULL ORDER BY id"
        )
        assert rows[0] == ("profile.stages.experiment",)
        assert ("profile.phases.sim/kmeans/uni-14bit-0.5.count",) in rows

    def test_engine_stats_fan_out(self, store):
        run_id = store.start_run()
        row = summary_row(
            engine_stats={
                "accesses": 100,
                "slow_fraction": 0.25,
                "fast": {"read_hit": 60},
                "slow": {"writeback": 15},
            }
        )
        store.add_result(run_id, row)
        _, rows = store.query(
            "SELECT key, value FROM engine_stats ORDER BY key"
        )
        assert ("fast.read_hit", 60.0) in rows
        assert ("slow.writeback", 15.0) in rows
        assert ("slow_fraction", 0.25) in rows

    def test_add_events_lifts_kind_ts_unit(self, store):
        run_id = store.start_run()
        n = store.add_events(
            run_id,
            [
                {"kind": "worker_heartbeat", "unit": "kmeans",
                 "ts_unix": 5.0, "phase": "run", "done": 1},
                {"kind": "worker_heartbeat", "unit": "swaptions"},
            ],
        )
        assert n == 2
        events = store.events_for(run_id, kind="worker_heartbeat")
        assert events[0]["unit"] == "kmeans"
        assert events[0]["ts_unix"] == 5.0
        assert events[0]["phase"] == "run"
        assert events[0]["done"] == 1

    def test_gc_cascades_and_keeps_newest(self, store):
        from repro.harness.runner import baseline_spec

        for i in range(4):
            run_id = store.start_run()
            store.add_result(run_id, summary_row())
            store.add_events(run_id, [{"kind": "worker_heartbeat", "unit": "u"}])
            store.remember(
                run_id, "error", f"app{i}", baseline_spec(), 0.0,
                seed=7, scale=1.0, engine="batched",
            )
        kept = store.run_ids()[-2:]
        assert store.gc(keep=2) == 2
        assert store.run_ids() == kept
        _, [(results,)] = store.query("SELECT COUNT(*) FROM results")
        _, [(events,)] = store.query("SELECT COUNT(*) FROM events")
        _, memo = store.query("SELECT run_id FROM memo ORDER BY run_id")
        assert results == 2 and events == 2
        assert memo == [(run_id,) for run_id in kept]

    def test_top_validates_metric(self, store):
        run_id = store.start_run()
        store.add_result(run_id, summary_row())
        with pytest.raises(ConfigError, match="unknown metric"):
            store.top("1; DROP TABLE runs")
        assert store.top("accesses_per_sec")[0]["value"] == 2000.0

    def test_top_filters_and_orders(self, store):
        run_id = store.start_run()
        store.add_result(run_id, summary_row(error=0.5))
        store.add_result(
            run_id, summary_row(workload="swaptions", error=0.125)
        )
        best = store.top("error", best="min")
        assert [r["workload"] for r in best] == ["swaptions", "kmeans"]
        only = store.top("error", workload="kmeans")
        assert [r["workload"] for r in only] == ["kmeans"]


_metric = st.floats(
    allow_nan=False, allow_infinity=False, min_value=0, max_value=1e12
)


class TestRoundTripProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        sim_wall_s=_metric,
        accesses=st.integers(0, 2**48),
        accesses_per_sec=_metric,
        llc_miss_rate=st.floats(0, 1),
        error=_metric,
        config=st.sampled_from(
            ["baseline-2MB", "dopp-14bit-1/4", "uni-14bit-1/2"]
        ),
    )
    def test_summary_rows_export_losslessly(
        self, store, sim_wall_s, accesses, accesses_per_sec,
        llc_miss_rate, error, config,
    ):
        """RunRecord summary -> store -> BENCH export is bit-lossless."""
        row = summary_row(
            config=config,
            sim_wall_s=sim_wall_s,
            accesses=accesses,
            accesses_per_sec=accesses_per_sec,
            llc_miss_rate=llc_miss_rate,
            error=error,
        )
        run_id = store.start_run(experiments=["table2"])
        store.add_result(run_id, row, record={"summary": row})
        exported = store.export_run(run_id)
        assert exported["runs"] == [row]
        assert exported["store"]["run_id"] == run_id
        assert store.records_for(run_id)[("kmeans", config)] == {
            "summary": row
        }


class TestRealRecordRoundTrip:
    def test_run_record_summary_survives_store(self, sim_context):
        """An actual simulated RunRecord round-trips through the store."""
        rows = sim_context.run_summaries()
        records = sim_context.run_records()
        assert rows and records
        with tempfile.TemporaryDirectory() as tmp:
            with RunStore(os.path.join(tmp, "h.db")) as store:
                run_id = store.start_run()
                for row in rows:
                    store.add_result(
                        run_id, row,
                        records.get((row["workload"], row["config"])),
                    )
                assert store.results_for(run_id) == rows
                stored = store.records_for(run_id)
        for (workload, config), record in records.items():
            # JSON round-trip normalizes tuples to lists etc.; compare
            # through the same serialization.
            assert stored[(workload, config)] == json.loads(
                json.dumps(record, default=str)
            )


@pytest.fixture(scope="module")
def sim_context():
    from repro.harness.runner import ExperimentContext, baseline_spec

    ctx = ExperimentContext(seed=3, scale=0.05, workloads=["kmeans"])
    ctx.run("kmeans", baseline_spec())
    return ctx


@pytest.fixture
def populated(tmp_path):
    """A store with two runs of drifting metrics, plus its path."""
    path = str(tmp_path / "history.db")
    with RunStore(path) as store:
        for error in (0.01, 0.02):
            run_id = store.start_run(
                experiments=["table2"], engine="batched", sha="abc"
            )
            store.add_result(run_id, summary_row(error=error))
            store.finish_run(
                run_id, wall_s=1.0, cpu_s=1.0,
                experiments={"table2": {"wall_s": 0.9}},
            )
    return path


class TestHistoryCli:
    def test_list_shows_runs(self, populated, capsys):
        assert main(["history", "--store", populated, "list"]) == 0
        out = capsys.readouterr().out
        assert "Run history" in out
        assert out.count("table2") == 2

    def test_show_renders_results(self, populated, capsys):
        assert main(["history", "--store", populated, "show", "last"]) == 0
        out = capsys.readouterr().out
        assert "git_sha: abc" in out
        assert "baseline-2MB" in out

    def test_top_ranks_metric(self, populated, capsys):
        assert (
            main(
                ["history", "--store", populated, "top", "--metric", "error",
                 "--min"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Top error" in out
        assert out.index("0.01") < out.index("0.02")

    def test_query_csv(self, populated, capsys):
        assert (
            main(
                ["history", "--store", populated, "query",
                 "SELECT COUNT(*) FROM runs", "--csv"]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "2"

    def test_export_writes_bench_shape(self, populated, tmp_path, capsys):
        out_path = str(tmp_path / "exported.json")
        assert (
            main(
                ["history", "--store", populated, "export", "last",
                 "--out", out_path]
            )
            == 0
        )
        with open(out_path) as fh:
            exported = json.load(fh)
        assert exported["runs"][0]["workload"] == "kmeans"
        assert "store" in exported

    def test_gc_prunes(self, populated, capsys):
        assert main(["history", "--store", populated, "gc", "--keep", "1"]) == 0
        assert "dropped 1" in capsys.readouterr().out
        with RunStore(populated) as store:
            assert len(store.run_ids()) == 1

    def test_bad_ref_maps_to_exit_2(self, populated, capsys):
        assert main(["history", "--store", populated, "show", "nope"]) == 2

    def test_no_action_prints_help(self, populated, capsys):
        assert main(["history", "--store", populated]) == 2


class TestCompareStoreRefs:
    def test_store_and_file_diffs_agree(self, tmp_path, capsys):
        """compare store:last-1 store:last == the file-based verdict."""
        from repro.obs.compare import compare_bench

        old_rows = [summary_row(error=0.01)]
        new_rows = [summary_row(error=0.5)]  # error regression
        files = []
        db = str(tmp_path / "history.db")
        with RunStore(db) as store:
            for rows in (old_rows, new_rows):
                run_id = store.start_run(experiments=["table2"])
                for row in rows:
                    store.add_result(run_id, row)
                store.finish_run(
                    run_id, wall_s=1.0,
                    experiments={"table2": {"wall_s": 1.0}},
                )
        from repro.obs.output import write_json

        for i, rows in enumerate((old_rows, new_rows)):
            path = str(tmp_path / f"bench{i}.json")
            write_json(
                path,
                {
                    "schema": "repro-bench/v1",
                    "experiments": {"table2": {"wall_s": 1.0}},
                    "runs": rows,
                },
            )
            files.append(path)

        by_file = compare_bench(files[0], files[1])
        by_store = compare_bench(
            "store:last-1", "store:last", store_path=db
        )

        def verdicts(cmp):
            return {
                (d.key, d.metric): d.regression
                for d in cmp.deltas
            }

        assert verdicts(by_file) == verdicts(by_store)
        assert any(d.metric == "error" for d in by_store.regressions)

    def test_cli_compare_accepts_store_refs(self, tmp_path, capsys):
        db = str(tmp_path / "history.db")
        with RunStore(db) as store:
            for _ in range(2):
                run_id = store.start_run()
                store.add_result(run_id, summary_row())
        assert (
            main(
                ["compare", "store:last-1", "store:last", "--store", db]
            )
            == 0
        )
        assert "no regressions" in capsys.readouterr().out


class TestDefaultStorePath:
    def test_env_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "/elsewhere/h.db")
        assert default_store_path("ignored") == "/elsewhere/h.db"

    def test_json_dir_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store_path("out/json") == os.path.join(
            "out", "json", "history.db"
        )

    def test_bare_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store_path() == os.path.join(
            "results", "json", "history.db"
        )

    def test_config_digest_is_stable(self):
        a = config_digest({"b": 1, "a": 2})
        b = config_digest({"a": 2, "b": 1})
        assert a == b and len(a) == 16

    def test_load_bench_source_dispatches(self, tmp_path):
        from repro.obs.output import write_json

        path = str(tmp_path / "bench.json")
        write_json(path, {"runs": []})
        assert load_bench_source(path) == {"runs": []}
        db = str(tmp_path / "h.db")
        with RunStore(db) as store:
            run_id = store.start_run()
            store.add_result(run_id, summary_row())
        loaded = load_bench_source("store:last", db)
        assert loaded["runs"][0]["workload"] == "kmeans"


class TestCliStoreRecording:
    def test_experiment_records_into_store(self, tmp_path, capsys):
        db = str(tmp_path / "history.db")
        assert (
            main(
                ["table2", "--scale", "0.05", "--workloads", "kmeans",
                 "--json-out", str(tmp_path / "json"), "--store", db]
            )
            == 0
        )
        assert "recorded in" in capsys.readouterr().out
        with RunStore(db) as store:
            run_id = store.resolve_ref("last")
            row = store.run_row(run_id)
            assert row["finished"] == 1
            assert row["wall_s"] > 0
            assert row["cpu_s"] is not None
            assert row["experiments"]["table2"]["wall_s"] > 0
            assert row["context"]["workloads"] == ["kmeans"]
            results = store.results_for(run_id)
            assert [r["workload"] for r in results] == ["kmeans"]
            assert results[0]["accesses"] > 0

    def test_two_runs_are_distinct_rows(self, tmp_path, capsys):
        """Acceptance: consecutive table2 runs land as distinct rows."""
        db = str(tmp_path / "history.db")
        argv = [
            "table2", "--scale", "0.05", "--workloads", "kmeans",
            "--json-out", str(tmp_path / "json"), "--store", db,
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        with RunStore(db) as store:
            assert len(store.run_ids()) == 2
        assert main(["history", "--store", db, "top",
                     "--metric", "accesses_per_sec"]) == 0
        out = capsys.readouterr().out
        assert out.count("kmeans") == 2
        assert main(["compare", "store:last-1", "store:last",
                     "--store", db, "--wall-threshold", "10"]) == 0

    def test_export_equals_bench_obs(self, tmp_path, capsys):
        """A recorded ``--profile`` run's ``history export`` is its
        ``BENCH_obs.json`` plus the ``store`` block."""
        json_dir = tmp_path / "json"
        db = str(tmp_path / "history.db")
        assert main(
            ["table2", "--scale", "0.05", "--seed", "3",
             "--workloads", "swaptions", "--json-out", str(json_dir),
             "--store", db, "--profile"]
        ) == 0
        out = tmp_path / "export.json"
        assert main(
            ["history", "--store", db, "export", "last", "--out", str(out)]
        ) == 0
        exported = json.loads(out.read_text())
        bench = json.loads((json_dir / "BENCH_obs.json").read_text())
        assert exported.pop("store")["run_id"] == 1
        assert bench["profile"]["stages"]
        assert exported == bench

    def test_second_invocation_replaces_bench_obs(self, tmp_path, capsys):
        json_dir = tmp_path / "json"
        knobs = ["--scale", "0.05", "--seed", "3", "--no-store",
                 "--json-out", str(json_dir)]
        assert main(["table2", "--workloads", "swaptions", *knobs]) == 0
        assert main(["fig12", "--workloads", "kmeans", *knobs]) == 0
        bench = json.loads((json_dir / "BENCH_obs.json").read_text())
        assert list(bench["experiments"]) == ["fig12"]
        assert [(r["workload"], r["config"]) for r in bench["runs"]] == [
            ("kmeans", label) for label in (
                "baseline-2MB", "dopp-14bit-1/2", "dopp-14bit-1/4",
                "dopp-14bit-1/8",
            )
        ]

    def test_no_store_skips_recording(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        json_dir = str(tmp_path / "json")
        assert (
            main(
                ["table2", "--scale", "0.05", "--workloads", "kmeans",
                 "--json-out", json_dir, "--no-store"]
            )
            == 0
        )
        assert "recorded in" not in capsys.readouterr().out
        assert not os.path.exists(os.path.join(json_dir, "history.db"))

    def test_default_path_follows_json_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        json_dir = str(tmp_path / "json")
        assert (
            main(
                ["table2", "--scale", "0.05", "--workloads", "kmeans",
                 "--json-out", json_dir]
            )
            == 0
        )
        assert os.path.exists(os.path.join(json_dir, "history.db"))

    def test_runs_row_records_the_effective_knobs(self, tmp_path, monkeypatch):
        """Seed, scale and engine set through the environment are what
        the run row, its config hash and the BENCH context record."""
        from repro.harness.strategy import run_strategies

        monkeypatch.setenv("REPRO_ENGINE", "reference")
        monkeypatch.setenv("REPRO_SEED", "3")
        db = str(tmp_path / "history.db")
        for scale in ("0.01", "0.02"):
            monkeypatch.setenv("REPRO_SCALE", scale)
            result = run_strategies(
                ["table2"], workloads=["swaptions"],
                store_path=db, record_history=True,
            )
            (row,) = result.ctx.run_summaries()
            assert row["engine_stats"]["engine"] == "reference"
            assert result.ctx.context_summary()["engine"] == "reference"
        with RunStore(db) as store:
            first, second = (store.run_row(i) for i in store.run_ids())
        assert (first["engine"], first["seed"], first["scale"]) == (
            "reference", 3, 0.01
        )
        assert (second["engine"], second["seed"], second["scale"]) == (
            "reference", 3, 0.02
        )
        assert first["config_hash"] != second["config_hash"]

    def test_unusable_store_never_fails_the_run(self, tmp_path, capsys):
        bad = str(tmp_path / "corrupt.db")
        with open(bad, "w") as fh:
            fh.write("this is not sqlite")
        assert (
            main(
                ["table2", "--scale", "0.05", "--workloads", "kmeans",
                 "--json-out", str(tmp_path / "json"), "--store", bad]
            )
            == 0
        )
        assert "unavailable" in capsys.readouterr().err
