"""Tests for machine-readable output (repro.obs.output, Table JSON)."""

import json
import os

from repro.harness.reporting import Table
from repro.obs.output import (
    BENCH_FILENAME,
    bench_summary,
    load_json,
    render_report,
    save_experiment_json,
    write_json,
)


def make_table():
    t = Table("Fig. X: demo", ["workload", "a", "b"], precision=2)
    t.add_row("canneal", 1.25, 3)
    t.add_row("jpeg", None, 0.5)
    t.add_note("a note")
    return t


class TestTableJson:
    def test_as_dict_round_trip(self):
        t = make_table()
        clone = Table.from_dict(t.as_dict())
        assert clone.render() == t.render()
        assert clone.rows == t.rows
        assert clone.notes == t.notes

    def test_as_dict_is_json_serializable(self):
        json.dumps(make_table().as_dict())


class TestExperimentJson:
    def test_single_table_keyed_main(self, tmp_path):
        path = save_experiment_json("fig99", {"": make_table()}, str(tmp_path))
        data = load_json(path)
        assert data["experiment"] == "fig99"
        assert list(data["tables"]) == ["main"]

    def test_multi_table_keys_preserved(self, tmp_path):
        tables = {"error": make_table(), "runtime": make_table()}
        data = load_json(save_experiment_json("fig10", tables, str(tmp_path)))
        assert set(data["tables"]) == {"error", "runtime"}
        assert data["tables"]["error"]["rows"] == make_table().as_dict()["rows"]


class TestRenderReport:
    def test_missing_directory(self, tmp_path):
        assert "run an experiment first" in render_report(str(tmp_path / "nope"))

    def test_empty_directory(self, tmp_path):
        assert BENCH_FILENAME in render_report(str(tmp_path))

    def test_full_report(self, tmp_path):
        d = str(tmp_path)
        save_experiment_json("fig10", {"error": make_table()}, d)
        write_json(os.path.join(d, BENCH_FILENAME), bench_summary(
            {"fig10": {"wall_s": 1.5, "tables": ["error"]}},
            [
                {
                    "workload": "jpeg",
                    "config": "dopp-14bit-1/4",
                    "sim_wall_s": 0.5,
                    "accesses_per_sec": 1e5,
                    "llc_miss_rate": 0.25,
                    "back_invalidations": 3,
                }
            ],
            {"seed": 7},
            {"stages": {"sim": 0.5, "trace": 0.1}},
        ))
        text = render_report(d)
        assert "fig10" in text
        assert "jpeg" in text
        assert "dopp-14bit-1/4" in text
        assert "sim" in text
        assert "fig10.json" in text

    def test_write_json_creates_parents(self, tmp_path):
        path = write_json(str(tmp_path / "a" / "b.json"), {"x": 1})
        assert load_json(path) == {"x": 1}


class TestAtomicWrite:
    """write_json must never leave a truncated file (crash window)."""

    def test_failed_serialization_keeps_old_file(self, tmp_path):
        path = str(tmp_path / "bench.json")
        write_json(path, {"runs": [1, 2, 3]})

        class Unserializable:
            def __str__(self):
                raise RuntimeError("boom mid-dump")

        try:
            write_json(path, {"runs": Unserializable()})
        except RuntimeError:
            pass
        # The original content survived the crashed write...
        assert load_json(path) == {"runs": [1, 2, 3]}
        # ...and the temp file was cleaned up.
        assert os.listdir(str(tmp_path)) == ["bench.json"]

    def test_replace_is_atomic_not_in_place(self, tmp_path, monkeypatch):
        # If write_json opened the target directly, a crash mid-write
        # would truncate it; assert the data travels via os.replace.
        path = str(tmp_path / "bench.json")
        write_json(path, {"v": 1})
        calls = []
        real_replace = os.replace

        def spy(src, dst):
            calls.append((src, dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        write_json(path, {"v": 2})
        assert len(calls) == 1
        src, dst = calls[0]
        assert dst == path and src != path
        assert os.path.dirname(src) == os.path.dirname(path)
        assert load_json(path) == {"v": 2}
