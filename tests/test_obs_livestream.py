"""Tests for live worker progress streaming (``--progress``)."""

import io
import queue
import time

import pytest

from repro.harness.parallel import prefetch_pairs
from repro.harness.runner import ExperimentContext, baseline_spec
from repro.obs.livestream import (
    HEARTBEAT_KIND,
    HEARTBEAT_PHASES,
    LiveProgressSink,
    WorkerProgress,
    make_heartbeat,
    rss_kb,
)

SEED = 3
SCALE = 0.05
WORKLOADS = ["kmeans", "swaptions"]


class TestHeartbeat:
    def test_fields(self):
        beat = make_heartbeat(
            "kmeans", "run", workload="kmeans", config="baseline-2MB",
            done=1, total=3, accesses=100, accesses_per_sec=50.0,
            slow_path_fraction=0.25,
        )
        assert beat["kind"] == HEARTBEAT_KIND
        assert beat["unit"] == "kmeans"
        assert beat["phase"] in HEARTBEAT_PHASES
        assert beat["done"] == 1 and beat["total"] == 3
        assert beat["pid"] > 0
        assert beat["ts_unix"] <= time.time()

    def test_rss_is_positive_here(self):
        assert rss_kb() > 0


class TestWorkerProgress:
    def test_emit_lands_in_queue(self):
        channel = queue.Queue()
        progress = WorkerProgress(channel, "kmeans")
        progress.emit("start", total=2)
        beat = channel.get_nowait()
        assert beat["unit"] == "kmeans"
        assert beat["phase"] == "start"
        assert beat["total"] == 2

    def test_none_channel_is_noop(self):
        WorkerProgress(None, "kmeans").emit("start")  # must not raise

    def test_broken_channel_disables_itself(self):
        class Broken:
            def put(self, beat):
                raise RuntimeError("manager gone")

        progress = WorkerProgress(Broken(), "kmeans")
        progress.emit("start")  # swallows the failure...
        assert progress._channel is None  # ...and turns itself off
        progress.emit("run")  # still silent


class TestLiveProgressSink:
    def test_handle_tracks_latest_per_unit(self):
        sink = LiveProgressSink()
        sink.handle(make_heartbeat("a", "start", total=2))
        sink.handle(make_heartbeat("a", "run", done=1, total=2))
        sink.handle(make_heartbeat("b", "done"))
        assert len(sink.heartbeats) == 3
        assert sink.units["a"]["phase"] == "run"
        summary = sink.summary()
        assert summary["heartbeats"] == 3
        assert summary["units"] == 2
        assert summary["unfinished"] == ["a"]

    def test_status_line_mentions_rates(self):
        sink = LiveProgressSink()
        sink.handle(
            make_heartbeat(
                "kmeans", "run", done=1, total=4,
                accesses_per_sec=1.5e6, slow_path_fraction=0.5,
            )
        )
        line = sink.status_line()
        assert "kmeans: 1/4" in line
        assert "@1.5M/s" in line
        assert "slow=50%" in line

    def test_render_writes_in_place(self):
        stream = io.StringIO()
        sink = LiveProgressSink(stream=stream, render=True)
        sink.handle(make_heartbeat("kmeans", "run", done=1, total=2))
        assert stream.getvalue().startswith("\r")
        sink.stop()
        assert stream.getvalue().endswith("\n")

    def test_non_tty_defaults_to_no_render(self):
        assert LiveProgressSink(stream=io.StringIO()).render is False

    def test_drain_thread_consumes_queue(self):
        channel = queue.Queue()
        sink = LiveProgressSink()
        sink.start(channel)
        for i in range(5):
            channel.put(make_heartbeat("u", "run", done=i, total=5))
        deadline = time.time() + 5
        while len(sink.heartbeats) < 5 and time.time() < deadline:
            time.sleep(0.01)
        sink.stop()
        assert len(sink.heartbeats) == 5

    def test_events_for_store_copies(self):
        sink = LiveProgressSink()
        sink.handle(make_heartbeat("u", "done"))
        events = sink.events_for_store()
        events[0]["phase"] = "mutated"
        assert sink.heartbeats[0]["phase"] == "done"


class TestHeartbeatsEndToEnd:
    @pytest.fixture(scope="class")
    def streamed(self):
        """A 2-job prefetch with a progress sink attached."""
        ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=WORKLOADS)
        sink = LiveProgressSink()
        fetched = prefetch_pairs(
            ctx, [(name, baseline_spec()) for name in WORKLOADS], jobs=2,
            progress=sink,
        )
        assert fetched == len(WORKLOADS)
        return ctx, sink

    def test_every_worker_emitted_heartbeats(self, streamed):
        """Acceptance: --progress --jobs 2 emits >= 1 beat per worker."""
        _, sink = streamed
        per_unit = {}
        for beat in sink.heartbeats:
            per_unit.setdefault(beat["unit"], []).append(beat)
        assert set(per_unit) == set(WORKLOADS)
        for beats in per_unit.values():
            assert len(beats) >= 1
            assert beats[-1]["phase"] == "done"
        assert sink.summary()["unfinished"] == []

    def test_run_beats_carry_simulation_stats(self, streamed):
        ctx, sink = streamed
        runs = [b for b in sink.heartbeats if b["phase"] == "run"]
        assert len(runs) == len(WORKLOADS)
        for beat in runs:
            record = ctx._runs[(beat["workload"], baseline_spec())]
            assert beat["accesses"] == record.accesses
            assert beat["accesses_per_sec"] == record.accesses_per_sec
            assert beat["config"] == "baseline-2MB"
            assert beat["pid"] > 0

    def test_heartbeats_land_in_store(self, streamed, tmp_path):
        from repro.obs.store import RunStore

        _, sink = streamed
        with RunStore(str(tmp_path / "h.db")) as store:
            run_id = store.start_run()
            n = store.add_events(run_id, sink.events_for_store())
            assert n == len(sink.heartbeats)
            stored = store.events_for(run_id, kind=HEARTBEAT_KIND)
            assert {b["unit"] for b in stored} == set(WORKLOADS)

    def test_results_identical_to_sequential(self, streamed):
        ctx, _ = streamed
        seq = ExperimentContext(seed=SEED, scale=SCALE, workloads=WORKLOADS)
        for name in WORKLOADS:
            seq.run(name, baseline_spec())
        for key, record in seq._runs.items():
            assert ctx._runs[key].system == record.system
