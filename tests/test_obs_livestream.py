"""Tests for run events: ``ExperimentContext.emit``, worker heartbeats
and the TTY status line."""

import io
import queue
import time

import pytest

from repro.harness import parallel
from repro.harness.parallel import prefetch_pairs
from repro.harness.runner import ExperimentContext, baseline_spec
from repro.harness.strategy import run_strategies
from repro.obs import Observability
from repro.obs.livestream import (
    HEARTBEAT_KIND,
    HEARTBEAT_PHASES,
    LiveProgressSink,
    make_heartbeat,
    rss_kb,
)
from repro.obs.store import RunStore

SEED = 3
SCALE = 0.05
WORKLOADS = ["kmeans", "swaptions"]


def _beat(unit, phase, **fields):
    """A heartbeat event as ``ctx.emit`` records it."""
    return {"kind": HEARTBEAT_KIND, **make_heartbeat(unit, phase, **fields)}


class TestContextEmit:
    def test_records_traces_and_notifies(self):
        obs = Observability(enabled=True, ring_capacity=8)
        ctx = ExperimentContext(seed=SEED, scale=SCALE, obs=obs)
        heard = []
        ctx.listener = heard.append
        ctx.emit("worker_retry", unit="kmeans", attempt=1)
        (event,) = ctx.events
        assert event["kind"] == "worker_retry"
        assert event["unit"] == "kmeans" and event["attempt"] == 1
        assert event["ts_unix"] <= time.time()
        assert heard == [event]
        assert obs.ring.counts_by_kind() == {"worker_retry": 1}

    def test_recorded_with_tracing_off(self):
        ctx = ExperimentContext(seed=SEED, scale=SCALE)
        ctx.emit("run_cancelled", reason="test")
        assert [e["kind"] for e in ctx.events] == ["run_cancelled"]

    def test_forwarded_event_keeps_its_timestamp(self):
        ctx = ExperimentContext(seed=SEED, scale=SCALE)
        ctx.emit(HEARTBEAT_KIND, ts_unix=1.5, unit="kmeans")
        assert ctx.events[0]["ts_unix"] == 1.5


class TestHeartbeat:
    def test_fields(self):
        ctx = ExperimentContext(seed=SEED, scale=SCALE)
        ctx.emit(
            HEARTBEAT_KIND,
            **make_heartbeat(
                "kmeans", "run", workload="kmeans", config="baseline-2MB",
                done=1, total=3, accesses=100, accesses_per_sec=50.0,
                slow_path_fraction=0.25,
            ),
        )
        (beat,) = ctx.events
        assert beat["kind"] == HEARTBEAT_KIND
        assert beat["unit"] == "kmeans"
        assert beat["phase"] in HEARTBEAT_PHASES
        assert beat["done"] == 1 and beat["total"] == 3
        assert beat["pid"] > 0
        assert beat["ts_unix"] <= time.time()

    def test_rss_is_positive_here(self):
        assert rss_kb() > 0


class TestWorkerProgress:
    """A worker context's listener puts its run events on the pool's
    queue."""

    def test_emit_lands_in_queue(self, monkeypatch):
        channel = queue.Queue()
        monkeypatch.setattr(parallel, "_worker_events", channel)
        ctx = ExperimentContext(seed=SEED, scale=SCALE)
        ctx.listener = parallel._send_event
        ctx.emit(HEARTBEAT_KIND, **make_heartbeat("kmeans", "start", total=2))
        beat = channel.get_nowait()
        assert beat["kind"] == HEARTBEAT_KIND
        assert beat["unit"] == "kmeans"
        assert beat["phase"] == "start"
        assert beat["total"] == 2

    def test_none_channel_is_noop(self):
        assert parallel._worker_events is None  # the parent has none
        parallel._send_event(_beat("kmeans", "start"))  # must not raise

    def test_broken_channel_disables_itself(self, monkeypatch):
        class Broken:
            def put(self, beat):
                raise RuntimeError("parent gone")

        monkeypatch.setattr(parallel, "_worker_events", Broken())
        parallel._send_event(_beat("kmeans", "start"))  # swallows it...
        assert parallel._worker_events is None  # ...and turns itself off
        parallel._send_event(_beat("kmeans", "run"))  # still silent


class TestLiveProgressSink:
    def test_handle_tracks_latest_per_unit(self):
        sink = LiveProgressSink(io.StringIO())
        sink.handle(_beat("a", "start", total=2))
        sink.handle(_beat("a", "run", done=1, total=2))
        sink.handle(_beat("b", "done"))
        sink.handle({"kind": "worker_retry", "unit": "c"})  # not a beat
        assert set(sink.units) == {"a", "b"}
        assert sink.units["a"]["phase"] == "run"
        assert "b: done" in sink.status_line()

    def test_status_line_mentions_rates(self):
        sink = LiveProgressSink(io.StringIO())
        sink.handle(
            _beat(
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
        sink = LiveProgressSink(stream)
        sink.handle(_beat("kmeans", "run", done=1, total=2))
        assert stream.getvalue().startswith("\r[1 workers] kmeans: 1/2")
        sink.close()
        assert stream.getvalue().endswith("\r" + " " * sink.width + "\r")
        written = stream.getvalue()
        sink.close()  # nothing left to erase
        assert stream.getvalue() == written

    @staticmethod
    def _driver_stderr(monkeypatch, tty):
        """What a printing ``--jobs 2`` run writes to stderr."""

        class Stderr(io.StringIO):
            def isatty(self):
                return tty

        stderr = Stderr()
        monkeypatch.setattr("sys.stderr", stderr)
        run_strategies(
            ["table2"], seed=SEED, scale=SCALE, workloads=WORKLOADS,
            jobs=2, echo=lambda line: None,
        )
        return stderr.getvalue()

    def test_non_tty_defaults_to_no_render(self, monkeypatch):
        assert "\r" not in self._driver_stderr(monkeypatch, tty=False)

    def test_tty_stderr_gets_the_status_line(self, monkeypatch):
        assert "\r[2 workers]" in self._driver_stderr(monkeypatch, tty=True)


class TestHeartbeatsEndToEnd:
    @pytest.fixture(scope="class")
    def streamed(self):
        """A 2-job prefetch; its heartbeats land in ``ctx.events``."""
        ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=WORKLOADS)
        fetched = prefetch_pairs(
            ctx, [(name, baseline_spec()) for name in WORKLOADS], jobs=2,
        )
        assert fetched == len(WORKLOADS)
        beats = [e for e in ctx.events if e["kind"] == HEARTBEAT_KIND]
        return ctx, beats

    def test_every_worker_emitted_heartbeats(self, streamed):
        """Acceptance: --jobs 2 records >= 1 beat per unit, ending done."""
        _, beats = streamed
        per_unit = {}
        for beat in beats:
            per_unit.setdefault(beat["unit"], []).append(beat)
        assert set(per_unit) == set(WORKLOADS)
        for unit_beats in per_unit.values():
            assert len(unit_beats) >= 1
            assert unit_beats[-1]["phase"] == "done"

    def test_run_beats_carry_simulation_stats(self, streamed):
        ctx, beats = streamed
        runs = [b for b in beats if b["phase"] == "run"]
        assert len(runs) == len(WORKLOADS)
        for beat in runs:
            record = ctx._runs[(beat["workload"], baseline_spec())]
            assert beat["accesses"] == record.accesses
            assert beat["accesses_per_sec"] == record.accesses_per_sec
            assert beat["config"] == "baseline-2MB"
            assert beat["pid"] > 0

    def test_heartbeats_land_in_store(self, streamed, tmp_path):
        _, beats = streamed
        with RunStore(str(tmp_path / "h.db")) as store:
            run_id = store.start_run()
            assert store.add_events(run_id, beats) == len(beats)
            stored = store.events_for(run_id, kind=HEARTBEAT_KIND)
            assert {b["unit"] for b in stored} == set(WORKLOADS)

    def test_driver_stores_heartbeats_without_a_flag(self, tmp_path):
        store_path = str(tmp_path / "h.db")
        run_strategies(
            ["table2"], seed=SEED, scale=SCALE, workloads=WORKLOADS,
            jobs=2, store_path=store_path, record_history=True,
        )
        with RunStore(store_path) as store:
            (run,) = store.list_runs()
            stored = store.events_for(run["id"], kind=HEARTBEAT_KIND)
        assert {b["unit"] for b in stored} == set(WORKLOADS)
        assert all(b["ts_unix"] > 0 for b in stored)

    def test_results_identical_to_sequential(self, streamed):
        ctx, _ = streamed
        seq = ExperimentContext(seed=SEED, scale=SCALE, workloads=WORKLOADS)
        for name in WORKLOADS:
            seq.run(name, baseline_spec())
        for key, record in seq._runs.items():
            assert ctx._runs[key].system == record.system
