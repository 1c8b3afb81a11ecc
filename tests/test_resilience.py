"""Tests for the resilience layer (``docs/robustness.md``).

Covers the three pillars of the layer: deterministic fault injection
(same config + seed => identical results across runs, engines and job
counts), engine failures that stop the run (a typed
``SimulationFault`` naming the pair and the engine, never a silent
re-run on another engine), and harness recovery (worker
timeouts/deaths retried in a fresh pool; interrupted sweeps resume
from the history store's memo byte-identically).
"""

import contextlib
import copy
import json
import logging
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro.harness.parallel as parallel
import repro.harness.runner as runner
from repro.engine import ENGINES, reference
from repro.errors import ConfigError, SimulationFault
from repro.harness.parallel import (
    CancelToken,
    cancellation_signals,
    prefetch_pairs,
)
from repro.harness.runner import (
    ExperimentContext,
    baseline_spec,
    dopp_spec,
)
from repro.harness.strategy import run_strategies
from repro.obs import EVENT_WORKER_RETRY, Observability
from repro.obs.store import RunStore
from repro.resilience.faults import FaultConfig, FaultInjector

SEED = 3
SCALE = 0.05
#: kmeans exercises every fault site at this scale (swaptions has no
#: LLC read hits at scale 0.05, so its llc site never fires).
FAULTS = FaultConfig(
    seed=3, read_rate=1e-3, flip_bits=2, targets=("approx_data", "dram")
)
FSPEC = dopp_spec(14, 0.25).with_faults(FAULTS)

_WALL_KEYS = ("sim_wall_s", "accesses_per_sec")


def _strip(rows):
    return [
        {k: v for k, v in row.items() if k not in _WALL_KEYS} for row in rows
    ]


def _kinds(obs):
    return [ev.kind for ev in obs.ring.events]


def _events_of(ctx, kind):
    return [event for event in ctx.events if event["kind"] == kind]


@pytest.fixture(scope="module")
def swaptions_ctx():
    """One baseline swaptions run, shared read-only across classes."""
    ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
    ctx.run("swaptions", baseline_spec())
    return ctx


def _fork_ctx(src, **kwargs):
    """Fresh context sharing ``src``'s (immutable) traces."""
    ctx = ExperimentContext(
        seed=SEED, scale=SCALE, workloads=list(src.names), **kwargs
    )
    ctx._traces = dict(src._traces)
    return ctx


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulated a pair the memo should have held")


@pytest.fixture
def repro_warnings():
    """Messages of the WARNING records the ``repro`` loggers emit.

    A handler on the ``repro`` logger itself: the CLI's
    ``configure_logging`` turns propagation to the root logger off.
    """
    messages = []

    class _Collect(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    logger = logging.getLogger("repro")
    handler = _Collect(logging.WARNING)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


class TestFaultConfig:
    def test_zero_rate_normalizes_to_plain_spec(self):
        spec = dopp_spec(14, 0.25)
        assert spec.with_faults(FaultConfig(seed=9)) is spec
        assert spec.with_faults(None) is spec

    def test_no_targets_is_inactive(self):
        cfg = FaultConfig(seed=1, read_rate=0.5, targets=())
        assert not cfg.active
        assert dopp_spec(14, 0.25).with_faults(cfg) == dopp_spec(14, 0.25)

    def test_active_spec_changes_label_and_dict(self):
        assert FAULTS.active
        assert FSPEC != dopp_spec(14, 0.25)
        assert FSPEC.label() == "dopp-14bit-1/4+faults(s3,r0.001x2,ad+dram)"
        assert FSPEC.to_dict()["faults"] == FAULTS.to_dict()
        assert "faults" not in dopp_spec(14, 0.25).to_dict()

    def test_targets_normalized_for_hashing(self):
        a = FaultConfig(seed=1, read_rate=0.1, targets=("dram", "approx_data"))
        b = FaultConfig(
            seed=1, read_rate=0.1, targets=("approx_data", "dram", "dram")
        )
        assert a == b and hash(a) == hash(b)
        assert a.targets == ("approx_data", "dram")

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"read_rate": 1.5}, "read_rate"),
            ({"burst_rate": -0.1}, "burst_rate"),
            ({"flip_bits": 0}, "flip_bits"),
            ({"flip_bits": 65}, "flip_bits"),
            ({"burst_len": 0}, "burst_len"),
            ({"stuck_bits": 65}, "stuck_bits"),
            ({"targets": ("l3",)}, "targets"),
        ],
    )
    def test_validation(self, kwargs, field):
        with pytest.raises(ConfigError) as excinfo:
            FaultConfig(**kwargs)
        assert excinfo.value.field == field
        assert excinfo.value.exit_code == 2


class TestFaultInjector:
    def test_decision_stream_is_deterministic(self):
        cfg = FaultConfig(seed=11, read_rate=0.05, targets=("llc",))
        inj1, inj2 = FaultInjector(cfg), FaultInjector(cfg)
        stream1 = [inj1.detected("llc") for _ in range(5000)]
        stream2 = [inj2.detected("llc") for _ in range(5000)]
        assert stream1 == stream2
        assert any(stream1)  # 0.05 over 5000 reads fires w.h.p.
        assert inj1.stats("llc").detected == inj1.stats("llc").faults

    def test_untargeted_site_is_inert(self):
        inj = FaultInjector(FaultConfig(seed=1, read_rate=1.0, targets=("llc",)))
        values = np.ones(8)
        assert not inj.silent("dram")
        assert inj.corrupt("approx_data", values) is values
        assert inj.stats("dram") is None
        assert inj.total_faults() == 0

    def test_corrupt_is_deterministic_and_nonmutating(self):
        cfg = FaultConfig(
            seed=5, read_rate=1.0, flip_bits=3, targets=("approx_data",)
        )
        block = np.linspace(0.0, 1.0, 8)
        out1 = FaultInjector(cfg).corrupt("approx_data", block)
        out2 = FaultInjector(cfg).corrupt("approx_data", block)
        assert out1 is not block
        assert np.array_equal(block, np.linspace(0.0, 1.0, 8))
        assert np.array_equal(
            out1.view(np.uint64), out2.view(np.uint64)
        )
        assert not np.array_equal(out1, block)

    def test_stuck_bits_apply_on_every_read(self):
        cfg = FaultConfig(seed=5, stuck_bits=4, targets=("approx_data",))
        inj = FaultInjector(cfg)
        block = np.zeros(4)
        out1 = inj.corrupt("approx_data", block)
        out2 = inj.corrupt("approx_data", block)
        assert np.array_equal(out1.view(np.uint64), out2.view(np.uint64))
        # stuck-at-0 bits are invisible on a zero block; stuck-at-1 show.
        # Either way the mask itself must be stable and non-trivial.
        or_mask = int(inj._stuck_or)
        and_mask = int(inj._stuck_and)
        assert bin(or_mask).count("1") + bin(~and_mask & (2**64 - 1)).count(
            "1"
        ) == 4

    def test_burst_faults_consecutive_reads(self):
        cfg = FaultConfig(
            seed=2, burst_rate=0.01, burst_len=4, targets=("dram",)
        )
        inj = FaultInjector(cfg)
        stream = [inj.detected("dram") for _ in range(4000)]
        assert any(stream)
        first = stream.index(True)
        assert stream[first : first + 4] == [True] * 4

    def test_summary_shape(self):
        inj = FaultInjector(FaultConfig(seed=1, read_rate=0.5, targets=("llc",)))
        inj.detected("llc")
        summary = inj.summary()
        assert summary["config"] == inj.config.to_dict()
        assert set(summary["sites"]) == {"llc"}
        assert summary["sites"]["llc"]["reads"] == 1


class TestFaultDeterminism:
    @pytest.fixture(scope="class")
    def records(self):
        """The same faulty kmeans run from two fresh contexts."""
        ctx_a = ExperimentContext(seed=SEED, scale=SCALE, workloads=["kmeans"])
        ctx_b = ExperimentContext(seed=SEED, scale=SCALE, workloads=["kmeans"])
        return ctx_a, ctx_b, ctx_a.run("kmeans", FSPEC), ctx_b.run("kmeans", FSPEC)

    def test_identical_across_fresh_contexts(self, records):
        _, _, rec_a, rec_b = records
        da = {k: v for k, v in rec_a.to_dict().items() if k not in _WALL_KEYS}
        db = {k: v for k, v in rec_b.to_dict().items() if k not in _WALL_KEYS}
        assert da == db
        assert rec_a.faults == rec_b.faults

    def test_faults_actually_fire(self, records):
        ctx_a, _, rec_a, _ = records
        sites = rec_a.faults["sites"]
        assert set(sites) == {"approx_data", "dram"}
        assert sites["approx_data"]["reads"] > 0
        assert sites["dram"]["reads"] > 0
        assert sites["dram"]["faults"] > 0
        clean = ctx_a.run("kmeans", dopp_spec(14, 0.25))
        assert clean.faults is None
        # Detected DRAM faults refetch: never cheaper than the clean run.
        assert rec_a.system.cycles >= clean.system.cycles
        assert rec_a.system.traffic_bytes >= clean.system.traffic_bytes

    def test_batched_and_reference_engines_agree_under_faults(self, records):
        ctx_a, _, rec_a, _ = records
        ref = _fork_ctx(ctx_a, engine="reference")
        rec_r = ref.run("kmeans", FSPEC)
        assert rec_r.system == rec_a.system
        assert rec_r.energy == rec_a.energy
        assert rec_r.faults == rec_a.faults

    def test_functional_error_shifts_under_silent_faults(self, records):
        ctx_a, _, _, _ = records
        faulty = ctx_a.error("kmeans", FSPEC)
        clean = ctx_a.error("kmeans", dopp_spec(14, 0.25))
        assert faulty != clean
        # And it is reproducible, not noise:
        fresh = _fork_ctx(ctx_a)
        assert fresh.error("kmeans", FSPEC) == faulty

    def test_zero_rate_run_is_the_disabled_run(self, records):
        ctx_a, _, _, _ = records
        clean = ctx_a.run("kmeans", dopp_spec(14, 0.25))
        zero = dopp_spec(14, 0.25).with_faults(FaultConfig(seed=99))
        assert ctx_a.run("kmeans", zero) is clean

    def test_context_default_faults_apply(self, records):
        ctx_a, _, rec_a, _ = records
        dctx = _fork_ctx(ctx_a, faults=FAULTS)
        rec = dctx.run("kmeans", dopp_spec(14, 0.25))
        assert rec.spec == FSPEC
        assert rec.faults == rec_a.faults
        # An explicit spec-level config wins over the context default.
        assert dctx.apply_faults(FSPEC) is FSPEC


class TestEngineFallback:
    """There is no engine fallback: an engine failure stops the run
    with a ``SimulationFault`` (exit code 4) naming the workload, the
    config and the engine, and nothing is re-run on another engine."""

    @staticmethod
    def _fail_batched(monkeypatch):
        """Make the batched engine raise; returns the list of traces
        the reference engine is then asked to run."""
        reference_calls = []

        def boom(system, trace, limit=None):
            raise RuntimeError("synthetic batched-path failure")

        def counted(system, trace, limit=None):
            reference_calls.append(trace.name)
            return reference.run(system, trace, limit)

        monkeypatch.setitem(ENGINES, "batched", boom)
        monkeypatch.setitem(ENGINES, "reference", counted)
        return reference_calls

    def test_batched_failure_raises(self, swaptions_ctx, monkeypatch):
        reference_calls = self._fail_batched(monkeypatch)
        ctx = _fork_ctx(swaptions_ctx, engine="batched")
        with pytest.raises(SimulationFault) as excinfo:
            ctx.run("swaptions", baseline_spec())
        assert excinfo.value.exit_code == 4
        msg = str(excinfo.value)
        assert f"batched engine failed on swaptions/{baseline_spec().label()}" in msg
        assert "synthetic batched-path failure" in msg
        assert "--engine reference" in msg
        assert reference_calls == []
        assert not ctx._runs

    def test_batched_failure_under_jobs_names_both_pairs(self, monkeypatch):
        self._fail_batched(monkeypatch)
        with pytest.raises(SimulationFault) as excinfo:
            run_strategies(
                ["table2"], seed=SEED, scale=SCALE, engine="batched",
                workloads=["swaptions", "kmeans"], jobs=2,
            )
        assert excinfo.value.exit_code == 4
        msg = str(excinfo.value)
        for name in ("swaptions", "kmeans"):
            assert f"batched engine failed on {name}/{baseline_spec().label()}" in msg

    @pytest.mark.parametrize(
        "engine, env",
        [
            pytest.param("reference", None, id="engine_arg"),
            pytest.param(None, "reference", id="REPRO_ENGINE"),
        ],
    )
    def test_explicit_reference_engine_failure_raises(
        self, swaptions_ctx, monkeypatch, engine, env
    ):
        attempts = []

        def boom_engine(system, trace, limit=None):
            attempts.append(system)
            raise RuntimeError("reference down")

        monkeypatch.setitem(ENGINES, "reference", boom_engine)
        if env is not None:
            monkeypatch.setenv("REPRO_ENGINE", env)
        ctx = _fork_ctx(swaptions_ctx, engine=engine)
        with pytest.raises(SimulationFault) as excinfo:
            ctx.run("swaptions", baseline_spec())
        assert excinfo.value.exit_code == 4
        assert "reference engine failed" in str(excinfo.value)
        assert "swaptions" in str(excinfo.value)
        # The reference engine was the one asked for: one attempt.
        assert len(attempts) == 1


# ---------------------------------------------------------------- parallel
# Worker fakes must be module-level: the pool pickles them by qualified
# name (the fork start method re-resolves them in the child).

def _sleepy_task(task):
    time.sleep(300)


def _dying_task(task):
    os._exit(17)


def _announcing_sleeper(task):
    """Signal the test through the pool's event queue, then hang."""
    parallel._send_event({"kind": "sleeping"})
    time.sleep(300)


def _initialized_sleeper(events, parent):
    """Run the pool initializer as a worker of ``parent``, signal, hang."""
    parallel._init_worker(events, parent)
    parallel._send_event({"kind": "initialized"})
    time.sleep(300)


def _children(pid):
    """PIDs whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                found.append(int(entry))
    return found


def _alive(pid):
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _flaky_task(task):
    """Dies once (crossing processes via a sentinel file), then works."""
    sentinel = os.environ["REPRO_TEST_FLAKY_SENTINEL"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("died once\n")
        os._exit(17)
    return _REAL_RUN_TASK(task)


_REAL_RUN_TASK = parallel._run_task


class TestParallelResilience:
    def test_jobs_agree_under_faults(self):
        seq = ExperimentContext(seed=SEED, scale=SCALE, workloads=["kmeans"])
        seq.run("kmeans", baseline_spec())
        seq.run("kmeans", FSPEC)
        par = ExperimentContext(seed=SEED, scale=SCALE, workloads=["kmeans"])
        fetched = prefetch_pairs(
            par, [("kmeans", baseline_spec()), ("kmeans", FSPEC)], jobs=2,
        )
        assert fetched == 2
        assert _strip(seq.run_summaries()) == _strip(par.run_summaries())

    def test_error_values_agree_across_jobs(self):
        # Regression test: output error used to depend on whether the
        # trace was generated before the error evaluation (workers
        # simulate first, the sequential drivers evaluate error first),
        # because build_trace populates the workloads' output regions.
        spec = dopp_spec(14, 0.25)
        seq = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
        seq_err = seq.error("swaptions", spec)  # before any trace exists
        par = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
        prefetch_pairs(
            par,
            [("swaptions", baseline_spec()), ("swaptions", spec)],
            [("swaptions", spec)],
            jobs=1,
        )
        assert par._errors[("swaptions", spec)] == seq_err

    def test_timeout_fails_fast_instead_of_hanging(
        self, swaptions_ctx, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_run_task", _sleepy_task)
        ctx = _fork_ctx(swaptions_ctx)
        start = time.monotonic()
        with pytest.raises(SimulationFault) as excinfo:
            prefetch_pairs(
                ctx, [("swaptions", baseline_spec())], jobs=1,
                timeout=1.0, retries=0,
            )
        assert time.monotonic() - start < 60  # the 300s sleeper was killed
        msg = str(excinfo.value)
        assert "timeout" in msg
        assert "swaptions" in msg
        assert baseline_spec().label() in msg

    def test_worker_death_reports_the_failed_pair(
        self, swaptions_ctx, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_run_task", _dying_task)
        ctx = _fork_ctx(swaptions_ctx)
        with pytest.raises(SimulationFault) as excinfo:
            prefetch_pairs(
                ctx, [("swaptions", baseline_spec())], jobs=1, retries=0,
            )
        msg = str(excinfo.value)
        assert "worker process died" in msg
        assert "swaptions" in msg

    def test_worker_death_retried_in_fresh_pool(
        self, swaptions_ctx, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_SENTINEL", str(tmp_path / "sentinel")
        )
        monkeypatch.setattr(parallel, "_run_task", _flaky_task)
        obs = Observability(enabled=True, ring_capacity=64)
        ctx = _fork_ctx(swaptions_ctx, obs=obs)
        fetched = prefetch_pairs(
            ctx, [("swaptions", baseline_spec())], jobs=1,
            retries=1, backoff=0.01,
        )
        assert fetched == 1
        assert EVENT_WORKER_RETRY in _kinds(obs)
        rec = ctx._runs[("swaptions", baseline_spec())]
        healthy = swaptions_ctx.run("swaptions", baseline_spec())
        assert rec.system == healthy.system
        # The run event is recorded in the context with tracing off too.
        os.unlink(tmp_path / "sentinel")
        plain = _fork_ctx(swaptions_ctx)
        prefetch_pairs(
            plain, [("swaptions", baseline_spec())], jobs=1,
            retries=1, backoff=0.01,
        )
        (event,) = _events_of(plain, EVENT_WORKER_RETRY)
        assert event["workload"] == "swaptions"
        assert event["attempt"] == 1
        assert "worker process died" in event["error"]

    def test_terminate_pool_sigterms_a_busy_worker(self):
        # Workers fork inside cancellation_signals and inherit its
        # handlers; the initializer must restore SIGTERM's default.
        events = multiprocessing.Queue()
        with cancellation_signals(CancelToken()):
            pool = ProcessPoolExecutor(
                max_workers=1, initializer=parallel._init_worker,
                initargs=(events, os.getpid()),
            )
            pool.submit(_announcing_sleeper, {})
        # The task runs, so the initializer has run before it.
        assert events.get(timeout=30) == {"kind": "sleeping"}
        (proc,) = pool._processes.values()
        parallel._terminate_pool(pool)
        assert proc.exitcode == -signal.SIGTERM  # not the SIGKILL fallback

    def test_worker_of_a_dead_parent_exits(self):
        # A pool owner SIGKILLed between the fork and the initializer:
        # the worker watches the owner's PID, not whatever process
        # adopted it, so it exits instead of waiting forever.
        gone = subprocess.Popen([sys.executable, "-c", "pass"])
        gone.wait()
        events = multiprocessing.Queue()
        child = multiprocessing.get_context("fork").Process(
            target=_initialized_sleeper, args=(events, gone.pid)
        )
        child.start()
        try:
            assert events.get(timeout=10) == {"kind": "initialized"}
            child.join(timeout=2)
            assert child.exitcode == 1
        finally:
            if child.is_alive():
                child.kill()
                child.join()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc"
    )
    def test_sigkilled_cli_leaves_no_workers(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "table2",
             "--workloads", "swaptions", "kmeans", "--jobs", "2",
             "--scale", "0.5", "--seed", str(SEED), "--no-store",
             "--json-out", str(tmp_path / "json")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers = []
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            assert proc.poll() is None, "the run ended before its pool"
            workers = _children(proc.pid)
            time.sleep(0.01)
        assert len(workers) == 2
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))


class TestCheckpoint:
    """The history store's ``memo`` table is the resume memo."""

    @staticmethod
    def _attach(ctx, path, sha=None):
        """Record ``ctx`` into a new run of the store at ``path``."""
        store = RunStore(str(path))
        ctx.store, ctx.run_id = store, store.start_run(sha=sha)
        return store

    @staticmethod
    def _fresh(**kwargs):
        knobs = {"seed": SEED, "scale": SCALE, "workloads": ["swaptions"]}
        return ExperimentContext(**{**knobs, **kwargs})

    def test_journal_roundtrip_skips_recompute(
        self, swaptions_ctx, tmp_path, monkeypatch
    ):
        path = tmp_path / "history.db"
        ctx = _fork_ctx(swaptions_ctx)
        store = self._attach(ctx, path)
        spec = baseline_spec()
        rec = swaptions_ctx.run("swaptions", spec)
        ctx.remember_run("swaptions", spec, rec)
        ctx.remember_error("swaptions", dopp_spec(14, 0.25), 0.125)
        ctx.remember_error("swaptions", FSPEC, 0.25)
        ctx.remember_error("kmeans", FSPEC, 0.5)
        # One digest per (workload, spec): they differ across both.
        _, [(digests,)] = store.query(
            "SELECT COUNT(DISTINCT digest) FROM memo WHERE kind = 'error'"
        )
        assert digests == 3
        store.close()

        fresh = self._fresh()
        self._attach(fresh, path)
        assert fresh.resume() == (1, 2)
        # The memo hit means run() never simulates again.
        monkeypatch.setattr(runner, "run_trace", _no_simulation)
        loaded = fresh.run("swaptions", spec)
        assert loaded.system == rec.system
        assert loaded.energy == rec.energy
        assert fresh.error("swaptions", dopp_spec(14, 0.25)) == 0.125
        assert fresh.error("swaptions", FSPEC) == 0.25
        # Loading twice adopts nothing new.
        assert fresh.resume() == (0, 0)
        fresh.store.close()

    def test_rows_under_other_knobs_are_not_adopted(self, tmp_path):
        path = tmp_path / "history.db"
        sha = "a" * 40
        writer = self._fresh()
        with self._attach(writer, path, sha=sha):
            writer.remember_error("swaptions", dopp_spec(14, 0.25), 0.5)
        for knobs, reader_sha in (
            ({"seed": SEED + 1}, sha),
            ({"scale": SCALE * 2}, sha),
            ({"engine": "reference"}, sha),
            ({}, "b" * 40),
            ({}, sha),
        ):
            reader = self._fresh(**knobs)
            with self._attach(reader, path, sha=reader_sha):
                adopted = reader.resume()
            assert adopted == ((0, 1) if not knobs and reader_sha == sha
                               else (0, 0)), (knobs, reader_sha)

    def test_corrupt_entry_is_skipped(self, tmp_path, repro_warnings):
        path = tmp_path / "history.db"
        writer = self._fresh()
        with self._attach(writer, path):
            writer.remember_error("swaptions", dopp_spec(14, 0.25), 0.5)
        with contextlib.closing(sqlite3.connect(path)) as conn:
            conn.execute(
                "INSERT INTO memo (kind, workload, digest, seed, scale, "
                "engine, run_id, payload) VALUES ('run', 'swaptions', "
                "'deadbeefdeadbeef', ?, ?, 'batched', ?, ?)",
                (SEED, SCALE, writer.run_id, b"truncated garbage"),
            )
            conn.commit()
        fresh = self._fresh()
        with self._attach(fresh, path):
            assert fresh.resume() == (0, 1)
        assert len([m for m in repro_warnings if "unreadable" in m]) == 1

    def test_record_with_other_fields_is_recomputed(
        self, swaptions_ctx, tmp_path, repro_warnings
    ):
        """A record pickled by other code is skipped, not adopted.

        Outside a git checkout every run's SHA is NULL, so rows of
        other code pass the SHA check; the record's field check is what
        keeps them out.
        """
        path = tmp_path / "history.db"
        spec = baseline_spec()
        fresh_record = swaptions_ctx.run("swaptions", spec)
        stale = copy.copy(fresh_record)
        del stale.llc_stats
        writer = _fork_ctx(swaptions_ctx)
        with self._attach(writer, path):
            writer.remember_run("swaptions", spec, stale)
        reader = _fork_ctx(swaptions_ctx)
        with self._attach(reader, path):
            assert reader.resume() == (0, 0)
            record = reader.run("swaptions", spec)
        assert len([m for m in repro_warnings if "unreadable" in m]) == 1
        assert record.system == fresh_record.system
        assert record.llc_stats == fresh_record.llc_stats

    def test_entries_outside_the_context_are_ignored(self, tmp_path):
        path = tmp_path / "history.db"
        writer = self._fresh(workloads=["kmeans"])
        with self._attach(writer, path):
            writer.remember_error("kmeans", dopp_spec(14, 0.25), 0.5)
        fresh = self._fresh()
        with self._attach(fresh, path):
            assert fresh.resume() == (0, 0)

    def test_memo_entries_are_journaled(self, swaptions_ctx, tmp_path):
        """Every result entering the memo is committed, under any jobs."""
        path = tmp_path / "history.db"
        pairs = [("swaptions", baseline_spec())]
        errors = [("swaptions", dopp_spec(14, 0.25))]
        for jobs in (1, 2):
            ctx = _fork_ctx(swaptions_ctx)
            with self._attach(ctx, path) as store:
                if jobs == 1:
                    ctx.run(*pairs[0])
                    ctx.error(*errors[0])
                else:
                    prefetch_pairs(ctx, pairs, errors, jobs=jobs)
                _, rows = store.query(
                    "SELECT kind FROM memo WHERE run_id = ? ORDER BY kind",
                    (ctx.run_id,),
                )
            assert rows == [("error",), ("run",)], jobs

    def test_failed_memo_write_warns_once(
        self, swaptions_ctx, tmp_path, monkeypatch, repro_warnings
    ):
        """A store that fails mid-run costs resumability, not the run."""
        plain = run_strategies(["fig10"], ctx=_fork_ctx(swaptions_ctx))
        writes = []

        def locked(self, *args, **kwargs):
            writes.append(args)
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(RunStore, "remember", locked)
        path = str(tmp_path / "history.db")
        result = run_strategies(
            ["fig10"], ctx=_fork_ctx(swaptions_ctx),
            store_path=path, record_history=True,
        )
        assert len(writes) == 1
        assert len([m for m in repro_warnings if "memo writes" in m]) == 1
        assert {k: t.to_dict() for k, t in result.tables["fig10"].items()} == {
            k: t.to_dict() for k, t in plain.tables["fig10"].items()
        }
        with RunStore(path) as store:
            (run,) = store.list_runs()
            _, [(memo,)] = store.query("SELECT COUNT(*) FROM memo")
        assert run["finished"] == 1
        assert run["results"] == len(plain.ctx.run_summaries())
        assert memo == 0
        # The driver detached the closed store from the context.
        assert result.ctx.store is None


class TestSequentialCheckpoint:
    """The store-backed memo under ``--jobs 1`` (no prefetch)."""

    @staticmethod
    def _cli(tmp_path, store, *extra):
        return [
            "table2", "--scale", "0.02", "--seed", str(SEED),
            "--workloads", "kmeans", "--jobs", "1",
            "--store", str(store),
            "--json-out", str(tmp_path / "json"), *extra,
        ]

    def test_jobs1_journals_and_resumes(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        store = tmp_path / "history.db"
        assert main(self._cli(tmp_path, store)) == 0
        with RunStore(str(store)) as recorded:
            _, rows = recorded.query("SELECT kind, workload FROM memo")
        assert rows == [("run", "kmeans")]
        first = json.loads((tmp_path / "json" / "table2.json").read_text())
        capsys.readouterr()

        monkeypatch.setattr(runner, "run_trace", _no_simulation)
        assert main(self._cli(tmp_path, store, "--resume")) == 0
        assert "[resumed 1 runs and 0 errors" in capsys.readouterr().out
        resumed = json.loads((tmp_path / "json" / "table2.json").read_text())
        assert resumed == first

    def test_file_path_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--resume`` against a store path that cannot be opened."""
        from repro.cli import main

        monkeypatch.setattr(runner, "run_trace", _no_simulation)
        store = tmp_path / "not-a-database"
        store.mkdir()
        assert main(self._cli(tmp_path, store, "--resume")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(store) in err
        assert "Traceback" not in err

    def test_resume_without_store_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(self._cli(tmp_path, tmp_path / "h.db", "--resume", "--no-store"))
        assert excinfo.value.code == 2
        assert "--no-store" in capsys.readouterr().err
        with pytest.raises(ConfigError):
            run_strategies(["table2"], resume=True)


class TestKillAndResume:
    """End-to-end: a SIGKILLed sweep resumes byte-identically."""

    WORKLOADS = ["swaptions", "kmeans", "blackscholes"]

    def _cli(self, tmp_path, json_dir, extra):
        return [
            sys.executable, "-m", "repro.cli", "headline",
            "--workloads", *self.WORKLOADS,
            "--scale", str(SCALE), "--seed", str(SEED),
            "--out", str(tmp_path / "tables"),
            "--json-out", str(json_dir),
        ] + extra

    @staticmethod
    def _env():
        env = os.environ.copy()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return env

    @staticmethod
    def _bench_runs(json_dir):
        with open(os.path.join(json_dir, "BENCH_obs.json")) as fh:
            return _strip(json.load(fh)["runs"])

    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path, memo_rows):
        env = self._env()
        store = tmp_path / "history.db"

        # Run 1: parallel sweep, SIGKILLed once the store's memo has
        # its first completed result.
        proc = subprocess.Popen(
            self._cli(
                tmp_path, tmp_path / "json_killed",
                ["--jobs", "2", "--store", str(store)],
            ),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if memo_rows(store) or proc.poll() is not None:
                break
            time.sleep(0.05)
        interrupted = proc.poll() is None
        if interrupted:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        # Run 2: resume from the same store.
        resumed = subprocess.run(
            self._cli(
                tmp_path, tmp_path / "json_resumed",
                ["--jobs", "2", "--store", str(store), "--resume"],
            ),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "[resumed" in resumed.stdout
        if interrupted:
            # The kill landed mid-sweep: the memo held a strict
            # subset, so the resume both loaded and computed records.
            assert memo_rows(store)

        # Run 3: the same sweep uninterrupted, in a store of its own.
        clean = subprocess.run(
            self._cli(tmp_path, tmp_path / "json_clean", ["--jobs", "2"]),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert clean.returncode == 0, clean.stderr

        assert self._bench_runs(tmp_path / "json_resumed") == self._bench_runs(
            tmp_path / "json_clean"
        )
