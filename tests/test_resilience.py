"""Tests for the resilience layer (``docs/robustness.md``).

Covers the three pillars of the layer: deterministic fault injection
(same config + seed => identical results across runs, engines and job
counts), graceful engine degradation (batched failure falls back to
the reference interpreter with an observable event), and harness
recovery (worker timeouts/deaths retried in a fresh pool; interrupted
sweeps resume from an on-disk journal byte-identically).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.engine.batched as batched
import repro.harness.parallel as parallel
from repro.engine import ENGINES
from repro.errors import ConfigError, SimulationFault
from repro.harness.parallel import prefetch_pairs
from repro.harness.runner import (
    ExperimentContext,
    baseline_spec,
    dopp_spec,
)
from repro.obs import EVENT_ENGINE_FALLBACK, EVENT_WORKER_RETRY, Observability
from repro.resilience.checkpoint import (
    context_fingerprint,
    open_journal,
    spec_digest,
)
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


class _KindSink:
    """Event sink keeping only the kinds under test (the ring would
    evict them under the flood of per-access protocol events)."""

    def __init__(self, *kinds):
        self.kinds = kinds
        self.events = []

    def emit(self, event):
        if event.kind in self.kinds:
            self.events.append(event)


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
        metrics = inj.as_metrics()
        assert metrics["llc.reads"] == 1


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
    def test_batched_failure_falls_back_to_reference(
        self, swaptions_ctx, monkeypatch
    ):
        def boom(system, trace):
            raise RuntimeError("synthetic batched-path failure")

        monkeypatch.setattr(batched, "_FAIL_HOOK", boom)
        obs = Observability(enabled=True)
        sink = _KindSink(EVENT_ENGINE_FALLBACK)
        obs.tracer.add_sink(sink)
        ctx = _fork_ctx(swaptions_ctx, obs=obs)
        rec = ctx.run("swaptions", baseline_spec())
        assert rec.engine_used == "reference"
        assert rec.to_dict()["engine_used"] == "reference"
        # Bit-identical to the healthy batched run (engine equivalence).
        healthy = swaptions_ctx.run("swaptions", baseline_spec())
        assert rec.system == healthy.system
        assert rec.energy == healthy.energy
        assert len(sink.events) == 1
        ev = sink.events[0]
        assert ev.fields["workload"] == "swaptions"
        assert "synthetic batched-path failure" in ev.fields["error"]

    def test_explicit_reference_engine_failure_raises(
        self, swaptions_ctx, monkeypatch
    ):
        def boom_engine(system, trace, limit=None):
            raise RuntimeError("reference down")

        monkeypatch.setitem(ENGINES, "reference", boom_engine)
        ctx = _fork_ctx(swaptions_ctx, engine="reference")
        with pytest.raises(SimulationFault) as excinfo:
            ctx.run("swaptions", baseline_spec())
        assert excinfo.value.exit_code == 4
        assert "reference engine failed" in str(excinfo.value)
        assert "swaptions" in str(excinfo.value)

    def test_both_engines_failing_raises(self, swaptions_ctx, monkeypatch):
        def hook(system, trace):
            raise RuntimeError("batched down")

        def boom_engine(system, trace, limit=None):
            raise RuntimeError("reference down")

        monkeypatch.setattr(batched, "_FAIL_HOOK", hook)
        monkeypatch.setitem(ENGINES, "reference", boom_engine)
        ctx = _fork_ctx(swaptions_ctx)
        with pytest.raises(SimulationFault) as excinfo:
            ctx.run("swaptions", baseline_spec())
        assert "both engines" in str(excinfo.value)
        assert excinfo.value.exit_code == 4


# ---------------------------------------------------------------- parallel
# Worker fakes must be module-level: the pool pickles them by qualified
# name (the fork start method re-resolves them in the child).

def _sleepy_task(task):
    time.sleep(300)


def _dying_task(task):
    os._exit(17)


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


class TestCheckpoint:
    def test_journal_roundtrip_skips_recompute(self, swaptions_ctx, tmp_path):
        journal = open_journal(str(tmp_path / "ckpt"), swaptions_ctx)
        spec = baseline_spec()
        rec = swaptions_ctx.run("swaptions", spec)
        journal.record_run("swaptions", spec, rec)
        journal.record_error("swaptions", dopp_spec(14, 0.25), 0.125)

        fresh = ExperimentContext(
            seed=SEED, scale=SCALE, workloads=["swaptions"]
        )
        resumed = open_journal(str(tmp_path / "ckpt"), fresh)
        assert resumed.load_into(fresh) == (1, 1)
        # The memo hit means run() never simulates again.
        loaded = fresh.run("swaptions", spec)
        assert loaded.system == rec.system
        assert loaded.energy == rec.energy
        assert fresh._errors[("swaptions", dopp_spec(14, 0.25))] == 0.125
        # Loading twice adopts nothing new.
        assert resumed.load_into(fresh) == (0, 0)

    def test_meta_mismatch_is_a_config_error(self, swaptions_ctx, tmp_path):
        directory = str(tmp_path / "ckpt")
        journal = open_journal(directory, swaptions_ctx)
        journal.record_error("swaptions", dopp_spec(14, 0.25), 0.5)
        other = ExperimentContext(
            seed=SEED + 1, scale=SCALE, workloads=["swaptions"]
        )
        with pytest.raises(ConfigError) as excinfo:
            open_journal(directory, other)
        assert excinfo.value.exit_code == 2
        assert "checkpoint" in str(excinfo.value)

    def test_corrupt_entry_is_skipped(self, swaptions_ctx, tmp_path):
        directory = tmp_path / "ckpt"
        journal = open_journal(str(directory), swaptions_ctx)
        journal.record_error("swaptions", dopp_spec(14, 0.25), 0.5)
        (directory / "run-swaptions-deadbeefdeadbeef.pkl").write_bytes(
            b"truncated garbage"
        )
        fresh = ExperimentContext(
            seed=SEED, scale=SCALE, workloads=["swaptions"]
        )
        assert open_journal(str(directory), fresh).load_into(fresh) == (0, 1)

    def test_entries_outside_the_context_are_ignored(
        self, swaptions_ctx, tmp_path
    ):
        directory = str(tmp_path / "ckpt")
        journal = open_journal(directory, swaptions_ctx)
        journal.record_error("kmeans", dopp_spec(14, 0.25), 0.5)
        fresh = ExperimentContext(
            seed=SEED, scale=SCALE, workloads=["swaptions"]
        )
        assert open_journal(directory, fresh).load_into(fresh) == (0, 0)

    def test_fingerprint_and_digest_are_stable(self, swaptions_ctx):
        fp = context_fingerprint(swaptions_ctx)
        assert fp["seed"] == SEED and fp["scale"] == SCALE
        assert fp["engine"] == "default"
        d1 = spec_digest("swaptions", FSPEC)
        assert d1 == spec_digest("swaptions", FSPEC)
        assert d1 != spec_digest("kmeans", FSPEC)
        assert d1 != spec_digest("swaptions", dopp_spec(14, 0.25))

    def test_open_journal_disabled_without_directory(self, swaptions_ctx):
        assert open_journal("", swaptions_ctx) is None
        assert open_journal(None, swaptions_ctx) is None

    def test_existing_file_is_a_config_error(self, swaptions_ctx, tmp_path):
        path = tmp_path / "ckpt.zip"  # e.g. a container from an old build
        path.write_bytes(b"PK not a directory")
        with pytest.raises(ConfigError) as excinfo:
            open_journal(str(path), swaptions_ctx)
        assert excinfo.value.exit_code == 2
        assert str(path) in str(excinfo.value)

    def test_memo_entries_are_journaled(self, swaptions_ctx, tmp_path):
        ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
        ctx.journal = open_journal(str(tmp_path / "ckpt"), ctx)
        record = swaptions_ctx.run("swaptions", baseline_spec())
        ctx.remember_run("swaptions", baseline_spec(), record)
        ctx.remember_error("swaptions", dopp_spec(14, 0.25), 0.25)
        fresh = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
        assert ctx.journal.load_into(fresh) == (1, 1)


class TestSequentialCheckpoint:
    """``--checkpoint-dir`` under ``--jobs 1`` (no prefetch)."""

    @staticmethod
    def _cli(tmp_path, ckpt, *extra):
        return [
            "table2", "--scale", "0.02", "--seed", str(SEED),
            "--workloads", "kmeans", "--jobs", "1",
            "--checkpoint-dir", str(ckpt),
            "--json-out", str(tmp_path / "json"), "--no-store", *extra,
        ]

    def test_jobs1_journals_and_resumes(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = tmp_path / "ck"
        assert main(self._cli(tmp_path, ckpt)) == 0
        assert len(glob.glob(str(ckpt / "run-kmeans-*.pkl"))) == 1
        first = json.loads((tmp_path / "json" / "table2.json").read_text())
        capsys.readouterr()

        assert main(self._cli(tmp_path, ckpt, "--resume")) == 0
        assert "[resumed 1 runs and 0 errors" in capsys.readouterr().out
        resumed = json.loads((tmp_path / "json" / "table2.json").read_text())
        assert resumed == first

    def test_file_path_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated despite a bad --checkpoint-dir")

        monkeypatch.setattr(ExperimentContext, "_simulate", no_simulation)
        ckpt = tmp_path / "ck"
        ckpt.write_text("not a directory")
        assert main(self._cli(tmp_path, ckpt)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(ckpt) in err
        assert "Traceback" not in err


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

    def test_sigkilled_sweep_resumes_byte_identical(self, tmp_path):
        env = self._env()
        ckpt = tmp_path / "ckpt"

        # Run 1: parallel sweep, SIGKILLed once the journal has its
        # first completed record.
        proc = subprocess.Popen(
            self._cli(
                tmp_path, tmp_path / "json_killed",
                ["--jobs", "2", "--checkpoint-dir", str(ckpt)],
            ),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if glob.glob(str(ckpt / "*.pkl")) or proc.poll() is not None:
                break
            time.sleep(0.05)
        interrupted = proc.poll() is None
        if interrupted:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)

        # Run 2: resume against the same journal.
        resumed = subprocess.run(
            self._cli(
                tmp_path, tmp_path / "json_resumed",
                ["--jobs", "2", "--checkpoint-dir", str(ckpt), "--resume"],
            ),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "[resumed" in resumed.stdout
        if interrupted:
            # The kill landed mid-sweep: the journal held a strict
            # subset, so the resume both loaded and computed records.
            assert glob.glob(str(ckpt / "*.pkl"))

        # Run 3: the same sweep uninterrupted, no checkpointing.
        clean = subprocess.run(
            self._cli(tmp_path, tmp_path / "json_clean", ["--jobs", "2"]),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert clean.returncode == 0, clean.stderr

        assert self._bench_runs(tmp_path / "json_resumed") == self._bench_runs(
            tmp_path / "json_clean"
        )
