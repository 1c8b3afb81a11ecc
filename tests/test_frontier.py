"""Tests for the energy/fault frontier: voltage ladder, controller,
store-backed resume, and the ``frontier`` experiment end-to-end.

Unit tests drive the :class:`ErrorBudgetController` with synthetic
error curves (no simulation) to pin the bracketing search, graceful
degradation, hysteresis and eval caps. In-process tests resume a
search from a history store missing its last probe's memo rows and
rerun one into a used store. The integration test SIGKILLs a real
``repro frontier`` CLI run mid-search and asserts the resumed run
reproduces an uninterrupted one byte-identically, with the
controller's decisions recorded in the run-history store.
"""

import contextlib
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigError
from repro.resilience.controller import (
    ErrorBudgetController,
    FrontierOptions,
    FrontierResult,
)
from repro.resilience.energy import (
    MIN_READ_RATE,
    P_BIT_NOM,
    V_MIN,
    V_NOM,
    dynamic_scale,
    energy_saved_fraction,
    leakage_scale,
    p_bit,
    read_rate,
    voltage_ladder,
)
from repro.resilience.faults import FaultConfig

SEED = 3
SCALE = 0.05


# --------------------------------------------------------------- ladder


class TestVoltageLadder:
    def test_nominal_step_is_fault_free(self):
        ladder = voltage_ladder(8)
        step0 = ladder[0]
        assert step0.index == 0
        assert step0.vdd == V_NOM
        assert step0.read_rate == 0.0
        assert step0.fault_config(11) is None
        assert step0.dynamic_scale == 1.0
        assert step0.leakage_scale == 1.0

    def test_monotone_structure(self):
        """Vdd strictly falls; rate and energy scales are monotone —
        the invariants the controller's bracketing relies on."""
        ladder = voltage_ladder(8)
        assert len(ladder) == 8
        assert ladder[-1].vdd == V_MIN
        for prev, cur in zip(ladder, ladder[1:]):
            assert cur.vdd < prev.vdd
            assert cur.read_rate >= prev.read_rate
            assert cur.dynamic_scale < prev.dynamic_scale
            assert cur.leakage_scale < prev.leakage_scale

    def test_scaled_steps_have_fault_configs(self):
        ladder = voltage_ladder(8)
        for step in ladder[1:]:
            if step.read_rate == 0.0:
                continue
            cfg = step.fault_config(11, ("approx_data",))
            assert isinstance(cfg, FaultConfig)
            assert cfg.seed == 11
            assert cfg.read_rate == step.read_rate
            assert cfg.flip_bits >= 1
            assert cfg.targets == ("approx_data",)

    def test_physics(self):
        assert p_bit(V_NOM) == P_BIT_NOM
        assert p_bit(V_NOM + 0.1) == P_BIT_NOM  # no credit above nominal
        # One decade per 0.06 V of droop.
        assert p_bit(V_NOM - 0.06) == pytest.approx(1e-8)
        assert p_bit(V_NOM - 0.12) == pytest.approx(1e-7)
        assert p_bit(0.0) == 1.0  # clamped
        # Word rate floors to exactly zero near nominal.
        assert read_rate(V_NOM) == 0.0
        rate = read_rate(0.7)
        assert MIN_READ_RATE <= rate < 1.0
        assert dynamic_scale(0.5) == pytest.approx(0.25)
        assert leakage_scale(0.5) == pytest.approx(0.5)

    def test_validation_names_field(self):
        with pytest.raises(ConfigError) as exc:
            voltage_ladder(1)
        assert exc.value.field == "voltage_steps"
        with pytest.raises(ConfigError) as exc:
            voltage_ladder(4, v_nom=0.8, v_min=0.9)
        assert exc.value.field == "voltage_steps"


class TestFrontierOptions:
    def test_from_mapping_defaults_and_unknown_keys(self):
        opts = FrontierOptions.from_mapping(
            {"error_budget": 0.2, "unrelated_knob": 5, "max_evals": None}
        )
        assert opts.error_budget == 0.2
        assert opts.max_evals == FrontierOptions().max_evals
        assert FrontierOptions.from_mapping(None) == FrontierOptions()

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"error_budget": 0.0}, "error_budget"),
            ({"error_budget": 1.5}, "error_budget"),
            ({"voltage_steps": 1}, "voltage_steps"),
            ({"hysteresis": -1}, "hysteresis"),
            ({"max_evals": 1}, "max_evals"),
            ({"targets": ("bogus",)}, "targets"),
        ],
    )
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(ConfigError) as exc:
            FrontierOptions(**kwargs)
        assert exc.value.field == field

    def test_roundtrip(self):
        opts = FrontierOptions(error_budget=0.3, voltage_steps=6)
        assert FrontierOptions.from_mapping(opts.to_dict()) == opts


# ----------------------------------------------------------- controller


def _drive(controller, error_of_step, energy_of_step=None):
    """Run a controller against a synthetic error curve to completion."""
    probes = []
    while (step := controller.pending_step()) is not None:
        probes.append(step.index)
        controller.observe(
            step.index,
            error=error_of_step(step.index),
            energy_saved=(
                energy_of_step(step.index) if energy_of_step else 0.1
            ),
        )
    return probes, controller.result()


def _collect(events):
    """An ``emit(kind, **fields)`` callable appending event dicts."""
    return lambda kind, **fields: events.append({"kind": kind, **fields})


class TestErrorBudgetController:
    LADDER = voltage_ladder(8)

    def _controller(self, budget=0.1, **kwargs):
        opts = FrontierOptions(error_budget=budget, **kwargs)
        return ErrorBudgetController("w", self.LADDER, opts)

    def test_bisection_converges_on_threshold(self):
        """Error steps over budget at index 5: frontier must be 4."""
        probes, res = _drive(
            self._controller(), lambda i: 0.05 if i <= 4 else 0.5
        )
        assert probes[0] == 0  # nominal verified first
        assert res.frontier == 4
        assert res.converged and res.degraded is None
        assert res.status == "converged"
        # log2(8) bisection: far fewer probes than the ladder.
        assert len(probes) <= 5
        assert res.operating == 3  # default hysteresis backs off 1 step

    def test_all_within_budget(self):
        probes, res = _drive(self._controller(), lambda i: 0.01)
        assert res.frontier == len(self.LADDER) - 1
        assert res.converged

    def test_precise_fallback_when_nominal_fails(self):
        """Inherent approximation error over budget -> precise mode."""
        events = []
        opts = FrontierOptions(error_budget=0.1)
        ctrl = ErrorBudgetController(
            "w", self.LADDER, opts, emit=_collect(events)
        )
        probes, res = _drive(ctrl, lambda i: 0.9)
        assert probes == [0]
        assert res.degraded == "precise"
        assert res.status == "precise"
        assert res.frontier == -1 and res.operating == -1
        assert res.survivable_rate == 0.0
        assert res.frontier_energy_saved == 0.0
        kinds = [ev["kind"] for ev in events]
        assert kinds == [
            "controller_step", "controller_degrade", "controller_converged",
        ]
        assert events[1]["action"] == "precise_fallback"

    def test_degrade_raises_voltage(self):
        """A failed scaled probe narrows hi: next probe is higher Vdd."""
        events = []
        ctrl = ErrorBudgetController(
            "w", self.LADDER, FrontierOptions(error_budget=0.1),
            emit=_collect(events),
        )
        probes, _ = _drive(ctrl, lambda i: 0.05 if i <= 2 else 0.5)
        over = probes.index(4)  # first mid-bracket probe fails
        assert probes[over + 1] < probes[over]  # voltage stepped back up
        degrades = [e for e in events if e["kind"] == "controller_degrade"]
        assert degrades and all(
            e["action"] == "raise_voltage" for e in degrades
        )

    def test_eval_cap_finalizes_without_convergence(self):
        probes, res = _drive(
            self._controller(max_evals=2), lambda i: 0.05 if i <= 4 else 0.5
        )
        assert len(probes) == 2
        assert not res.converged
        assert res.status == "eval-capped"
        assert res.frontier >= 0  # best verified step, not a guess

    def test_hysteresis_zero_operates_on_frontier(self):
        _, res = _drive(
            self._controller(hysteresis=0), lambda i: 0.05 if i <= 4 else 0.5
        )
        assert res.operating == res.frontier

    def test_result_properties_track_frontier_eval(self):
        _, res = _drive(
            self._controller(),
            lambda i: 0.05 if i <= 4 else 0.5,
            energy_of_step=lambda i: i / 10.0,
        )
        assert isinstance(res, FrontierResult)
        assert res.frontier_error == 0.05
        assert res.frontier_energy_saved == pytest.approx(0.4)
        assert res.survivable_rate == self.LADDER[4].read_rate


class TestControllerCheckpoint:
    """A recorded search resumes from the store's memo alone: it
    restarts at step 0 and re-walks its bracket through memo hits."""

    OPTIONS = {"error_budget": 0.25, "voltage_steps": 6}

    def _search(self, **kwargs):
        from repro.harness.strategy import run_strategies

        return run_strategies(
            ["frontier"], workloads=["canneal"], seed=SEED, scale=SCALE,
            strategy_options=self.OPTIONS, **kwargs,
        )

    @staticmethod
    def _tables(result):
        return {
            key: table.to_dict()
            for key, table in result.tables["frontier"].items()
        }

    @staticmethod
    def _decisions(result):
        return [
            (event["kind"], event.get("step"))
            for event in result.ctx.events
        ]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """A plain search, then two recorded into one store (no resume)."""
        store = tmp_path_factory.mktemp("frontier") / "history.db"
        plain = self._search()
        first = self._search(store_path=str(store), record_history=True)
        second = self._search(store_path=str(store), record_history=True)
        return plain, first, second, store

    @pytest.fixture(scope="class")
    def resumed(self, runs, tmp_path_factory):
        """Resume from a store that lacks the last probe's memo rows, as
        a kill during that probe leaves it; record every simulation."""
        from repro.harness.frontier import _step_spec
        from repro.harness.runner import ExperimentContext
        from repro.obs.store import config_digest

        plain, _, _, store = runs
        partial = tmp_path_factory.mktemp("partial") / "history.db"
        options = FrontierOptions.from_mapping(self.OPTIONS)
        steps = [e["step"] for e in plain.ctx.events
                 if e["kind"] == "controller_step"]
        spec = _step_spec(voltage_ladder(6)[steps[-1]], options)
        digest = config_digest({"workload": "canneal", "spec": spec.to_dict()})
        with contextlib.closing(sqlite3.connect(store)) as src, \
                contextlib.closing(sqlite3.connect(partial)) as conn:
            src.backup(conn)
            deleted = conn.execute(
                "DELETE FROM memo WHERE workload = 'canneal' AND digest = ?",
                (digest,),
            ).rowcount
            conn.commit()
        assert deleted == 2  # the probe's run and error rows

        simulated = []
        real_simulate = ExperimentContext._simulate

        def counting(self, name, spec, trace):
            simulated.append((name, spec))
            return real_simulate(self, name, spec, trace)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ExperimentContext, "_simulate", counting)
            result = self._search(
                store_path=str(partial), record_history=True, resume=True
            )
        return steps, spec, simulated, result

    def test_rerun_without_resume_repeats_the_search(self, runs):
        plain, first, second, store = runs

        def strip(rows):
            return [
                {k: v for k, v in row.items()
                 if k not in ("sim_wall_s", "accesses_per_sec")}
                for row in rows
            ]

        assert strip(first.ctx.run_summaries())
        assert strip(second.ctx.run_summaries()) == strip(
            first.ctx.run_summaries()
        )
        assert self._tables(second) == self._tables(plain)
        assert not (store.parent / "frontier").exists()

    def test_resume_mid_bracket_is_byte_identical(self, runs, resumed):
        plain = runs[0]
        steps, spec, simulated, result = resumed
        assert len(steps) > 1  # the killed probe is not the first one
        # Only the probe the store lacks is simulated again...
        assert simulated == [("canneal", spec)]
        # ...and the search ends where the uninterrupted one did.
        assert self._tables(result) == self._tables(plain)

    def test_resume_replays_events_for_restored_evals(self, runs, resumed):
        """The resumed run's event log carries the full history, even
        for decisions made before the kill."""
        plain = runs[0]
        steps, _, _, result = resumed
        assert self._decisions(result) == self._decisions(plain)
        replayed = [step for kind, step in self._decisions(result)
                    if kind == "controller_step"]
        assert replayed == steps


# ------------------------------------------------- FaultConfig.from_dict


class TestFaultConfigFromDict:
    def test_roundtrip(self):
        cfg = FaultConfig(
            seed=7, read_rate=1e-3, flip_bits=2,
            burst_rate=1e-4, burst_len=3, stuck_bits=1,
            targets=("dram", "approx_data"),
        )
        assert FaultConfig.from_dict(cfg.to_dict()) == cfg

    def test_missing_fields_take_defaults(self):
        cfg = FaultConfig.from_dict({"read_rate": 0.5})
        assert cfg.read_rate == 0.5
        assert cfg.flip_bits == FaultConfig().flip_bits

    @pytest.mark.parametrize(
        "data,field",
        [
            ("nope", "faults"),
            ({"read_rat": 0.5}, "read_rat"),
            ({"read_rate": "lots"}, "read_rate"),
            ({"flip_bits": "two"}, "flip_bits"),
            ({"targets": "dram"}, "targets"),
            ({"targets": 7}, "targets"),
            ({"read_rate": 2.0}, "read_rate"),  # range, via __post_init__
        ],
    )
    def test_errors_name_offending_field(self, data, field):
        with pytest.raises(ConfigError) as exc:
            FaultConfig.from_dict(data)
        assert exc.value.field == field


# ---------------------------------------------------------- integration


def _strip_tables(path):
    """Frontier tables from a BENCH json dir, wall-clock fields gone."""
    with open(os.path.join(path, "frontier.json")) as fh:
        return json.load(fh)["tables"]


class TestFrontierKillAndResume:
    """A SIGKILLed frontier search resumes mid-bracket, byte-identical."""

    def _cli(self, tmp_path, json_dir, extra):
        return [
            sys.executable, "-m", "repro.cli", "frontier",
            "--workloads", "canneal",
            "--scale", str(SCALE), "--seed", str(SEED),
            "--error-budget", "0.25", "--voltage-steps", "6",
            "--out", str(tmp_path / "tables"),
            "--json-out", str(json_dir),
        ] + extra

    @staticmethod
    def _env():
        env = os.environ.copy()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env["PYTHONPATH"] = (
            os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        return env

    def test_sigkilled_search_resumes_byte_identical(self, tmp_path, memo_rows):
        env = self._env()
        store = tmp_path / "history.db"

        # Run 1: SIGKILLed once the first probe hit the store's memo.
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

        # Run 2: resume, recording into the same store.
        resumed = subprocess.run(
            self._cli(
                tmp_path, tmp_path / "json_resumed",
                ["--jobs", "2", "--resume", "--store", str(store)],
            ),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "[resumed" in resumed.stdout
        if interrupted:
            assert memo_rows(store)

        # Run 3: the same search uninterrupted, in a store of its own.
        clean = subprocess.run(
            self._cli(tmp_path, tmp_path / "json_clean", []),
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert clean.returncode == 0, clean.stderr

        assert _strip_tables(tmp_path / "json_resumed") == _strip_tables(
            tmp_path / "json_clean"
        )

        # Controller decisions landed in the history store as events.
        with sqlite3.connect(store) as conn:
            kinds = {
                row[0]
                for row in conn.execute("SELECT DISTINCT kind FROM events")
            }
        assert "controller_step" in kinds
        assert "controller_converged" in kinds


class TestFrontierEndToEnd:
    """In-process frontier run: Pareto tables and energy credits."""

    def test_energy_saved_fraction_positive_for_scaled_step(self):
        from repro.harness.runner import ExperimentContext, dopp_spec

        ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=["canneal"])
        record = ctx.run("canneal", dopp_spec(14, 0.25))
        ladder = voltage_ladder(6)
        assert energy_saved_fraction(record, ladder[0]) == 0.0
        saved = energy_saved_fraction(record, ladder[-1])
        assert 0.0 < saved < 1.0
        # More droop, more credit.
        assert saved > energy_saved_fraction(record, ladder[1])

    def test_frontier_strategy_tables(self):
        from repro.harness.strategy import run_strategies

        results = run_strategies(
            ["frontier"], workloads=["canneal"], seed=SEED, scale=SCALE,
            strategy_options={"error_budget": 0.25, "voltage_steps": 6},
        )
        tables = results.tables["frontier"]
        main = tables[""]
        assert main.headers[0] == "workload"
        (row,) = main.rows
        assert row[0] == "canneal"
        assert row[-1] in ("converged", "eval-capped", "precise")
        points = tables["points"]
        assert {r[0] for r in points.rows} == {"canneal"}
        # Step 0 (nominal) is always probed.
        assert 0 in {r[1] for r in points.rows}
