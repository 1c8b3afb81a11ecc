"""Tests for the ExperimentStrategy plugin API and its registry."""

import importlib
import json
import os
import sys

import pytest

import repro
from repro.errors import ConfigError, UnknownExperimentError
from repro.harness.experiments import (
    STRATEGIES,
    fig10_data_array,
    table2_approx_footprint,
)
from repro.harness.reporting import Table
from repro.harness.runner import (
    ExperimentContext,
    baseline_spec,
    dopp_spec,
)
from repro.harness.strategy import (
    ENTRY_POINT_GROUP,
    ExperimentStrategy,
    Requirements,
    StrategyRegistry,
    registry,
    run_strategies,
)

SEED = 3
SCALE = 0.05


class TinyStrategy(ExperimentStrategy):
    """Config-only strategy used across the registry tests."""

    name = "tiny"
    description = "a tiny test strategy"
    requires = Requirements(context=False)

    def __init__(self):
        self.calls = []

    def setup(self, ctx):
        self.calls.append("setup")

    def execute(self, ctx):
        self.calls.append("execute")
        table = Table("Tiny", ["k", "v"])
        table.add_row("answer", 42)
        return table

    def teardown(self, ctx):
        self.calls.append("teardown")

    def declare_metrics(self):
        return ("answers",)


class TestRegistry:
    def test_round_trip_register_discover_run(self):
        reg = StrategyRegistry()
        reg.register(TinyStrategy)
        strategy = reg.get("tiny")
        assert isinstance(strategy, TinyStrategy)
        result = run_strategies(["tiny"], strategy_registry=reg)
        assert strategy.calls == ["setup", "execute", "teardown"]
        assert result.outcomes[0].name == "tiny"
        assert result.outcomes[0].tables[""].to_dict()["rows"] == [["answer", 42]]
        assert result.ctx is None  # config-only: no context built

    def test_register_decorator_and_instance(self):
        reg = StrategyRegistry()

        @reg.register
        class Decorated(TinyStrategy):
            """Registered via decorator."""

            name = "decorated"

        instance = TinyStrategy()
        reg.register(instance)
        assert reg.names() == ["decorated", "tiny"]
        assert reg.get("tiny") is instance
        assert Decorated is not None  # decorator returns the class

    def test_duplicate_name_rejected(self):
        reg = StrategyRegistry()
        reg.register(TinyStrategy)
        with pytest.raises(ConfigError, match="already registered"):
            reg.register(TinyStrategy)

    def test_non_strategy_rejected(self):
        reg = StrategyRegistry()
        with pytest.raises(ConfigError, match="not an ExperimentStrategy"):
            reg.register(object())

    def test_unnamed_strategy_rejected(self):
        class NoName(TinyStrategy):
            """A strategy that forgot its name."""

            name = ""

        with pytest.raises(ConfigError, match="has no name"):
            StrategyRegistry().register(NoName)

    def test_unknown_lookup_is_typed(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            registry.get("fig99")
        err = excinfo.value
        assert err.exit_code == 2
        assert isinstance(err, ValueError)  # legacy except-ValueError works
        assert err.name == "fig99"
        assert "table2" in err.known

    def test_builtin_order_is_paper_order(self):
        # Deterministic, documented: STRATEGIES declaration order.
        names = registry.names()
        declared = [cls.name for cls in STRATEGIES]
        assert names[: len(declared)] == declared
        # And it matches what the public helper reports.
        assert repro.experiment_names() == names

    def test_discovery_is_deterministic(self):
        builds = [
            StrategyRegistry(
                builtin_modules=("repro.harness.experiments",)
            ).names()
            for _ in range(2)
        ]
        assert builds[0] == builds[1]

    def test_registry_table_lists_everything(self):
        table = registry.table()
        rendered = table.render()
        for name in registry.names():
            assert name in rendered
        assert "config-only" in rendered

    def test_contains_len_iter(self):
        reg = StrategyRegistry()
        reg.register(TinyStrategy)
        assert "tiny" in reg and "nope" not in reg
        assert len(reg) == 1
        assert [s.name for s in reg] == ["tiny"]


def _write_plugin_dist(directory):
    """A synthetic installed distribution advertising two strategies."""
    (directory / "myplug.py").write_text(
        "from repro.harness.strategy import ExperimentStrategy, Requirements\n"
        "from repro.harness.reporting import Table\n"
        "\n\n"
        "class DemoStrategy(ExperimentStrategy):\n"
        "    name = 'demo'\n"
        "    description = 'third-party demo'\n"
        "    requires = Requirements(context=False)\n"
        "\n"
        "    def execute(self, ctx):\n"
        "        table = Table('Demo', ['k', 'v'])\n"
        "        table.add_row('plugin', 1)\n"
        "        return table\n"
        "\n\n"
        "class ShadowStrategy(ExperimentStrategy):\n"
        "    name = 'table2'\n"
        "    description = 'tries to shadow a built-in'\n"
        "    requires = Requirements(context=False)\n"
        "\n"
        "    def execute(self, ctx):\n"
        "        return Table('Shadow', ['k'])\n"
    )
    info = directory / "demo_plug-0.1.dist-info"
    info.mkdir()
    (info / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: demo-plug\nVersion: 0.1\n"
    )
    (info / "entry_points.txt").write_text(
        f"[{ENTRY_POINT_GROUP}]\n"
        "demo = myplug:DemoStrategy\n"
        "shadow = myplug:ShadowStrategy\n"
        "broken = myplug_missing:Nope\n"
    )


@pytest.fixture
def plugin_dist(tmp_path):
    """Put a synthetic plugin distribution on sys.path, then clean up."""
    _write_plugin_dist(tmp_path)
    sys.path.insert(0, str(tmp_path))
    importlib.invalidate_caches()
    try:
        yield tmp_path
    finally:
        sys.path.remove(str(tmp_path))
        sys.modules.pop("myplug", None)
        importlib.invalidate_caches()


class TestEntryPointDiscovery:
    def test_plugin_discovered_and_runs(self, plugin_dist):
        reg = StrategyRegistry(
            builtin_modules=("repro.harness.experiments",),
            entry_point_group=ENTRY_POINT_GROUP,
        )
        with pytest.warns(RuntimeWarning) as caught:
            names = reg.names()
        assert "demo" in names
        # Built-ins come first; entry points are appended.
        assert names.index("demo") > names.index("faultsweep")
        result = run_strategies(["demo"], strategy_registry=reg)
        assert result.outcomes[0].tables[""].to_dict()["rows"] == [["plugin", 1]]
        messages = [str(w.message) for w in caught]
        # The broken entry point is skipped with a warning...
        assert any("failed to load" in m for m in messages)
        # ...and the built-in wins the name collision.
        assert any("shadows registered experiment" in m for m in messages)
        builtin = next(s for s in STRATEGIES if s.name == "table2")
        assert reg.get("table2") is builtin
        assert reg.get("table2").description != "tries to shadow a built-in"

    def test_discovery_disabled_without_group(self, plugin_dist):
        reg = StrategyRegistry(
            builtin_modules=("repro.harness.experiments",)
        )
        assert "demo" not in reg.names()


#: ``repro list`` output: the built-ins in paper order, then frontier.
LIST_OUTPUT = """\
fig02
table2
fig07
fig08
fig09
fig10
fig11
fig12
fig13
fig14
table3
headline
faultsweep
frontier
"""

#: ``repro experiments --list`` output, byte for byte.
REGISTRY_TABLE = """\
Registered experiments
======================
name                                                   description                             requirements
----------  ------------------------------------------------------  ---------------------------------------
fig02         storage savings vs element-wise similarity threshold                                  context
table2                 approximate fraction of LLC blocks vs paper                   context, 1 sim configs
fig07                approx data storage savings vs map space size                                  context
fig08             storage savings vs compression and deduplication                                  context
fig09              output error and normalized runtime vs map bits  context, 4 sim configs, 3 error configs
fig10       output error and normalized runtime vs data array size  context, 4 sim configs, 3 error configs
fig11                     LLC dynamic and leakage energy reduction                   context, 4 sim configs
fig12                           normalized off-chip memory traffic                   context, 4 sim configs
fig13                       LLC area reduction across both designs                              config-only
fig14            uniDoppelganger error, runtime and dynamic energy  context, 4 sim configs, 3 error configs
table3                per-structure size, area, latency and energy                              config-only
headline                  the abstract's headline claims, measured                   context, 2 sim configs
faultsweep          output quality and cost vs injected fault rate  context, 5 sim configs, 4 error configs
frontier    closed-loop max survivable fault rate per error budget  context, 2 sim configs, 1 error configs
  note: built-ins in declaration (paper) order, then 'repro.experiments' entry points sorted by name
"""


class TestListingPinned:
    """The listings the strategy registrations must reproduce exactly."""

    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert capsys.readouterr().out == LIST_OUTPUT

    def test_experiments_list(self, capsys):
        from repro.cli import main

        assert main(["experiments", "--list"]) == 0
        assert capsys.readouterr().out == REGISTRY_TABLE


class FanStrategy(ExperimentStrategy):
    """A sweep whose fan exists only in its metadata (no name checks)."""

    name = "fansweep"
    description = "metadata-driven fan for the jobs tests"
    requires = Requirements(
        run_specs=(baseline_spec(),)
        + tuple(dopp_spec(b, 0.25) for b in (12, 13, 14)),
        error_specs=tuple(dopp_spec(b, 0.25) for b in (12, 13, 14)),
    )

    def __init__(self):
        self.prefetched_runs = None
        self.prefetched_errors = None

    def execute(self, ctx):
        # Snapshot the memo BEFORE asking for anything: with --jobs
        # the prefetch must have filled it purely from ``requires``.
        self.prefetched_runs = set(ctx._runs)
        self.prefetched_errors = set(ctx._errors)
        table = Table("Fan", ["workload", "config", "cycles", "error"])
        for name in ctx.names:
            for spec in self.requires.run_specs:
                error = (
                    ctx.error(name, spec)
                    if spec in self.requires.error_specs
                    else None
                )
                table.add_row(
                    name, spec.label(), ctx.run(name, spec).system.cycles,
                    error,
                )
        return table


class TestJobsFromMetadata:
    def test_fan_split_driven_by_requirements(self):
        reg = StrategyRegistry()
        reg.register(FanStrategy)
        strategy = reg.get("fansweep")
        parallel = run_strategies(
            ["fansweep"],
            strategy_registry=reg,
            seed=SEED,
            scale=SCALE,
            workloads=["swaptions"],
            jobs=2,  # one workload, 4-config fan: exercises fan-splitting
        )
        # Every (workload, spec) pair the metadata declares was
        # prefetched before execute() ran.
        assert strategy.prefetched_runs == {
            ("swaptions", spec) for spec in FanStrategy.requires.run_specs
        }
        assert strategy.prefetched_errors == {
            ("swaptions", spec) for spec in FanStrategy.requires.error_specs
        }
        sequential = run_strategies(
            [FanStrategy()],
            seed=SEED,
            scale=SCALE,
            workloads=["swaptions"],
        )
        assert (
            parallel.outcomes[0].tables[""].to_dict()
            == sequential.outcomes[0].tables[""].to_dict()
        )

        def functional(summaries):
            # Wall-clock metrics legitimately differ across job counts.
            return [
                {
                    k: v
                    for k, v in row.items()
                    if k not in ("sim_wall_s", "accesses_per_sec")
                }
                for row in summaries
            ]

        assert functional(parallel.ctx.run_summaries()) == functional(
            sequential.ctx.run_summaries()
        )


class TestLegacyParity:
    def _ctx(self, workloads=("swaptions",)):
        return ExperimentContext(
            seed=SEED, scale=SCALE, workloads=list(workloads)
        )

    def test_table2_matches_driver(self, tmp_path):
        ctx = self._ctx()
        legacy = table2_approx_footprint(ctx)
        tables = repro.run_experiment(
            "table2", ctx=ctx, json_dir=str(tmp_path)
        )
        assert list(tables) == [""]
        assert tables[""].to_dict() == legacy.to_dict()
        self._check_bench_shape(tmp_path, "table2", ctx, ["main"])

    def test_fig10_matches_driver(self, tmp_path):
        ctx = self._ctx()
        legacy = fig10_data_array(ctx)
        tables = repro.run_experiment("fig10", ctx=ctx, json_dir=str(tmp_path))
        assert set(tables) == {"error", "runtime", "stats"}
        for key, table in legacy.items():
            assert tables[key].to_dict() == table.to_dict()
        self._check_bench_shape(
            tmp_path, "fig10", ctx, ["error", "runtime", "stats"]
        )

    def test_strategy_instance_accepted(self):
        tables = repro.run_experiment(TinyStrategy())
        assert tables[""].to_dict()["rows"] == [["answer", 42]]

    def test_strategy_class_accepted(self):
        tables = repro.run_experiment(TinyStrategy)
        assert tables[""].to_dict()["rows"] == [["answer", 42]]

    @staticmethod
    def _check_bench_shape(json_dir, name, ctx, table_keys):
        """BENCH_obs.json carries the same shape the CLI produces."""
        with open(os.path.join(str(json_dir), f"{name}.json")) as fh:
            payload = json.load(fh)
        assert payload["experiment"] == name
        assert sorted(payload["tables"]) == sorted(table_keys)
        with open(os.path.join(str(json_dir), "BENCH_obs.json")) as fh:
            bench = json.load(fh)
        assert name in bench["experiments"]
        assert sorted(bench["experiments"][name]["tables"]) == sorted(
            table_keys
        )
        assert bench["experiments"][name]["wall_s"] > 0
        assert bench["runs"] == ctx.run_summaries()
        assert bench["context"] == ctx.context_summary()


class TestCliIntegration:
    @pytest.fixture
    def registered_tiny(self):
        """Register TinyStrategy on the global registry, then remove it."""
        registry.register(TinyStrategy)
        try:
            yield
        finally:
            registry.unregister("tiny")

    def test_registered_strategy_full_pipeline(
        self, registered_tiny, tmp_path, capsys
    ):
        """A plugin runs through the CLI with the store, resume and jobs."""
        from repro.cli import main
        from repro.obs.store import RunStore

        store = tmp_path / "history.db"
        argv = [
            "experiments", "tiny", "fansweep",
            "--jobs", "2",
            "--scale", str(SCALE), "--seed", str(SEED),
            "--workloads", "swaptions",
            "--store", str(store),
            "--json-out", str(tmp_path / "json"),
        ]
        registry.register(FanStrategy)
        try:
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "Tiny" in out and "Fan" in out
            assert "recorded in" in out
            # Resume: the memoized results short-circuit the prefetch.
            assert main(argv + ["--resume"]) == 0
            out = capsys.readouterr().out
            assert "[resumed" in out
        finally:
            registry.unregister("fansweep")
        recorded = RunStore(str(store))
        try:
            _, rows = recorded.query(
                "SELECT COUNT(*) FROM runs WHERE finished = 1"
            )
        finally:
            recorded.close()
        assert rows[0][0] == 2