"""Tests for the experiment harness: reporting, runner, drivers."""

import os
import pickle

import pytest

from repro.harness.reporting import Table, arithmetic_mean, geometric_mean
from repro.harness.runner import (
    ConfigSpec,
    ExperimentContext,
    baseline_spec,
    dopp_spec,
    run_trace,
    system_config,
    uni_spec,
)
from repro.harness import experiments
from repro.harness.strategy import run_strategies
from repro.hierarchy.system import System
from repro.workloads.base import Workload


class TestTable:
    def test_render_contains_everything(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("a", 1.5)
        table.add_row("b", None)
        text = table.render()
        assert "Demo" in text
        assert "1.500" in text
        assert "-" in text

    def test_row_length_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_and_row_map(self):
        table = Table("t", ["name", "x"])
        table.add_row("w", 2.0)
        assert table.column("x") == [2.0]
        assert table.row_map()["w"] == ["w", 2.0]

    def test_save(self, tmp_path):
        table = Table("My Table", ["a"])
        table.add_row(1)
        path = table.save(directory=str(tmp_path))
        assert os.path.exists(path)
        with open(path) as fh:
            assert "My Table" in fh.read()

    def test_notes_rendered(self):
        table = Table("t", ["a"])
        table.add_note("paper says 42")
        assert "paper says 42" in table.render()


class TestMeans:
    def test_geometric(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_arithmetic_skips_none(self):
        assert arithmetic_mean([1.0, None, 3.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0
        assert arithmetic_mean([]) == 0.0


class TestConfigSpec:
    def test_labels(self):
        assert baseline_spec().label() == "baseline-2MB"
        assert dopp_spec(14, 0.25).label() == "dopp-14bit-1/4"
        assert uni_spec(14, 0.75).label() == "uni-14bit-3/4"

    def test_build_llc_kinds(self):
        assert baseline_spec().build_llc(None).name == "baseline"
        assert dopp_spec().build_llc(None).name == "doppelganger"
        assert uni_spec().build_llc(None).name == "unidoppelganger"
        with pytest.raises(ValueError):
            ConfigSpec("weird").build_llc(None)

    def test_approximator_sizes(self):
        assert baseline_spec().approximator() is None
        assert dopp_spec(14, 0.25).approximator().store.data_entries == 4096
        assert uni_spec(14, 0.5).approximator().store.data_entries == 16384

    def test_spec_hashable_for_memoization(self):
        assert dopp_spec(14, 0.25) == dopp_spec(14, 0.25)
        assert len({dopp_spec(14, 0.25), dopp_spec(14, 0.5)}) == 2


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(seed=3, scale=0.05, workloads=["kmeans", "swaptions"])


class TestExperimentContext:
    def test_run_memoized(self, ctx):
        a = ctx.run("kmeans", baseline_spec())
        b = ctx.run("kmeans", baseline_spec())
        assert a is b

    def test_run_is_run_trace_at_the_context_size(self, ctx):
        # Same hierarchy at a scaled size_factor, L2 included.
        spec = dopp_spec(14, 0.25)
        direct = run_trace(ctx.trace("kmeans"), spec, size_factor=ctx.size_factor)
        assert direct.system.to_dict() == ctx.run("kmeans", spec).system.to_dict()

    def test_normalized_runtime_baseline_is_one(self, ctx):
        assert ctx.normalized_runtime("kmeans", baseline_spec()) == pytest.approx(1.0)

    def test_error_baseline_zero(self, ctx):
        assert ctx.error("kmeans", baseline_spec()) == 0.0

    def test_error_memoized(self, ctx):
        spec = dopp_spec(14, 0.25)
        assert ctx.error("kmeans", spec) == ctx.error("kmeans", spec)

    def test_reductions_positive(self, ctx):
        spec = dopp_spec(14, 0.25)
        assert ctx.dynamic_energy_reduction("kmeans", spec) > 0
        assert ctx.leakage_energy_reduction("kmeans", spec) > 0
        assert ctx.normalized_traffic("kmeans", spec) > 0


class TestRecordsCarryNumbers:
    """A finished record keeps the LLC's numbers, not the LLC."""

    @pytest.fixture(scope="class")
    def numbers_ctx(self):
        return ExperimentContext(
            seed=3, scale=0.05, workloads=["canneal", "swaptions"]
        )

    @staticmethod
    def _read_llc(llc, spec, regions):
        """The numbers a driver needs, read off a live LLC."""
        if spec.kind == "baseline":
            found = [regions.find(addr) for addr in llc.cache.resident_addrs()]
            return {
                "resident_blocks": len(found),
                "approx_resident_blocks": sum(
                    r is not None and r.approx for r in found
                ),
                "baseline": llc.cache.stats.as_dict(),
            }
        if spec.kind == "dopp":
            dopp = llc.dopp
            counters = {
                "precise": llc.precise.stats.as_dict(),
                "dopp": dopp.stats.as_dict(),
            }
        else:
            dopp = llc.uni
            counters = {"uni": dopp.stats.as_dict()}
        return {
            "tags_per_entry": dopp.current_avg_tags_per_entry(),
            "tags_per_evicted_entry": dopp.stats.avg_tags_per_evicted_entry,
            "dirty_eviction_fraction": dopp.stats.dirty_eviction_fraction,
            "hit_rate": dopp.stats.hit_rate,
            **counters,
        }

    @pytest.mark.parametrize("name", ["canneal", "swaptions"])
    @pytest.mark.parametrize(
        "spec", [baseline_spec(), dopp_spec(), uni_spec()],
        ids=["baseline", "dopp", "uni"],
    )
    def test_record_matches_a_direct_system_run(self, numbers_ctx, name, spec):
        record = numbers_ctx.run(name, spec)
        assert not hasattr(record, "llc")
        assert len(pickle.dumps(record)) < 8 * 1024
        trace = numbers_ctx.trace(name)
        llc = spec.build_llc(trace.regions, numbers_ctx.size_factor)
        system = System(llc, config=system_config(numbers_ctx.size_factor))
        assert system.run(trace) == record.system
        assert record.llc_stats == self._read_llc(llc, spec, trace.regions)


class TestTable2BuildsNoTrace:
    """table2 reads its counts from the records: after a ``--jobs``
    prefetch or a resume, the parent process generates no trace."""

    def test_prefetched_and_resumed(self, tmp_path, monkeypatch):
        builds = []
        build_trace = Workload.build_trace

        def counted(workload):
            builds.append(workload.name)
            return build_trace(workload)

        monkeypatch.setattr(Workload, "build_trace", counted)
        knobs = dict(
            seed=3, scale=0.05, workloads=["swaptions", "kmeans", "jpeg"],
            store_path=str(tmp_path / "history.db"), record_history=True,
        )
        prefetched = run_strategies(["table2"], jobs=2, **knobs)
        assert builds == []
        resumed = run_strategies(["table2"], resume=True, **knobs)
        assert builds == []
        assert (
            resumed.tables["table2"][""].to_dict()
            == prefetched.tables["table2"][""].to_dict()
        )


class TestDrivers:
    """Smoke tests: every driver produces a complete table."""

    def test_fig02(self, ctx):
        table = experiments.fig02_threshold_similarity(ctx)
        assert len(table.rows) == 2
        assert len(table.headers) == 6

    def test_table2(self, ctx):
        table = experiments.table2_approx_footprint(ctx)
        values = {row[0]: row[1] for row in table.rows}
        assert 0 <= values["kmeans"] <= 100

    def test_fig07(self, ctx):
        table = experiments.fig07_map_space_savings(ctx)
        assert table.rows[-1][0] == "mean"

    def test_fig08(self, ctx):
        table = experiments.fig08_compression_comparison(ctx)
        for row in table.rows:
            for cell in row[1:]:
                assert -0.01 <= cell <= 1.0

    def test_fig09(self, ctx):
        tables = experiments.fig09_map_space(ctx)
        assert set(tables) == {"error", "runtime"}
        assert tables["runtime"].rows[-1][0] == "geomean"

    def test_fig10(self, ctx):
        tables = experiments.fig10_data_array(ctx)
        assert set(tables) == {"error", "runtime", "stats"}

    def test_fig11(self, ctx):
        tables = experiments.fig11_energy_reduction(ctx)
        for row in tables["dynamic"].rows:
            assert all(v > 0 for v in row[1:])

    def test_fig12(self, ctx):
        table = experiments.fig12_offchip_traffic(ctx)
        assert all(row[1] > 0 for row in table.rows)

    def test_fig13_config_only(self):
        table = experiments.fig13_area_reduction()
        assert len(table.rows) == 6
        reductions = table.column("reduction x")
        assert reductions[0] < reductions[1] < reductions[2]

    def test_fig14(self, ctx):
        tables = experiments.fig14_unidoppelganger(ctx)
        assert set(tables) == {"error", "runtime", "dynamic"}

    def test_table3(self):
        table = experiments.table3_hardware_cost()
        assert len(table.rows) == 6
        sizes = dict(zip(table.column("structure"), table.column("size KB")))
        assert sizes["baseline_llc"] == pytest.approx(2156.0)

    def test_headline(self, ctx):
        table = experiments.summary_headline(ctx)
        assert len(table.rows) == 4
