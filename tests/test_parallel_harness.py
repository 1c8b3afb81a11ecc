"""Tests for the process-pool prefetch (``--jobs N``).

The acceptance bar is determinism: a parallel prefetch must leave the
context with exactly the records a sequential run would have computed,
so every downstream table is identical.
"""

import pytest

from repro.harness.parallel import _split_fan, prefetch_pairs
from repro.harness.runner import (
    ExperimentContext,
    baseline_spec,
    dopp_spec,
    uni_spec,
)
from repro.harness.strategy import _plan_from, registry

SEED = 3
SCALE = 0.05
WORKLOADS = ["swaptions", "kmeans"]


def plan(names):
    """The driver's (run specs, error specs) prefetch plan for ``names``."""
    return _plan_from([registry.get(name) for name in names])


def pairs(ctx, specs):
    """Every workload of ``ctx`` under every spec (the driver's fan)."""
    return [(name, spec) for name in ctx.names for spec in specs]


class TestPlanSpecs:
    def test_table2_needs_baseline_only(self):
        runs, errors = plan(["table2"])
        assert runs == [baseline_spec()]
        assert errors == []

    def test_fig09_sweeps_map_bits(self):
        runs, errors = plan(["fig09"])
        assert baseline_spec() in runs
        assert dopp_spec(12, 0.25) in runs and dopp_spec(14, 0.25) in runs
        assert errors == [dopp_spec(b, 0.25) for b in (12, 13, 14)]

    def test_fig14_uses_uni_specs(self):
        runs, errors = plan(["fig14"])
        assert uni_spec(14, 0.25) in runs
        assert uni_spec(14, 0.75) in errors

    def test_config_only_experiments_need_nothing(self):
        assert plan(["fig13", "table3", "fig02"]) == ([], [])

    def test_dedup_across_experiments(self):
        runs, _ = plan(["table2", "headline", "fig10"])
        assert runs.count(baseline_spec()) == 1


class TestPrefetchRuns:
    @pytest.fixture(scope="class")
    def contexts(self):
        seq = ExperimentContext(seed=SEED, scale=SCALE, workloads=WORKLOADS)
        for name in WORKLOADS:
            seq.run(name, baseline_spec())
            seq.run(name, dopp_spec(14, 0.25))
        par = ExperimentContext(seed=SEED, scale=SCALE, workloads=WORKLOADS)
        fetched = prefetch_pairs(
            par, pairs(par, [baseline_spec(), dopp_spec(14, 0.25)]), jobs=2,
        )
        assert fetched == 4
        return seq, par

    def test_same_pairs(self, contexts):
        seq, par = contexts
        assert set(seq._runs) == set(par._runs)

    def test_bit_identical_results(self, contexts):
        seq, par = contexts
        for key, rec in seq._runs.items():
            other = par._runs[key]
            assert other.system == rec.system
            assert other.energy == rec.energy
            assert other.accesses == rec.accesses

    def test_summaries_identical_modulo_wall_time(self, contexts):
        seq, par = contexts

        def strip(rows):
            return [
                {k: v for k, v in r.items()
                 if k not in ("sim_wall_s", "accesses_per_sec")}
                for r in rows
            ]

        assert strip(seq.run_summaries()) == strip(par.run_summaries())

    def test_prefetched_pairs_are_memo_hits(self, contexts):
        _, par = contexts
        before = par._runs[("swaptions", baseline_spec())]
        assert par.run("swaptions", baseline_spec()) is before

    def test_second_prefetch_is_a_noop(self, contexts):
        _, par = contexts
        assert prefetch_pairs(
            par, pairs(par, [baseline_spec(), dopp_spec(14, 0.25)]), jobs=2,
        ) == 0

    def test_experiment_plan_prefetch_with_errors(self):
        ctx = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
        runs, errors = plan(["headline"])
        fetched = prefetch_pairs(
            ctx, pairs(ctx, runs), pairs(ctx, errors), jobs=2
        )
        assert fetched == 2
        assert ("swaptions", dopp_spec(14, 0.25)) in ctx._runs


class TestSplitFan:
    def _task(self, run_specs, error_specs=()):
        return {
            "workload": "swaptions", "seed": SEED, "scale": SCALE,
            "engine": None, "run_specs": list(run_specs),
            "error_specs": list(error_specs),
        }

    def test_round_robin_partition_covers_every_spec(self):
        specs = [baseline_spec()] + [dopp_spec(b, 0.25) for b in (10, 12, 14)]
        units = _split_fan(self._task(specs), 3)
        assert len(units) == 3
        dealt = [s for u in units for s in u["run_specs"]]
        assert sorted(dealt, key=lambda s: s.label()) == sorted(
            specs, key=lambda s: s.label()
        )

    def test_never_more_chunks_than_specs(self):
        units = _split_fan(self._task([baseline_spec()]), 8)
        assert len(units) == 1
        assert units[0]["run_specs"] == [baseline_spec()]

    def test_error_specs_split_alongside(self):
        runs = [dopp_spec(b, 0.25) for b in (10, 12, 14, 15)]
        units = _split_fan(self._task(runs, runs), 2)
        assert [len(u["error_specs"]) for u in units] == [2, 2]


class TestConfigFanSplitting:
    """`--jobs N` on one workload with a config fan: split across
    workers, merged results identical to a sequential sweep."""

    @pytest.fixture(scope="class")
    def contexts(self):
        fan = [baseline_spec(), dopp_spec(14, 0.25), dopp_spec(12, 0.25),
               uni_spec(14, 0.5)]
        seq = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
        for spec in fan:
            seq.run("swaptions", spec)
        par = ExperimentContext(seed=SEED, scale=SCALE, workloads=["swaptions"])
        fetched = prefetch_pairs(par, pairs(par, fan), jobs=4)
        assert fetched == len(fan)
        return seq, par

    def test_same_pairs(self, contexts):
        seq, par = contexts
        assert set(seq._runs) == set(par._runs)

    def test_bit_identical_results(self, contexts):
        seq, par = contexts
        for key, rec in seq._runs.items():
            other = par._runs[key]
            assert other.system == rec.system
            assert other.energy == rec.energy
            assert other.engine_stats == rec.engine_stats

    def test_summaries_identical_modulo_wall_time(self, contexts):
        seq, par = contexts

        def strip(rows):
            return [
                {k: v for k, v in r.items()
                 if k not in ("sim_wall_s", "accesses_per_sec")}
                for r in rows
            ]

        assert strip(seq.run_summaries()) == strip(par.run_summaries())
