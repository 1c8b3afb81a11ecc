"""Tests for the analytical timing model and its simulator cross-check."""

import pytest

from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC
from repro.hierarchy.system import System, SystemConfig
from repro.timing import AnalyticalModel, validate_against_simulation
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def sim_result():
    trace = get_workload("kmeans", seed=4, scale=0.1).build_trace()
    system = System(BaselineLLC())
    return system.run(trace)


class TestModel:
    def test_penalty_interpolates(self):
        cfg = SystemConfig()
        full = AnalyticalModel(cfg, burst_fraction=0.0).effective_miss_penalty()
        burst = AnalyticalModel(cfg, burst_fraction=1.0).effective_miss_penalty()
        assert full == 160
        assert burst == cfg.mem_overlap_interval
        mid = AnalyticalModel(cfg, burst_fraction=0.5).effective_miss_penalty()
        assert burst < mid < full

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            AnalyticalModel(burst_fraction=1.5)

    def test_estimate_components_positive(self, sim_result):
        estimate = AnalyticalModel().estimate(sim_result)
        assert estimate.compute > 0
        assert estimate.total >= estimate.compute
        assert set(estimate.breakdown()) == {
            "compute", "l2_flow", "llc_flow", "memory_flow",
        }

    def test_more_misses_longer_estimate(self, sim_result):
        model = AnalyticalModel()
        base = model.estimate(sim_result).total
        inflated = sim_result._replace(llc_misses=sim_result.llc_misses * 10 + 100)
        assert model.estimate(inflated).total > base


class TestCrossValidation:
    def test_baseline_simulation_explained(self, sim_result):
        ratio = validate_against_simulation(sim_result)
        assert 1 / 3 <= ratio <= 3

    def test_doppelganger_simulation_explained(self):
        trace = get_workload("jpeg", seed=4, scale=0.1).build_trace()
        llc = SplitDoppelgangerLLC(regions=trace.regions)
        result = System(llc).run(trace)
        ratio = validate_against_simulation(result)
        assert 1 / 3 <= ratio <= 3

    def test_degenerate_rejected(self, sim_result):
        empty = sim_result._replace(instructions=0, llc_misses=0)
        empty = empty._replace(
            l1_stats=type(sim_result.l1_stats)(),
            l2_stats=type(sim_result.l2_stats)(),
        )
        with pytest.raises(ValueError):
            validate_against_simulation(empty)
