"""Tests for phase profiling (repro.obs.profiling)."""

from repro.obs import profiling
from repro.obs.profiling import PhaseProfiler


class TestPhaseProfiler:
    def test_phase_accumulates(self):
        prof = PhaseProfiler()
        with prof.phase("sim"):
            pass
        with prof.phase("sim"):
            pass
        stat = prof.phases["sim"]
        assert stat.count == 2
        assert stat.total_ns > 0

    def test_disabled_records_nothing(self):
        prof = PhaseProfiler(enabled=False)
        with prof.phase("sim"):
            pass
        assert prof.phases == {}
        assert "no phases" in prof.render()

    def test_phase_records_on_exception(self):
        prof = PhaseProfiler()
        try:
            with prof.phase("boom"):
                raise ValueError
        except ValueError:
            pass
        assert prof.phases["boom"].count == 1

    def test_by_stage_rolls_up_leaves(self):
        prof = PhaseProfiler()
        with prof.phase("sim/canneal/baseline"):
            pass
        with prof.phase("sim/jpeg/baseline"):
            pass
        with prof.phase("trace/canneal"):
            pass
        stages = prof.by_stage()
        assert set(stages) == {"sim", "trace"}
        assert stages["sim"] > 0

    def test_by_stage_skips_parent_of_nested_phase(self):
        prof = PhaseProfiler()
        with prof.phase("sim/canneal"):
            with prof.phase("sim/canneal/inner"):
                pass
        # Only the leaf counts; the enclosing phase would double-count.
        stages = prof.by_stage()
        assert stages["sim"] <= prof.phases["sim/canneal"].seconds

    def test_stage_times_are_self_times(self, monkeypatch):
        # An experiment phase encloses the simulations it runs; its
        # stage gets only the time spent outside them.
        ticks = iter([0, 10, 90, 100])
        monkeypatch.setattr(profiling, "perf_counter_ns", lambda: next(ticks))
        prof = PhaseProfiler()
        with prof.phase("experiment/fig10"):
            with prof.phase("sim/canneal/baseline"):
                pass
        assert prof.by_stage() == {"experiment": 20e-9, "sim": 80e-9}
        outer = prof.report()["phases"]["experiment/fig10"]
        assert outer == {"seconds": 100e-9, "self_seconds": 20e-9, "count": 1}
        assert prof.total_seconds() == 100e-9
        lines = prof.render().splitlines()
        assert lines[3].split()[0] == "sim"

    def test_render_lists_phases(self):
        prof = PhaseProfiler()
        with prof.phase("sim/canneal/baseline"):
            pass
        text = prof.render()
        assert "sim/canneal/baseline" in text
        assert "phase profile" in text

    def test_report_is_json_friendly(self):
        import json

        prof = PhaseProfiler()
        with prof.phase("sim"):
            pass
        report = prof.report()
        json.dumps(report)
        assert report["phases"]["sim"]["count"] == 1
        assert "sim" in report["stages"]

    def test_merge(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        with a.phase("sim"):
            pass
        with b.phase("sim"):
            pass
        with b.phase("trace"):
            pass
        a.merge(b)
        assert a.phases["sim"].count == 2
        assert a.phases["trace"].count == 1

    def test_reset(self):
        prof = PhaseProfiler()
        with prof.phase("sim"):
            pass
        prof.reset()
        assert prof.phases == {}

    def test_total_seconds_counts_top_level_only(self):
        prof = PhaseProfiler()
        with prof.phase("outer"):
            with prof.phase("outer/inner"):
                pass
        assert prof.total_seconds() == prof.phases["outer"].seconds
