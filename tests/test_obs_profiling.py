"""Tests for phase profiling (repro.obs.profiling)."""

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
