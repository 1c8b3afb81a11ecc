"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import experiment_names, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig02", "fig13", "table3", "headline"):
            assert name in out

    def test_unknown_experiment(self, capsys):
        # Typed UnknownExperimentError, mapped to the config exit code.
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig99" in err

    @pytest.mark.parametrize("verb", ["serve", "submit", "jobs", "watch"])
    def test_no_job_daemon_verbs(self, verb, capsys):
        # The package ships no job daemon: these are experiment names
        # like any other, and none is registered.
        assert main([verb]) == 2
        assert f"unknown experiment {verb!r}" in capsys.readouterr().err

    def test_unknown_experiment_in_sweep(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_registry_listing(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "Registered experiments" in out
        for name in ("fig02", "table3", "faultsweep"):
            assert name in out
        assert "config-only" in out

    def test_config_only_experiment(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "2156" in out

    def test_fig13_no_context_needed(self, capsys):
        assert main(["fig13"]) == 0
        assert "reduction" in capsys.readouterr().out

    def test_simulated_experiment_with_subset(self, capsys, tmp_path):
        assert main(
            ["table2", "--scale", "0.05", "--seed", "3",
             "--workloads", "swaptions", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "swaptions" in out
        assert os.path.exists(tmp_path / "table2.txt")

    def test_names_cover_all_figures(self):
        names = experiment_names()
        assert len(names) == 14
        assert "faultsweep" in names
        assert "frontier" in names
