"""Tests for the workload characterization tool."""

import numpy as np
import pytest

from repro.analysis.characterize import (
    characterize_snapshot,
    characterize_workload,
)
from repro.analysis.storage import LLCSnapshot
from repro.trace.record import DType
from repro.trace.region import Region
from repro.workloads import get_workload


def region(vmin=0.0, vmax=100.0):
    return Region("r", 0, 1 << 16, DType.F32, approx=True, vmin=vmin, vmax=vmax)


def snapshot_of(blocks):
    snap = LLCSnapshot()
    reg = region()
    for b in blocks:
        snap.add(0, reg, b)
    return snap


class TestUniqueCurve:
    def test_monotone_in_bits(self, rng):
        snap = snapshot_of(rng.uniform(0, 100, (400, 16)))
        ch = characterize_snapshot(snap)
        uniques = [ch.unique_curve[b][0] for b in sorted(ch.unique_curve)]
        assert all(a <= b for a, b in zip(uniques, uniques[1:]))

    def test_savings_complementary(self, rng):
        snap = snapshot_of(rng.uniform(0, 100, (200, 16)))
        ch = characterize_snapshot(snap)
        for bits, (unique, total) in ch.unique_curve.items():
            assert ch.savings_at(bits) == pytest.approx(1 - unique / total)

    def test_identical_blocks_one_map(self):
        snap = snapshot_of([np.full(16, 42.0)] * 20)
        ch = characterize_snapshot(snap)
        for bits in ch.unique_curve:
            assert ch.unique_curve[bits][0] == 1
        assert ch.avg_tags_per_map() == 20.0


class TestBitsRecommendation:
    def test_max_bits_for_entries(self, rng):
        snap = snapshot_of(rng.uniform(0, 100, (500, 16)))
        ch = characterize_snapshot(snap)
        # Huge array: finest surveyed M fits.
        assert ch.max_bits_for_entries(10_000) == max(ch.unique_curve)
        # Tiny array: nothing fits.
        assert ch.max_bits_for_entries(0) is None

    def test_fit_is_consistent(self, rng):
        snap = snapshot_of(rng.uniform(40, 60, (500, 16)))
        ch = characterize_snapshot(snap)
        entries = 64
        bits = ch.max_bits_for_entries(entries)
        if bits is not None:
            assert ch.unique_curve[bits][0] <= entries


class TestRegionProfiles:
    def test_profile_statistics(self):
        blocks = [np.full(16, 10.0), np.full(16, 30.0)]
        snap = snapshot_of(blocks)
        ch = characterize_snapshot(snap)
        profile = ch.regions[0]
        assert profile.blocks == 2
        assert profile.avg_mean == pytest.approx(20.0)
        assert profile.range_mean == pytest.approx(0.0)
        assert 0.0 <= profile.avg_concentration <= 1.0


class TestWorkloadEntry:
    def test_characterize_real_workload(self):
        w = get_workload("kmeans", seed=2, scale=0.05)
        ch = characterize_workload(w, bits_sweep=(10, 14))
        assert ch.workload == "kmeans"
        assert set(ch.unique_curve) == {10, 14}
        assert ch.avg_tags_per_map() >= 1.0

    def test_table_rendering(self):
        w = get_workload("swaptions", seed=2, scale=0.05)
        ch = characterize_workload(w, bits_sweep=(12, 14))
        text = ch.to_table().render()
        assert "swaptions" in text
        assert "avg tags per occupied map" in text


class TestSharingHistogram:
    def test_histogram_accounts_all_blocks(self, rng):
        snap = snapshot_of(rng.uniform(0, 100, (300, 16)))
        ch = characterize_snapshot(snap)
        blocks = sum(k * v for k, v in ch.sharing_histogram.items())
        assert blocks == 300
