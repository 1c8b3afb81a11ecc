"""Tests for the alternative similarity hashes of ``repro.core.maps``."""

import numpy as np
import pytest

from repro.core.maps import HASHES, MapConfig, MapGenerator
from repro.trace.record import DType


def gen_of(hashes, bits=14, vmin=0.0, vmax=100.0, dtype=DType.F32):
    return MapGenerator(MapConfig(bits, hashes), vmin, vmax, dtype)


def savings(blocks, hashes):
    """Storage savings (1 - unique/total) of one block group."""
    if len(blocks) == 0:
        return 0.0
    return 1.0 - len(np.unique(gen_of(hashes).compute_batch(blocks))) / len(blocks)


class TestRegistry:
    def test_names(self):
        assert list(HASHES) == [
            "average", "range", "min", "max", "median", "first", "projection",
        ]

    def test_unknown_hash_rejected(self):
        with pytest.raises(ValueError, match="unknown hash"):
            MapConfig(14, ("sum",))

    def test_empty_hashes_rejected(self):
        with pytest.raises(ValueError):
            MapConfig(14, ())


class TestEquivalenceWithPaperGenerator:
    def test_average_range_matches_mapgenerator(self, rng):
        # The named pair is the default configuration.
        named = gen_of(("average", "range"))
        paper = MapGenerator(MapConfig(14), 0.0, 100.0, DType.F32)
        blocks = rng.uniform(0, 100, size=(300, 16))
        np.testing.assert_array_equal(
            named.compute_batch(blocks), paper.compute_batch(blocks)
        )

    def test_total_bits_match(self):
        assert gen_of(("average", "range")).total_bits == 21
        # A spread hash keeps ceil(M/2) bits even when it comes first.
        assert gen_of(("range", "average")).total_bits == 14
        assert gen_of(("min", "max", "median")).total_bits == 28


class TestHashBehaviour:
    def test_min_max_separate_shifted_blocks(self):
        gen = gen_of(("min", "max"))
        a = np.linspace(10, 20, 16)
        b = np.linspace(30, 40, 16)
        assert gen.compute(a) != gen.compute(b)

    def test_median_robust_to_single_outlier(self):
        gen = gen_of(("median",))
        a = np.full(16, 50.0)
        b = a.copy()
        b[3] = 99.0  # single outlier
        assert gen.compute(a) == gen.compute(b)

    def test_average_not_robust_to_single_outlier(self):
        gen = gen_of(("average",))
        a = np.full(16, 50.0)
        b = a.copy()
        b[3] = 99.0
        assert gen.compute(a) != gen.compute(b)

    def test_projection_deterministic(self, rng):
        gen1 = gen_of(("projection",))
        gen2 = gen_of(("projection",))
        block = rng.uniform(0, 100, 16)
        assert gen1.compute(block) == gen2.compute(block)

    def test_projection_discriminates_permutations(self):
        gen = gen_of(("projection",))
        a = np.arange(16, dtype=float) * 6.0
        b = a[::-1].copy()  # same avg/range/min/max, different order
        assert gen.compute(a) != gen.compute(b)

    def test_first_is_order_sensitive(self):
        gen = gen_of(("first",))
        a = np.array([10.0] + [50.0] * 15)
        b = np.array([90.0] + [50.0] * 15)
        assert gen.compute(a) != gen.compute(b)

    def test_maps_in_range(self, rng):
        for hashes in (("average",), ("min", "max", "median"),
                       ("average", "range", "projection")):
            gen = gen_of(hashes, 12, 0.0, 10.0)
            blocks = rng.uniform(0, 10, size=(100, 8))
            maps = gen.compute_batch(blocks)
            assert maps.min() >= 0
            assert maps.max() < (1 << gen.total_bits)

    def test_integer_omit_rule(self):
        gen = gen_of(("average", "range"), 14, 0, 255, DType.U8)
        assert gen.hash_bits == 8
        assert gen.kept_bits == (8, 7)


class TestSavings:
    def test_more_hashes_never_more_savings(self, rng):
        blocks = rng.uniform(40, 60, size=(500, 16))
        one = savings(blocks, ("average",))
        two = savings(blocks, ("average", "range"))
        three = savings(blocks, ("average", "range", "projection"))
        assert one >= two >= three

    def test_empty_blocks(self):
        maps = gen_of(("average",)).compute_batch(np.zeros((0, 16)))
        assert maps.shape == (0,) and maps.dtype == np.int64
        assert savings(np.zeros((0, 16)), ("average",)) == 0.0
