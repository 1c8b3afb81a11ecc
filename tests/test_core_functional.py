"""Tests for the functional Doppelgänger approximation model."""

import numpy as np
import pytest

from repro.core.data_array import MTagDataArray
from repro.core.functional import (
    BlockApproximator,
    FunctionalDoppelganger,
    IdentityApproximator,
)
from repro.core.maps import MapConfig
from repro.trace.record import DType
from repro.trace.region import Region


def region(approx=True, dtype=DType.F32, vmin=0.0, vmax=100.0, size=1 << 16):
    return Region("r", 0, size, dtype, approx=approx, vmin=vmin, vmax=vmax)


class TestFunctionalStore:
    def test_first_access_inserts(self):
        store = FunctionalDoppelganger(64, 4)
        block = np.full(16, 5.0)
        out = store.access(DType.F32, 100, block)
        np.testing.assert_array_equal(out, block)
        assert store.insertions == 1

    def test_same_map_returns_canonical(self):
        store = FunctionalDoppelganger(64, 4)
        first = np.full(16, 5.0)
        second = np.full(16, 6.0)
        store.access(DType.F32, 100, first)
        out = store.access(DType.F32, 100, second)
        np.testing.assert_array_equal(out, first)
        assert store.shared_hits == 1

    def test_different_maps_independent(self):
        store = FunctionalDoppelganger(64, 4)
        store.access(DType.F32, 100, np.full(16, 5.0))
        out = store.access(DType.F32, 200, np.full(16, 7.0))
        np.testing.assert_array_equal(out, np.full(16, 7.0))

    def test_dtype_isolates(self):
        store = FunctionalDoppelganger(64, 4)
        store.access(DType.F32, 100, np.full(16, 5.0))
        out = store.access(DType.U8, 100, np.full(16, 9.0))
        np.testing.assert_array_equal(out, np.full(16, 9.0))

    def test_lru_eviction(self):
        store = FunctionalDoppelganger(4, 4)  # one set
        for m in range(4):
            store.access(DType.F32, m, np.full(16, float(m)))
        store.access(DType.F32, 4, np.full(16, 40.0))  # evicts LRU (map 0)
        out = store.access(DType.F32, 0, np.full(16, 99.0))
        np.testing.assert_array_equal(out, np.full(16, 99.0))  # reinserted
        assert store.evictions >= 1

    def test_occupancy_bounded(self):
        store = FunctionalDoppelganger(16, 4)
        for m in range(100):
            store.access(DType.F32, m, np.full(16, float(m % 50)))
        assert store.occupancy() <= 16

    def test_partial_block_no_alias(self):
        store = FunctionalDoppelganger(64, 4)
        store.access(DType.F32, 100, np.full(16, 5.0))
        out = store.access(DType.F32, 100, np.full(7, 6.0))  # shorter block
        np.testing.assert_array_equal(out, np.full(7, 6.0))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            FunctionalDoppelganger(10, 4)


class TestMatchesStructuralArray:
    """The error model and the timing model's MTag array are one cache."""

    @pytest.mark.parametrize("entries,ways", [(4096, 16), (256, 4), (64, 16)])
    def test_same_resident_maps(self, entries, ways):
        rng = np.random.default_rng(entries * ways)
        functional = FunctionalDoppelganger(entries, ways)
        structural = MTagDataArray(entries, ways, policy="lru")
        block = np.zeros(16, dtype=np.float32)
        # Map values over ~3x the capacity: both hits and evictions.
        for map_value in rng.integers(0, 3 * entries, size=20000).tolist():
            functional.access(DType.F32, map_value, block)
            entry = structural.probe(map_value)
            if entry is None:
                structural.allocate(map_value)
            else:
                structural.touch(entry)
        assert functional.shared_hits > 0 and functional.evictions > 0
        resident = sorted(key[2] for entries_ in functional._sets for key in entries_)
        assert resident == sorted(e.map_value for e in structural.resident())


class TestBlockApproximator:
    def test_precise_region_passthrough(self, rng):
        approx = BlockApproximator()
        data = rng.uniform(0, 1, 256).astype(np.float32)
        out = approx.filter(data, region(approx=False))
        np.testing.assert_array_equal(out, data)

    def test_shape_and_dtype_preserved(self, rng):
        approx = BlockApproximator()
        data = rng.uniform(0, 100, (32, 16)).astype(np.float32)
        out = approx.filter(data, region())
        assert out.shape == data.shape
        assert out.dtype == data.dtype

    def test_identical_blocks_substituted(self):
        approx = BlockApproximator()
        data = np.concatenate([np.full(16, 10.0), np.full(16, 10.0005)]).astype(np.float32)
        out = approx.filter(data, region())
        np.testing.assert_allclose(out[16:], 10.0)
        assert approx.sharing_rate() > 0

    def test_integer_region_rounds(self, rng):
        approx = BlockApproximator()
        data = rng.integers(0, 255, 256).astype(np.uint8)
        out = approx.filter(data, region(dtype=DType.U8, vmax=255.0))
        assert out.dtype == np.uint8

    def test_trailing_partial_block(self, rng):
        approx = BlockApproximator()
        data = rng.uniform(0, 100, 19).astype(np.float32)  # 16 + 3 tail
        out = approx.filter(data, region())
        assert out.shape == data.shape

    def test_substitution_bounded_by_canonical_values(self, rng):
        approx = BlockApproximator()
        data = rng.uniform(0, 100, 4096).astype(np.float32)
        out = approx.filter(data, region())
        assert out.min() >= 0.0
        assert out.max() <= 100.0

    def test_smaller_data_array_fewer_hits(self, rng):
        data = rng.uniform(49.0, 51.0, 16 * 512).astype(np.float32)
        big = BlockApproximator(MapConfig(14), data_entries=4096)
        small = BlockApproximator(MapConfig(14), data_entries=16)
        big.filter(data, region())
        small.filter(data, region())
        assert small.store.evictions >= big.store.evictions


class TestIdentityApproximator:
    def test_passthrough(self, rng):
        ident = IdentityApproximator()
        data = rng.uniform(0, 1, 64)
        out = ident.filter(data, region())
        assert out is data
        assert ident.sharing_rate() == 0.0
