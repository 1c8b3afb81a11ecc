"""Unit tests for map generation (Sec. 3.7)."""

import hashlib

import numpy as np
import pytest

from repro.core.maps import MapConfig, MapGenerator, MapRegistry
from repro.trace.record import DTYPE_INFO, DType
from repro.trace.region import Region, RegionMap


def gen(bits=14, vmin=0.0, vmax=100.0, dtype=DType.F32, **kw):
    return MapGenerator(MapConfig(bits=bits, **kw), vmin, vmax, dtype)


class TestMapConfig:
    def test_range_keep_bits(self):
        assert MapConfig(14).keep_bits == 7
        assert MapConfig(13).keep_bits == 7
        assert MapConfig(12).keep_bits == 6

    def test_requires_a_hash(self):
        with pytest.raises(ValueError):
            MapConfig(hashes=())

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            MapConfig(bits=-1)


class TestTotalBits:
    def test_base_design_is_21_bits(self):
        # Table 3's per-tag map field: 14 + ceil(14/2) = 21.
        assert gen(14).total_bits == 21

    def test_integer_dtype_caps_bits(self):
        g = MapGenerator(MapConfig(14), 0, 255, DType.U8)
        # 8-bit elements: avg uses 8 bits, range keeps 7.
        assert g.hash_bits == 8
        assert g.total_bits == 15

    def test_average_only(self):
        g = gen(14, hashes=("average",))
        assert g.total_bits == 14

    def test_range_only(self):
        g = gen(14, hashes=("range",))
        assert g.total_bits == 7


class TestMapping:
    def test_min_maps_to_zero(self):
        g = gen()
        assert g.compute(np.zeros(16)) == 0

    def test_max_maps_to_top_bin(self):
        g = gen()
        m = g.compute(np.full(16, 100.0))
        # avg at max -> top avg bin; range 0 -> range part 0.
        assert m == (1 << 14) - 1

    def test_similar_blocks_share_map(self):
        g = gen()
        a = np.full(16, 50.0)
        b = a + 0.001
        assert g.compute(a) == g.compute(b)

    def test_distant_blocks_differ(self):
        g = gen()
        assert g.compute(np.full(16, 10.0)) != g.compute(np.full(16, 90.0))

    def test_range_hash_separates_spread(self):
        g = gen()
        flat = np.full(16, 50.0)
        spread = np.linspace(10.0, 90.0, 16)  # same average, big range
        assert g.compute(flat) != g.compute(spread)

    def test_clamping_out_of_range_values(self):
        g = gen()
        over = np.full(16, 1e6)
        assert g.compute(over) == g.compute(np.full(16, 100.0))

    def test_nan_treated_as_vmin(self):
        g = gen()
        with_nan = np.full(16, np.nan)
        assert g.compute(with_nan) == g.compute(np.zeros(16))

    def test_map_in_range(self, rng=np.random.default_rng(0)):
        g = gen()
        blocks = rng.uniform(0, 100, size=(200, 16))
        maps = g.compute_batch(blocks)
        assert maps.min() >= 0
        assert maps.max() < g.map_space_size

    def test_batch_matches_scalar(self, rng=np.random.default_rng(1)):
        g = gen()
        blocks = rng.uniform(0, 100, size=(50, 16))
        batch = g.compute_batch(blocks)
        for i in range(50):
            assert g.compute(blocks[i]) == batch[i]

    def test_smaller_map_space_merges_more(self, rng=np.random.default_rng(2)):
        blocks = rng.uniform(0, 100, size=(2000, 16))
        unique12 = len(np.unique(gen(12).compute_batch(blocks)))
        unique14 = len(np.unique(gen(14).compute_batch(blocks)))
        assert unique12 <= unique14

    def test_zero_bits_single_bin(self):
        g = gen(0)
        a = g.compute(np.full(16, 5.0))
        b = g.compute(np.full(16, 95.0))
        assert a == b == 0

    def test_pixel_identity_mapping(self):
        # 8-bit data with M=14: omit-mapping rule, hash used directly.
        g = MapGenerator(MapConfig(14), 0, 255, DType.U8)
        flat80 = np.full(64, 80, dtype=np.float64)
        flat81 = np.full(64, 81, dtype=np.float64)
        assert g.compute(flat80) != g.compute(flat81)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            MapGenerator(MapConfig(14), 5.0, 5.0, DType.F32)

    def test_paper_figure1_example(self):
        # Fig. 1b: blocks 1 and 2 share a map, block 3 differs.
        g = MapGenerator(MapConfig(14), 0, 255, DType.U8)
        b1 = np.array([92, 131, 183, 91, 132, 186], dtype=np.float64)
        b2 = np.array([90, 131, 185, 93, 133, 184], dtype=np.float64)
        b3 = np.array([35, 31, 29, 43, 38, 37], dtype=np.float64)
        assert g.compute(b1) == g.compute(b2)
        assert g.compute(b1) != g.compute(b3)


class TestFlopCount:
    def test_paper_accounting(self):
        # Sec. 5.6: 21 FPMA ops for a 16-element block.
        assert gen().flop_count(16) == 21

    def test_scales_with_elements(self):
        assert gen().flop_count(32) == 42


class TestRegistry:
    def make_regions(self):
        return RegionMap(
            [
                Region("a", 0, 1024, DType.F32, approx=True, vmin=0, vmax=10),
                Region("b", 2048, 1024, DType.I32, approx=False),
            ]
        )

    def test_register_regions_skips_precise(self):
        reg = MapRegistry(MapConfig(14))
        reg.register_regions(self.make_regions())
        assert len(reg) == 1
        assert reg.generator(0) is not None
        assert reg.generator(1) is None

    def test_compute_unregistered_raises(self):
        reg = MapRegistry(MapConfig(14))
        with pytest.raises(KeyError):
            reg.compute(5, np.zeros(16))

    def test_compute_through_registry(self):
        reg = MapRegistry(MapConfig(14))
        reg.register(0, 0.0, 10.0, DType.F32)
        assert reg.compute(0, np.zeros(16)) == 0


# ------------------------------------------------------------ pinned maps

#: Declared [vmin, vmax] per element type; the pinned blocks stray
#: outside it on both sides, so clamping is exercised.
PIN_RANGES = {
    DType.U8: (16.0, 240.0),
    DType.I16: (-3000.0, 9000.0),
    DType.I32: (-2.0e6, 5.0e6),
    DType.F32: (-1.5, 2.5),
    DType.F64: (0.0, 1.0e3),
}

#: Hash combinations the benchmarks and tests use; the first three are
#: the average/range forms, which also run with M = 0.
PIN_FORMS = (
    ("average", "range"),
    ("average",),
    ("range",),
    ("min", "max"),
    ("median", "range"),
    ("average", "projection"),
    ("projection",),
    ("min", "max", "median"),
    ("average", "range", "projection"),
)


def pin_generator(hashes, bits, vmin, vmax, dtype):
    return MapGenerator(MapConfig(bits, hashes), vmin, vmax, dtype)


def pin_blocks(dtype, n=96):
    """Seeded 64-byte blocks: flat and spread ones, out-of-range values,
    and NaNs in the floating-point types."""
    info = DTYPE_INFO[dtype]
    vmin, vmax = PIN_RANGES[dtype]
    span = vmax - vmin
    rng = np.random.default_rng(100 + int(dtype))
    centers = rng.uniform(vmin - 0.1 * span, vmax + 0.1 * span, size=(n, 1))
    spreads = rng.uniform(0.0, 0.3 * span, size=(n, 1)) * (rng.random((n, 1)) < 0.7)
    values = centers + spreads * rng.uniform(-1.0, 1.0, size=(n, 512 // info.bits))
    if info.is_integer:
        limits = np.iinfo(info.numpy_dtype)
        values = np.clip(np.rint(values), limits.min, limits.max)
    else:
        values[rng.random(values.shape) < 0.02] = np.nan
    return values.astype(info.numpy_dtype)


def pin_digest(hashes, dtype):
    """sha256 prefix of every map width and value of ``pin_blocks``."""
    vmin, vmax = PIN_RANGES[dtype]
    blocks = pin_blocks(dtype)
    digest = hashlib.sha256()
    for bits in (0, 12, 13, 14, 16) if hashes in PIN_FORMS[:3] else (12, 13, 14, 16):
        gen = pin_generator(hashes, bits, vmin, vmax, dtype)
        digest.update(np.int64(gen.total_bits).tobytes())
        digest.update(gen.compute_batch(blocks).astype("<i8").tobytes())
    return digest.hexdigest()[:16]


#: Digests per hash combination, in ``DType`` order (U8 ... F64).
PIN_DIGESTS = {
    ("average", "range"): (
        "4d1bbc1895643120", "8eab280cf1c0307a", "bf1bf5202087637b",
        "7eb261d57ea67d53", "83979106ebc3b404",
    ),
    ("average",): (
        "ce4cefd2f743bd4d", "d523d836ceaf322a", "07b6183af94f84c7",
        "0cae68ff65887d18", "d5e9a16beca2b3c1",
    ),
    ("range",): (
        "d57810b464cd14ec", "e7822a0b2d027037", "5455fdb3f7e7ec99",
        "e046ce4824e7a1e7", "dd3493d4144f3186",
    ),
    ("min", "max"): (
        "46851399b3c8b294", "074a1742d1d09bcc", "b29270d2697ba741",
        "a37deccb5c612d61", "1b3a53754c37734a",
    ),
    ("median", "range"): (
        "aac99f42cccb971d", "963d8d6351fa94d9", "ce2ca3de170044da",
        "c165434356c1b42c", "e1018be9241dfefb",
    ),
    ("average", "projection"): (
        "7cc41ab14d2720d2", "b47fe49550ccf99c", "f64eaff929c522e5",
        "ac263c691f40a1b0", "272f68baae3fc55f",
    ),
    ("projection",): (
        "4ee427bc58d3cec8", "0b4eda122c5cea73", "fb45bd4198ae0bde",
        "4c807aeb4d9dce7e", "2bcb027d83038618",
    ),
    ("min", "max", "median"): (
        "76f52cddaa338769", "f041fc7bda7ec24b", "13db7714c7b4a7cd",
        "1f1f62d83ee69cda", "3290d525e202b852",
    ),
    ("average", "range", "projection"): (
        "f8c57acdbfe7246d", "aa3de46c9de242af", "31305d03ea1fc5e3",
        "f1db2ea372df2a14", "fc02582b22ccb30e",
    ),
}


class TestPinnedMaps:
    @pytest.mark.parametrize("dtype", list(DType), ids=lambda d: d.name)
    @pytest.mark.parametrize("hashes", PIN_FORMS, ids="+".join)
    def test_map_values_pinned(self, hashes, dtype):
        assert pin_digest(hashes, dtype) == PIN_DIGESTS[hashes][int(dtype)]
