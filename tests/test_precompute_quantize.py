"""Per-trace hash step of map generation (engine precompute).

The clamped hash values depend only on region annotations and the hash
names, so they are computed once per trace and binned per config. These
tests pin the contract: the memo seeded from the cached hashes equals
per-block ``MapRegistry.compute``, under every organization and map-bit
setting.
"""

import numpy as np
import pytest

from repro.core.maps import MapConfig, MapGenerator, hash_values
from repro.engine.precompute import map_hashes, map_seed_pairs
from repro.harness.runner import ConfigSpec, dopp_spec, uni_spec
from repro.trace.record import DType
from repro.workloads.registry import get_workload

PAPER = ("average", "range")


@pytest.fixture(scope="module")
def trace():
    return get_workload("jpeg", seed=7, scale=0.05).build_trace()


def inner(llc):
    return getattr(llc, "dopp", None) or llc.uni


class TestMapGeneratorSplit:
    def test_compute_batch_routes_through_stats(self, rng):
        gen = MapGenerator(MapConfig(bits=14), 0.0, 100.0, DType.F32)
        blocks = rng.uniform(-10.0, 110.0, size=(32, 16))  # clamping active
        np.testing.assert_array_equal(
            gen.compute_batch(blocks),
            gen.compute_from_hashes(hash_values(blocks, PAPER, 0.0, 100.0)),
        )

    def test_stats_are_config_independent(self, rng):
        blocks = rng.uniform(0.0, 100.0, size=(8, 16))
        hashed = hash_values(blocks, PAPER, 0.0, 100.0)
        for bits in (12, 13, 14):
            gen = MapGenerator(MapConfig(bits=bits), 0.0, 100.0, DType.F32)
            np.testing.assert_array_equal(
                gen.compute_batch(blocks), gen.compute_from_hashes(hashed)
            )


class TestQuantizedSeeding:
    def test_stats_cover_every_seed_pair(self, trace):
        keys = [(rid, vid) for rid, vids, _ in map_hashes(trace, PAPER) for vid in vids]
        assert sorted(keys) == map_seed_pairs(trace)
        assert keys  # jpeg has approximate regions

    def test_stats_are_cached_on_the_trace(self, trace):
        assert map_hashes(trace, PAPER) is map_hashes(trace, PAPER)
        assert map_hashes(trace, ("median",)) is not map_hashes(trace, PAPER)

    @pytest.mark.parametrize(
        "spec",
        [
            dopp_spec(),
            uni_spec(),
            ConfigSpec("dopp", map_bits=12),
            ConfigSpec("uni", map_bits=13),
        ],
        ids=lambda s: s.label(),
    )
    def test_seeding_from_stats_matches_raw(self, trace, spec):
        pairs = map_seed_pairs(trace)
        llc = spec.build_llc(trace.regions)
        added = llc.seed_map_memo(map_hashes(trace, llc.config.map.hashes))
        assert added == len(pairs)
        maps = inner(llc).maps
        assert inner(llc)._map_memo == {
            (rid, vid): maps.compute(rid, trace.values[vid]) for rid, vid in pairs
        }
