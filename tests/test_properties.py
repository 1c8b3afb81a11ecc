"""Property-based tests (hypothesis) for core invariants.

Covers the data structures the reproduction leans on hardest: LRU
ordering, map generation monotonicity/clamping, BΔI losslessness
conditions, the Doppelgänger linked-list invariants under random
operation sequences, and cache occupancy bounds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.replacement import ReplacementSets
from repro.cache.set_assoc import SetAssociativeCache
from repro.compression.bdi import BLOCK_BYTES, bdi_compressed_size
from repro.core.config import DoppelgangerConfig
from repro.core.doppelganger import DoppelgangerCache
from repro.core.maps import MapConfig, MapGenerator
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap

# ------------------------------------------------------------------ LRU


def _lru_set(keys, accesses):
    """One LRU set filled with ``keys`` in order, then touched at
    each of ``accesses``."""
    repl = ReplacementSets(1, len(keys))
    for key in keys:
        repl.insert(0, key, key)
    for key in accesses:
        repl.touch(0, key)
    return repl


@given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
def test_lru_victim_is_least_recently_used(accesses):
    repl = _lru_set(range(8), accesses)
    victim = repl.insert(0, 8, 8)[0]
    # The victim must not be among the keys touched after every other
    # key's last touch; concretely: victim's last touch (or never)
    # precedes the last touch of every other touched key.
    last = {w: i for i, w in enumerate(accesses)}
    untouched = [w for w in range(8) if w not in last]
    if untouched:
        assert victim == untouched[0]
    else:
        assert last[victim] == min(last.values())


@given(st.lists(st.integers(0, 3), min_size=1, max_size=60))
def test_lru_order_is_permutation(accesses):
    repl = _lru_set(range(4), accesses)
    assert sorted(repl.sets[0]) == [0, 1, 2, 3]


# ------------------------------------------------------------- map maker

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(st.lists(finite_floats, min_size=1, max_size=16))
def test_map_always_in_space(values):
    gen = MapGenerator(MapConfig(14), -1e6, 1e6, DType.F32)
    m = gen.compute(np.array(values))
    assert 0 <= m < gen.map_space_size


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=2, max_size=16),
    st.floats(min_value=1e-7, max_value=1e-4),
)
def test_tiny_perturbation_rarely_changes_map(values, eps):
    """Blocks within a vanishing perturbation usually share a map.

    Bins are half-open, so a block sitting exactly on a bin boundary
    may flip — that's correct behaviour; we assert the map moves at
    most one bin in each hash.
    """
    gen = MapGenerator(MapConfig(14), 0.0, 100.0, DType.F32)
    a = np.array(values)
    m1 = gen.compute(a)
    m2 = gen.compute(a + eps)
    avg_mask = (1 << 14) - 1
    assert abs((m1 & avg_mask) - (m2 & avg_mask)) <= 1
    assert abs((m1 >> 14) - (m2 >> 14)) <= 1


@given(st.lists(finite_floats, min_size=1, max_size=16))
def test_clamping_idempotent(values):
    gen = MapGenerator(MapConfig(14), 0.0, 10.0, DType.F32)
    arr = np.array(values)
    clamped = np.clip(arr, 0.0, 10.0)
    assert gen.compute(arr) == gen.compute(clamped)


@given(st.integers(1, 20), st.data())
def test_coarser_maps_never_split_groups(bits, data):
    """If two blocks share a map at M bits, they share one at M-1 bits.

    Holds for the average hash alone (the range keep-width changes
    non-uniformly when both hashes are on).
    """
    blocks = data.draw(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=4, max_size=4),
            min_size=2,
            max_size=2,
        )
    )
    fine = MapGenerator(MapConfig(bits, ("average",)), 0, 100, DType.F32)
    coarse = MapGenerator(MapConfig(bits - 1 if bits > 1 else 1, ("average",)), 0, 100, DType.F32)
    a, b = (np.array(blk) for blk in blocks)
    if fine.compute(a) == fine.compute(b):
        assert coarse.compute(a) == coarse.compute(b)


# ------------------------------------------------------------------ BΔI


@given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=16, max_size=16))
def test_bdi_size_bounds(values):
    enc = bdi_compressed_size(np.array(values, dtype=np.int32))
    assert 1 <= enc.compressed_bytes <= BLOCK_BYTES


@given(st.integers(-(2**31) + 256, 2**31 - 257), st.lists(st.integers(-100, 100), min_size=16, max_size=16))
def test_bdi_clustered_ints_compress(base, deltas):
    block = np.array([base + d for d in deltas], dtype=np.int64).astype(np.int32)
    enc = bdi_compressed_size(block)
    assert enc.compressed_bytes < BLOCK_BYTES


@given(st.integers(0, 2**63 - 1))
def test_bdi_repeat_detected(value):
    block = np.full(8, value, dtype=np.uint64).view(np.int64)
    enc = bdi_compressed_size(block)
    assert enc.compressed_bytes <= 8


# --------------------------------------------------------------- caches


@given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
@settings(max_examples=50)
def test_cache_occupancy_and_residency(block_ids):
    cache = SetAssociativeCache(4 * 1024, 4, 64)
    capacity = 4 * 1024 // 64
    for bid in block_ids:
        cache.access(bid * 64)
    assert cache.occupancy() <= capacity
    # The most recently accessed block is always resident.
    assert cache.contains(block_ids[-1] * 64)


@given(st.lists(st.integers(0, 255), min_size=1, max_size=200))
@settings(max_examples=50)
def test_cache_hits_iff_resident(block_ids):
    cache = SetAssociativeCache(4 * 1024, 4, 64)
    resident = set()
    for bid in block_ids:
        addr = bid * 64
        was_resident = cache.contains(addr)
        result = cache.access(addr)
        assert result.hit == was_resident
        resident.add(addr)
        if result.evicted_addr is not None:
            resident.discard(result.evicted_addr)
    assert set(cache.resident_addrs()) == resident


# ----------------------------------------------------------- Doppelgänger

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "write", "invalidate", "lookup"]),
        st.integers(0, 63),  # block id
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),  # block value
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),  # spread
    ),
    min_size=1,
    max_size=120,
)


@given(_ops)
@settings(max_examples=60, deadline=None)
def test_doppelganger_invariants_under_random_ops(ops):
    """The tag/data linked-list structure survives any op sequence."""
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = DoppelgangerConfig(
        tag_entries=32, tag_ways=4, data_fraction=0.5, data_ways=4, map=MapConfig(10)
    )
    cache = DoppelgangerCache(cfg, regions=regions)
    for op, bid, value, spread in ops:
        addr = bid * 64
        values = np.linspace(value - spread, value + spread, 16)
        if op == "insert":
            if cache.tags.probe(addr) is None:
                cache.insert(addr, 0, values)
        elif op == "write":
            cache.writeback(addr, 0, values)
        elif op == "invalidate":
            cache.invalidate(addr)
        else:
            cache.lookup(addr)
    cache.check_invariants()
    # Conservation: every data entry has >= 1 tag; occupancies agree.
    assert cache.data.occupied == len(cache.data.resident())
    assert cache.tags.occupied == len(cache.tags.resident())
    for entry in cache.data.resident():
        assert cache.tags.list_length(entry.head) >= 1


@given(_ops)
@settings(max_examples=30, deadline=None)
def test_doppelganger_lookup_consistency(ops):
    """After any sequence, a tag hit implies a locatable data entry."""
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = DoppelgangerConfig(
        tag_entries=16, tag_ways=4, data_fraction=0.5, data_ways=4, map=MapConfig(8)
    )
    cache = DoppelgangerCache(cfg, regions=regions)
    inserted = set()
    for op, bid, value, spread in ops:
        addr = bid * 64
        values = np.full(16, value)
        if op == "insert" and cache.tags.probe(addr) is None:
            cache.insert(addr, 0, values)
            inserted.add(addr)
    for addr in inserted:
        if cache.tags.probe(addr) is not None:
            assert cache.lookup(addr).hit
            assert cache.resident_value_id(addr) != -2  # resolvable
