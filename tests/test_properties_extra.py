"""Additional property-based tests: data array, uniDoppelgänger, BΔI."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import UniDoppelgangerConfig
from repro.core.data_array import MTagDataArray
from repro.core.maps import MapConfig, MapGenerator
from repro.core.unidoppelganger import UniDoppelgangerCache
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap

RID = 0


# --------------------------------------------------------------- data array


@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200))
@settings(max_examples=50)
def test_data_array_probe_after_allocate(map_values):
    data = MTagDataArray(64, 4)
    resident = set()
    for mv in map_values:
        if data.probe(mv) is None:
            alloc = data.allocate(mv)
            resident.add(mv)
            if alloc.victim is not None:
                resident.discard(alloc.victim.map_value)
        assert data.probe(mv) is not None
    assert data.occupied <= 64
    for mv in resident:
        assert data.probe(mv) is not None


@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=100))
@settings(max_examples=30)
def test_data_array_precise_and_approx_never_alias(map_values):
    data = MTagDataArray(64, 4)
    for mv in map_values:
        if data.probe(mv, precise=False) is None:
            data.allocate(mv, precise=False)
        entry = data.probe(mv, precise=False)
        if entry is not None:
            assert not entry.precise


# ----------------------------------------------------------- uniDoppelgänger

_uni_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert_a", "insert_p", "write_a", "write_p", "lookup"]),
        st.integers(0, 31),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)


@given(_uni_ops)
@settings(max_examples=40, deadline=None)
def test_unidoppelganger_invariants_random_mix(ops):
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = UniDoppelgangerConfig(
        tag_entries=32, tag_ways=4, data_fraction=0.5, data_ways=4,
        map=MapConfig(10),
    )
    cache = UniDoppelgangerCache(cfg, regions=regions)
    for op, bid, value in ops:
        addr = bid * 64
        values = np.full(16, value)
        resident = cache.tags.probe(addr) is not None
        if op == "insert_a" and not resident:
            cache.insert_block(addr, True, region_id=RID, values=values)
        elif op == "insert_p" and not resident:
            cache.insert_block(addr, False)
        elif op == "write_a":
            entry = cache.tags.probe(addr)
            if entry is None or not entry.precise:
                cache.writeback_block(addr, True, region_id=RID, values=values)
        elif op == "write_p":
            entry = cache.tags.probe(addr)
            if entry is None or entry.precise:
                cache.writeback_block(addr, False)
        else:
            cache.lookup(addr)
    cache.check_invariants()
    # Precise entries are never shared.
    for entry in cache.data.resident():
        if entry.precise:
            assert cache.tags.list_length(entry.head) == 1


# ------------------------------------------------------------------- energy


@given(st.integers(6, 12))
@settings(max_examples=10)
def test_structure_size_accounting_additive(kb_exp):
    from repro.energy.structures import conventional_structure

    size = (1 << kb_exp) * 1024  # 64 KB .. 4 MB, power of two
    s = conventional_structure("x", size)
    assert s.data_kb == size / 1024
    assert s.total_kb > s.data_kb  # tags add overhead


# --------------------------------------------------------------------- maps


@given(
    st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e5, allow_nan=False),
)
def test_map_translation_invariance_of_range_hash(offset, span):
    """The range hash depends only on spread, not position."""
    vmin, vmax = offset, offset + span
    gen = MapGenerator(MapConfig(14, ("range",)), vmin, vmax, DType.F32)
    base = np.linspace(vmin, vmin + span / 4, 16)
    shifted = base + span / 3
    shifted = np.clip(shifted, vmin, vmax)
    if shifted.max() - shifted.min() == base.max() - base.min():
        assert gen.compute(base) == gen.compute(shifted)
