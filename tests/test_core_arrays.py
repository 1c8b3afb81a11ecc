"""Unit tests for the decoupled tag array and MTag/data array."""

import random
from collections import Counter

import numpy as np
import pytest

from repro.core.config import DoppelgangerConfig
from repro.core.data_array import MTagDataArray
from repro.core.doppelganger import DoppelgangerCache
from repro.core.maps import MapConfig
from repro.core.replacement_ext import make_sharing_aware
from repro.core.tag_array import TagArray
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap

from way_policies import make_policy


class TestTagArrayGeometry:
    def test_entry_count(self):
        tags = TagArray(1024, 16)
        assert tags.num_sets == 64

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            TagArray(1000, 16)


class TestTagArrayOps:
    def test_probe_empty(self):
        tags = TagArray(64, 4)
        assert tags.probe(0x1000) is None

    def test_allocate_then_probe(self):
        tags = TagArray(64, 4)
        alloc = tags.allocate(0x1000)
        assert alloc.victim is None
        assert tags.probe(0x1000) is alloc.entry

    def test_allocate_resident_raises(self):
        tags = TagArray(64, 4)
        tags.allocate(0x1000)
        with pytest.raises(ValueError):
            tags.allocate(0x1000)

    def test_eviction_when_set_full(self):
        tags = TagArray(16, 4)  # 4 sets
        stride = tags.num_sets * tags.block_size
        for i in range(4):
            tags.allocate(i * stride)
        alloc = tags.allocate(4 * stride)
        assert alloc.victim is not None
        assert alloc.victim.addr == 0

    def test_touch_changes_victim(self):
        tags = TagArray(16, 4)
        stride = tags.num_sets * tags.block_size
        entries = [tags.allocate(i * stride).entry for i in range(4)]
        tags.touch(entries[0])
        alloc = tags.allocate(4 * stride)
        assert alloc.victim.addr == stride

    def test_invalidate_frees_way(self):
        tags = TagArray(16, 4)
        stride = tags.num_sets * tags.block_size
        entries = [tags.allocate(i * stride).entry for i in range(4)]
        tags.invalidate(entries[2])
        assert tags.probe(2 * stride) is None
        alloc = tags.allocate(4 * stride)
        assert alloc.victim is None

    def test_invalidate_nonresident_raises(self):
        tags = TagArray(16, 4)
        entry = tags.allocate(0).entry
        tags.invalidate(entry)
        with pytest.raises(ValueError):
            tags.invalidate(entry)

    def test_occupied_counter(self):
        tags = TagArray(64, 4)
        tags.allocate(0)
        tags.allocate(64)
        assert tags.occupied == 2


class TestTagLinkedLists:
    def test_list_length_and_iter(self):
        tags = TagArray(64, 4)
        a = tags.allocate(0).entry
        b = tags.allocate(64).entry
        a.next = b
        b.prev = a
        assert tags.list_length(a) == 2
        assert [e.addr for e in tags.iter_list(a)] == [0, 64]

    def test_null_list_empty(self):
        tags = TagArray(64, 4)
        assert tags.list_length(None) == 0


class TestDataArray:
    def test_probe_empty(self):
        data = MTagDataArray(64, 4)
        assert data.probe(12345) is None

    def test_allocate_then_probe(self):
        data = MTagDataArray(64, 4)
        alloc = data.allocate(12345)
        assert data.probe(12345) is alloc.entry

    def test_precise_and_approx_distinct(self):
        data = MTagDataArray(64, 4)
        data.allocate(7, precise=False)
        assert data.probe(7, precise=True) is None
        data.allocate(7, precise=True)
        assert data.probe(7, precise=True) is not None

    def test_allocate_resident_raises(self):
        data = MTagDataArray(64, 4)
        data.allocate(7)
        with pytest.raises(ValueError):
            data.allocate(7)

    def test_eviction_when_set_full(self):
        data = MTagDataArray(16, 4)  # 4 sets
        maps = []
        m = 0
        while len(maps) < 5:  # five maps hitting the same set
            if data.set_index(m) == data.set_index(0) and m not in maps:
                maps.append(m)
            m += 1
        for mv in maps[:4]:
            data.allocate(mv)
        alloc = data.allocate(maps[4])
        assert alloc.victim is not None
        assert alloc.victim.map_value == maps[0]

    def test_free_releases_entry(self):
        data = MTagDataArray(64, 4)
        entry = data.allocate(7).entry
        data.free(entry)
        assert data.probe(7) is None
        assert data.occupied == 0

    def test_free_nonresident_raises(self):
        data = MTagDataArray(64, 4)
        entry = data.allocate(7).entry
        data.free(entry)
        with pytest.raises(ValueError):
            data.free(entry)

    def test_touch_protects_from_eviction(self):
        data = MTagDataArray(16, 4)
        maps = []
        m = 0
        while len(maps) < 5:
            if data.set_index(m) == data.set_index(0) and m not in maps:
                maps.append(m)
            m += 1
        entries = [data.allocate(mv).entry for mv in maps[:4]]
        data.touch(entries[0])
        alloc = data.allocate(maps[4])
        assert alloc.victim is entries[1]

    def test_non_pow2_sets_supported(self):
        # The 3/4 uniDoppelgänger data array has 1536 sets.
        data = MTagDataArray(24 * 64, 16)
        assert data.num_sets == 96
        data.allocate(12345)
        assert data.probe(12345) is not None


class _WayArray:
    """A way-based reference for one array's replacement order.

    Each set keeps a ``way -> key`` slot list and a replacement policy
    object from :func:`make_policy` (so a random set draws from the
    same seeded generator as the array's). A fill takes the lowest free
    way; a full set evicts the way the policy names; a hit touches its
    way; a removal frees it.
    """

    def __init__(self, num_sets, ways, policy):
        self.slots = [[None] * ways for _ in range(num_sets)]
        self.policies = [make_policy(policy, ways) for _ in range(num_sets)]

    def find(self, set_idx, key):
        slots = self.slots[set_idx]
        return slots.index(key) if key in slots else None

    def touch(self, set_idx, key):
        self.policies[set_idx].on_access(self.slots[set_idx].index(key))

    def fill(self, set_idx, key):
        """Install ``key``; return the evicted key (None: a free way)."""
        slots = self.slots[set_idx]
        victim = None
        if None in slots:
            way = slots.index(None)
        else:
            way = self.policies[set_idx].victim()
            victim = slots[way]
        slots[way] = key
        self.policies[set_idx].on_fill(way)
        return victim

    def remove(self, set_idx, key):
        slots = self.slots[set_idx]
        way = slots.index(key)
        slots[way] = None
        self.policies[set_idx].on_invalidate(way)

    def resident(self):
        return {
            (set_idx, key)
            for set_idx, slots in enumerate(self.slots)
            for key in slots
            if key is not None
        }


#: (entries, ways): 16 sets of 4, 16 of 2, 4 of 16 and one fully
#: associative set of 8.
TAG_GEOMETRIES = [(64, 4), (32, 2), (64, 16), (8, 8)]
#: The same shapes of MTag array, plus the 96-set array of the 3/4
#: uniDoppelgänger design (a non-power-of-two set count).
DATA_GEOMETRIES = [(64, 4), (32, 2), (8, 8), (96 * 16, 16)]


@pytest.mark.parametrize("entries,ways", TAG_GEOMETRIES,
                         ids=[f"{e}x{w}way" for e, w in TAG_GEOMETRIES])
@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
def test_tag_array_order_matches_way_model(policy, entries, ways):
    """Every probe and victim of seeded mixed sequences (allocate on a
    miss, touch or invalidate on a hit), and the resident set at the
    end, equal the way-based model's."""
    for seed in range(5):
        rng = random.Random(seed)
        tags = TagArray(entries, ways, policy=policy)
        model = _WayArray(tags.num_sets, ways, policy)
        evictions = 0
        for _ in range(40 * entries):
            addr = rng.randrange(3 * entries) * tags.block_size
            set_idx, key = tags.set_index(addr), addr
            entry = tags.probe(addr)
            assert (entry is None) == (model.find(set_idx, key) is None)
            if entry is None:
                victim = tags.allocate(addr).victim
                want = model.fill(set_idx, key)
                assert (None if victim is None else victim.addr) == want
                assert victim is None or victim.set_idx == set_idx
                evictions += victim is not None
            elif rng.random() < 0.8:
                tags.touch(entry)
                model.touch(set_idx, key)
            else:
                tags.invalidate(entry)
                model.remove(set_idx, key)
        assert evictions
        want = model.resident()
        assert {(e.set_idx, e.addr) for e in tags.resident()} == want
        assert tags.occupied == len(want)


@pytest.mark.parametrize("entries,ways", DATA_GEOMETRIES,
                         ids=[f"{e}x{w}way" for e, w in DATA_GEOMETRIES])
@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
def test_data_array_order_matches_way_model(policy, entries, ways):
    """Every probe and victim of seeded mixed sequences over precise and
    approximate keys (allocate on a miss, touch or free on a hit), and
    the resident set at the end, equal the way-based model's."""
    for seed in range(5):
        rng = random.Random(seed)
        data = MTagDataArray(entries, ways, policy=policy)
        model = _WayArray(data.num_sets, ways, policy)
        evictions = 0
        for _ in range(min(40 * entries, 20000)):
            map_value = rng.randrange(3 * entries)
            precise = rng.random() < 0.25
            set_idx, key = data.set_index(map_value), (precise, map_value)
            entry = data.probe(map_value, precise)
            assert (entry is None) == (model.find(set_idx, key) is None)
            if entry is None:
                victim = data.allocate(map_value, precise).victim
                want = model.fill(set_idx, key)
                assert (None if victim is None
                        else (victim.precise, victim.map_value)) == want
                evictions += victim is not None
            elif rng.random() < 0.8:
                data.touch(entry)
                model.touch(set_idx, key)
            else:
                data.free(entry)
                model.remove(set_idx, key)
        assert evictions
        want = model.resident()
        assert {(e.set_idx, (e.precise, e.map_value))
                for e in data.resident()} == want
        assert data.occupied == len(want)


@pytest.mark.parametrize("seed", range(4))
def test_sharing_aware_victims_match_reference(seed):
    """Under ``make_sharing_aware`` every data-array victim is the entry
    with the smallest (tag-list length, recency): among a full set's
    entries in LRU order, the first with the fewest resident tags that
    map to it."""
    regions = RegionMap(
        [Region("r", 0, 1 << 20, DType.F32, approx=True, vmin=0.0, vmax=100.0)]
    )
    cfg = DoppelgangerConfig(
        tag_entries=64, tag_ways=4, data_fraction=0.25, data_ways=4,
        map=MapConfig(10),
    )
    cache = make_sharing_aware(DoppelgangerCache(cfg, regions=regions))
    data = cache.data
    # The reference's own LRU order per set, kept from the calls the
    # cache makes on its data array.
    order = [[] for _ in range(data.num_sets)]
    touch, allocate, free = data.touch, data.allocate, data.free
    checked = []

    def spy_touch(entry):
        keys = order[entry.set_idx]
        keys.remove((entry.precise, entry.map_value))
        keys.append((entry.precise, entry.map_value))
        touch(entry)

    def spy_allocate(map_value, precise=False):
        keys = order[data.set_index(map_value)]
        want = None
        if len(keys) == data.ways:
            shared = Counter(
                (t.precise, t.map_value) for t in cache.tags.resident()
            )
            want = min(keys, key=lambda k: shared[k])
            keys.remove(want)
            checked.append(want)
        alloc = allocate(map_value, precise)
        victim = alloc.victim
        assert (None if victim is None
                else (victim.precise, victim.map_value)) == want
        keys.append((precise, map_value))
        return alloc

    def spy_free(entry):
        order[entry.set_idx].remove((entry.precise, entry.map_value))
        free(entry)

    data.touch, data.allocate, data.free = spy_touch, spy_allocate, spy_free
    rng = random.Random(seed)
    for _ in range(3000):
        addr = rng.randrange(256) * 64
        values = np.full(16, float(rng.randrange(48)))
        op = rng.random()
        if cache.tags.probe(addr) is None:
            cache.insert(addr, 0, values)
        elif op < 0.5:
            cache.lookup(addr)
        elif op < 0.9:
            cache.writeback(addr, 0, values)
        else:
            cache.invalidate(addr)
    cache.check_invariants()
    assert len(checked) > 50
