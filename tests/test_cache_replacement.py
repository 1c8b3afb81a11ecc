"""Unit tests for the replacement-ordered sets every array keeps."""

import random

import pytest

from repro.cache.replacement import POLICIES, ReplacementSets


def filled(policy, keys):
    """One set of one way per key, filled with ``keys`` in order (each
    key its own value)."""
    repl = ReplacementSets(1, len(keys), policy)
    for key in keys:
        assert repl.insert(0, key, key) is None
    return repl


def victim(repl, key="new"):
    """The key a fill of ``key`` evicts from the full set."""
    evicted = repl.insert(0, key, key)
    assert evicted is not None and evicted[1] == evicted[0]
    return evicted[0]


class TestLRU:
    def test_initial_victim_is_way_zero(self):
        assert victim(filled("lru", [0, 1, 2, 3])) == 0

    def test_access_moves_way_to_mru(self):
        repl = filled("lru", [0, 1, 2, 3])
        repl.touch(0, 0)
        assert victim(repl) == 1

    def test_victim_is_least_recent(self):
        repl = filled("lru", [0, 1, 2, 3])
        repl.touch(0, 2)
        repl.touch(0, 0)  # order now: 1, 3, 2, 0
        assert victim(repl, "a") == 1
        assert victim(repl, "b") == 3

    def test_fill_counts_as_access(self):
        repl = filled("lru", [0, 1])
        assert victim(repl, 2) == 0
        assert victim(repl, 3) == 1

    def test_recency_order_complete(self):
        repl = filled("lru", list(range(8)))
        for key in (5, 2, 7, 2):
            repl.touch(0, key)
        assert sorted(repl.sets[0]) == list(range(8))
        assert list(repl.sets[0])[-2:] == [7, 2]

    def test_repeated_access_stable(self):
        repl = filled("lru", [0, 1, 2, 3])
        for _ in range(10):
            repl.touch(0, 2)
        assert victim(repl) == 0

    def test_sequence(self):
        repl = filled("lru", [0, 1, 2])
        for key in (0, 1):
            repl.touch(0, key)
        assert victim(repl) == 2


class TestFIFO:
    def test_fill_order_determines_victim(self):
        assert victim(filled("fifo", [3, 1, 0, 2])) == 3

    def test_hits_do_not_change_order(self):
        repl = filled("fifo", [0, 1, 2, 3])
        repl.touch(0, 0)
        assert victim(repl) == 0

    def test_refill_moves_to_back(self):
        repl = filled("fifo", [0, 1])
        assert repl.remove(0, 0) == 0
        repl.insert(0, 0, 0)
        assert victim(repl) == 1


class TestRandom:
    def test_victim_in_range(self):
        repl = filled("random", list(range(8)))
        for key in range(8, 58):
            resident = set(repl.sets[0])
            assert victim(repl, key) in resident

    def test_deterministic_per_seed(self):
        a = filled("random", list(range(8)))
        b = filled("random", list(range(8)))
        assert [victim(a, k) for k in range(8, 13)] == [victim(b, k) for k in range(8, 13)]

    def test_covers_ways(self):
        repl = filled("random", [0, 1, 2, 3])
        # A fill takes its victim's way.
        way_of = {key: key for key in range(4)}
        seen = set()
        for key in range(4, 204):
            way = way_of.pop(victim(repl, key))
            way_of[key] = way
            seen.add(way)
        assert seen == {0, 1, 2, 3}

    def test_free_way_taken_lowest_first(self):
        repl = filled("random", [0, 1, 2, 3])
        repl.remove(0, 2)
        repl.remove(0, 0)
        repl.insert(0, "x", "x")  # takes way 0
        repl.insert(0, "y", "y")  # takes way 2
        rng = random.Random(0)
        want = [["x", 1, "y", 3][rng.randrange(4)]]
        assert [victim(repl)] == want


class TestFactory:
    def test_all_names_construct(self):
        for name in POLICIES:
            repl = ReplacementSets(3, 4, name)
            assert repl.ways == 4
            assert repl.sets == [{}, {}, {}]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            ReplacementSets(4, 4, "mru")

    def test_zero_ways_raises(self):
        with pytest.raises(ValueError):
            ReplacementSets(4, 0, "lru")

    def test_random_uses_seed(self):
        """Every set draws its victim ways from its own
        ``random.Random(0)``, whatever the other sets do."""
        repl = ReplacementSets(2, 8, "random")
        for set_idx in (0, 1):
            for key in range(8):
                repl.insert(set_idx, key, key)
        way_of = {key: key for key in range(8)}  # set 0's
        drawn = []
        for key in range(8, 14):
            repl.insert(1, key, key)  # set 1 draws in between
            way = way_of.pop(repl.insert(0, key, key)[0])
            way_of[key] = way
            drawn.append(way)
        rng = random.Random(0)
        assert drawn == [rng.randrange(8) for _ in range(6)]
