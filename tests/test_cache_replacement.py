"""Unit tests for replacement policies."""

import pytest

from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    make_policy,
    policy_names,
)


class TestLRU:
    def test_initial_victim_is_way_zero(self):
        policy = LRUPolicy(4)
        assert policy.victim() == 0

    def test_access_moves_way_to_mru(self):
        policy = LRUPolicy(4)
        policy.on_access(0)
        assert policy.victim() == 1

    def test_victim_is_least_recent(self):
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.on_fill(way)
        policy.on_access(0)  # order now: 1,2,3,0
        assert policy.victim() == 1

    def test_fill_counts_as_access(self):
        policy = LRUPolicy(2)
        policy.on_fill(0)
        policy.on_fill(1)
        assert policy.victim() == 0

    def test_recency_order_complete(self):
        policy = LRUPolicy(8)
        assert sorted(policy.recency_order()) == list(range(8))

    def test_repeated_access_stable(self):
        policy = LRUPolicy(4)
        for _ in range(10):
            policy.on_access(2)
        assert policy.victim() == 0

    def test_sequence(self):
        policy = LRUPolicy(3)
        for way in (0, 1, 2, 0, 1):
            policy.on_access(way)
        assert policy.victim() == 2


class TestFIFO:
    def test_fill_order_determines_victim(self):
        policy = FIFOPolicy(4)
        for way in (3, 1, 0, 2):
            policy.on_fill(way)
        assert policy.victim() == 3

    def test_hits_do_not_change_order(self):
        policy = FIFOPolicy(4)
        for way in (0, 1, 2, 3):
            policy.on_fill(way)
        policy.on_access(0)
        assert policy.victim() == 0

    def test_refill_moves_to_back(self):
        policy = FIFOPolicy(2)
        policy.on_fill(0)
        policy.on_fill(1)
        policy.on_fill(0)
        assert policy.victim() == 1


class TestRandom:
    def test_victim_in_range(self):
        policy = RandomPolicy(8, seed=3)
        for _ in range(50):
            assert 0 <= policy.victim() < 8

    def test_deterministic_per_seed(self):
        a = [RandomPolicy(8, seed=5).victim() for _ in range(5)]
        b = [RandomPolicy(8, seed=5).victim() for _ in range(5)]
        assert a == b

    def test_covers_ways(self):
        policy = RandomPolicy(4, seed=9)
        seen = {policy.victim() for _ in range(200)}
        assert seen == {0, 1, 2, 3}


class TestFactory:
    def test_all_names_construct(self):
        for name in policy_names():
            policy = make_policy(name, 4)
            assert policy.ways == 4

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("mru", 4)

    def test_zero_ways_raises(self):
        with pytest.raises(ValueError):
            make_policy("lru", 0)

    def test_random_uses_seed(self):
        a = make_policy("random", 8, seed=1)
        b = make_policy("random", 8, seed=1)
        assert [a.victim() for _ in range(5)] == [b.victim() for _ in range(5)]
