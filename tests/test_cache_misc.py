"""Unit tests for cache stats and the writeback buffer."""

import pytest

from repro.cache.stats import CacheStats
from repro.cache.writeback import WritebackBuffer


class TestCacheStats:
    def test_rates_zero_when_untouched(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.miss_rate == 0.0

    def test_merge_sums_counters(self):
        a = CacheStats(accesses=10, hits=6)
        b = CacheStats(accesses=4, hits=1)
        merged = a.merge(b)
        assert merged.accesses == 14
        assert merged.hits == 7

    def test_reset(self):
        stats = CacheStats(accesses=5)
        stats.reset()
        assert stats.accesses == 0


class TestWritebackBuffer:
    def test_enqueue_without_stall(self):
        buf = WritebackBuffer(capacity=4, drain_interval=10)
        assert buf.enqueue(0x40, now=0) == 0
        assert len(buf) == 1

    def test_drain_over_time(self):
        buf = WritebackBuffer(capacity=4, drain_interval=10)
        for i in range(3):
            buf.enqueue(i * 64, now=0)
        buf.tick(now=30)
        assert len(buf) == 0
        assert buf.drained == 3

    def test_full_buffer_stalls(self):
        buf = WritebackBuffer(capacity=2, drain_interval=10)
        buf.enqueue(0, now=0)
        buf.enqueue(64, now=0)
        stall = buf.enqueue(128, now=0)
        assert stall > 0
        assert buf.stall_cycles == stall

    def test_burst_accounting(self):
        buf = WritebackBuffer(capacity=2, drain_interval=10)
        total_stall = sum(buf.enqueue(i * 64, now=0) for i in range(6))
        assert buf.enqueued == 6
        assert total_stall > 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WritebackBuffer(capacity=0)
        with pytest.raises(ValueError):
            WritebackBuffer(drain_interval=0)
