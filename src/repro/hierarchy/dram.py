"""Main memory model.

A fixed-latency DRAM (160 cycles in Table 1) that counts reads and
writes; the off-chip traffic figure (Fig. 12) is derived directly from
these counters times the block size.
"""

from __future__ import annotations


class MainMemory:
    """Fixed-latency main memory with traffic accounting.

    Args:
        latency: access latency in cycles (Table 1: 160).
        block_size: transfer granularity in bytes.
    """

    def __init__(self, latency: int = 160, block_size: int = 64):
        if latency <= 0:
            raise ValueError(f"latency must be positive, got {latency}")
        self.latency = latency
        self.block_size = block_size
        self.reads = 0
        self.writes = 0

    def read(self, addr: int) -> int:
        """Fetch a block; returns the access latency in cycles."""
        self.reads += 1
        return self.latency

    def write(self, addr: int) -> int:
        """Write a block back; returns the access latency in cycles."""
        self.writes += 1
        return self.latency

    @property
    def total_accesses(self) -> int:
        """Reads plus writes."""
        return self.reads + self.writes

    @property
    def traffic_bytes(self) -> int:
        """Total off-chip traffic in bytes."""
        return self.total_accesses * self.block_size

    def reset(self) -> None:
        """Zero the counters."""
        self.reads = 0
        self.writes = 0
