"""Writeback buffer model.

Sec. 3.5 of the paper: evicting a Doppelgänger data block can invalidate
many tags at once, and every dirty tag generates a writeback that must be
queued into the LLC's writeback buffer before the data block is released.
This module models that buffer as a bounded FIFO that drains to memory at
a configurable rate, so the timing model can charge stall cycles when a
burst of multi-tag evictions fills it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


class WritebackBuffer:
    """Bounded FIFO of pending writebacks draining to main memory.

    Args:
        capacity: maximum queued entries before enqueues stall.
        drain_interval: cycles between successive drains to memory.
    """

    def __init__(self, capacity: int = 16, drain_interval: int = 20):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if drain_interval <= 0:
            raise ValueError(f"drain_interval must be positive, got {drain_interval}")
        self.capacity = capacity
        self.drain_interval = drain_interval
        self._queue: Deque[Tuple[int, int]] = deque()  # (addr, ready_cycle)
        self.enqueued = 0
        self.drained = 0
        self.stall_cycles = 0
        self._last_drain = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        """Whether an enqueue would stall."""
        return len(self._queue) >= self.capacity

    def tick(self, now: int) -> int:
        """Drain entries whose turn has come by cycle ``now``.

        Returns the number of entries drained to memory.
        """
        drained = 0
        while self._queue and now - self._last_drain >= self.drain_interval:
            self._queue.popleft()
            self._last_drain += self.drain_interval
            drained += 1
        if not self._queue:
            self._last_drain = max(self._last_drain, now)
        self.drained += drained
        return drained

    def enqueue(self, addr: int, now: int) -> int:
        """Queue a writeback at cycle ``now``.

        Returns the number of stall cycles incurred waiting for space
        (zero when the buffer had room).
        """
        self.tick(now)
        stall = 0
        while self.full:
            # Wait until the next drain slot frees an entry.
            wait = self.drain_interval - (now + stall - self._last_drain)
            wait = max(wait, 1)
            stall += wait
            self.tick(now + stall)
        self._queue.append((addr, now + stall))
        self.enqueued += 1
        self.stall_cycles += stall
        return stall
