"""Replacement order for set-associative arrays.

The paper uses LRU in every array (Sec. 3.5) and calls specialized
replacement a future-work item; the ablation benches
``benchmarks/test_ablation_replacement.py`` (FIFO, random) and
``benchmarks/test_ablation_sharing_aware.py`` (fewest sharing tags
first) exercise the alternatives. Every array of the reproduction keeps
its sets in one :class:`ReplacementSets`: the conventional
:class:`~repro.cache.set_assoc.SetAssociativeCache`, the Doppelgänger
tag and MTag arrays and the functional error model.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

#: The replacement policy names.
POLICIES = ("fifo", "lru", "random")


class ReplacementSets:
    """An array's sets, each one ``key -> value`` dict in replacement
    order, the next victim first.

    A fill appends its key. An LRU hit (:meth:`touch`) moves its key to
    the back; a FIFO or random hit leaves it in place. A full set evicts
    its first key, except that:

    * under random replacement, each set also keeps a way -> key slot
      list (a fill takes the lowest free way) and evicts the key in a
      way drawn from the set's own ``random.Random(0)``;
    * when :attr:`rank` is set (only the sharing-aware ablation sets
      it), a full set evicts its lowest-ranked value, the first in
      order among equals.

    A value is never None: :meth:`remove` reads None as "absent".

    Args:
        num_sets: number of sets.
        ways: associativity.
        policy: ``lru``, ``fifo`` or ``random``.
    """

    __slots__ = ("sets", "ways", "lru", "rank", "_rngs", "_slots")

    def __init__(self, num_sets: int, ways: int, policy: str = "lru"):
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown replacement policy {policy!r}; choose from {list(POLICIES)}"
            )
        self.sets: List[dict] = [{} for _ in range(num_sets)]
        self.ways = ways
        self.lru = policy == "lru"
        #: Optional ``value -> int``: a full set evicts its lowest rank.
        self.rank: Optional[Callable] = None
        self._rngs = self._slots = None
        if policy == "random":
            self._rngs = [random.Random(0) for _ in range(num_sets)]
            self._slots = [[None] * ways for _ in range(num_sets)]

    def touch(self, set_idx: int, key) -> None:
        """A hit on resident ``key``: LRU moves it to the back."""
        if self.lru:
            entries = self.sets[set_idx]
            entries[key] = entries.pop(key)

    def insert(self, set_idx: int, key, value) -> Optional[tuple]:
        """Store a new ``key``; return the evicted ``(key, value)``, or
        None when the set had a free way."""
        entries = self.sets[set_idx]
        evicted = None
        if len(entries) >= self.ways:
            if self.rank is not None:
                rank = self.rank
                victim = min(entries, key=lambda k: rank(entries[k]))
            elif self._rngs is not None:
                victim = self._slots[set_idx][self._rngs[set_idx].randrange(self.ways)]
            else:
                victim = next(iter(entries))
            evicted = (victim, entries.pop(victim))
        entries[key] = value
        if self._slots is not None:
            # The lowest free way, or the victim's.
            slots = self._slots[set_idx]
            slots[slots.index(None if evicted is None else evicted[0])] = key
        return evicted

    def remove(self, set_idx: int, key):
        """Drop ``key`` if resident; return its value (None if absent)."""
        value = self.sets[set_idx].pop(key, None)
        if value is not None and self._slots is not None:
            slots = self._slots[set_idx]
            slots[slots.index(key)] = None
        return value
