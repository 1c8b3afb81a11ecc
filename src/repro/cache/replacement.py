"""Replacement policies for set-associative structures.

The paper uses LRU in every array (Sec. 3.5) but explicitly calls the
study of specialized replacement a future-work item, so the substrate
ships several policies; the ablation bench
``benchmarks/test_ablation_replacement.py`` exercises them.

A policy instance manages a single cache *set* of ``ways`` ways. The
cache tells the policy when a way is touched, filled or invalidated, and
asks it for a victim way when the set is full. The Doppelgänger tag and
data arrays keep one policy per set. A
:class:`~repro.cache.set_assoc.SetAssociativeCache` keeps LRU and FIFO
order in its per-set dicts instead, and asks a :class:`RandomPolicy`
per set for random victims.
"""

from __future__ import annotations

import random
from typing import Optional


class ReplacementPolicy:
    """Interface for per-set replacement bookkeeping.

    Ways are identified by their index in ``range(ways)``. The owning
    cache guarantees that :meth:`victim` is only called when no invalid
    way exists (callers prefer invalid ways as fill targets).
    """

    name = "base"

    def __init__(self, ways: int):
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways

    def on_access(self, way: int) -> None:
        """A hit touched ``way``."""
        raise NotImplementedError

    def on_fill(self, way: int) -> None:
        """A new block was installed in ``way``."""
        raise NotImplementedError

    def on_invalidate(self, way: int) -> None:
        """``way`` was invalidated and is now free."""

    def victim(self) -> int:
        """Pick the way to evict from a full set."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used order, the paper's policy for all arrays."""

    name = "lru"

    def __init__(self, ways: int):
        super().__init__(ways)
        # Insertion-ordered dict, most-recent last: re-inserting a key
        # moves it to the end in O(1), where a list's remove() walks the
        # set. Starts in way order so that victims of a never-touched
        # set are deterministic.
        self._order = dict.fromkeys(range(ways))

    def on_access(self, way: int) -> None:
        order = self._order
        del order[way]
        order[way] = None

    def on_fill(self, way: int) -> None:
        order = self._order
        del order[way]
        order[way] = None

    def victim(self) -> int:
        return next(iter(self._order))

    def recency_order(self) -> list:
        """Ways ordered least- to most-recently used (for tests)."""
        return list(self._order)


class FIFOPolicy(ReplacementPolicy):
    """First-in first-out: eviction order follows fill order."""

    name = "fifo"

    def __init__(self, ways: int):
        super().__init__(ways)
        self._queue = dict.fromkeys(range(ways))

    def on_access(self, way: int) -> None:
        # FIFO ignores hits.
        pass

    def on_fill(self, way: int) -> None:
        queue = self._queue
        queue.pop(way, None)
        queue[way] = None

    def victim(self) -> int:
        return next(iter(self._queue))


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim selection (seeded for reproducibility)."""

    name = "random"

    def __init__(self, ways: int, seed: int = 0):
        super().__init__(ways)
        self._rng = random.Random(seed)

    def on_access(self, way: int) -> None:
        pass

    def on_fill(self, way: int) -> None:
        pass

    def victim(self) -> int:
        return self._rng.randrange(self.ways)


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, ways: int, seed: Optional[int] = None) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Args:
        name: one of ``lru``, ``fifo``, ``random``.
        ways: set associativity.
        seed: RNG seed, honoured by the random policy only.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    if cls is RandomPolicy:
        return cls(ways, seed=0 if seed is None else seed)
    return cls(ways)


def policy_names() -> list:
    """All registered policy names, sorted."""
    return sorted(_POLICIES)
