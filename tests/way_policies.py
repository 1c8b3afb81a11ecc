"""Way-based replacement policies, the reference for the differential tests.

A policy object manages one cache set of ``ways`` ways. Its owner tells
it when a way is touched, filled or invalidated, and asks it for a
victim way when the set is full. ``tests/test_cache_set_assoc.py`` and
``tests/test_core_arrays.py`` keep one per set of a way-slot model and
compare every victim with the arrays' own
:class:`~repro.cache.replacement.ReplacementSets`.
"""

import random


class ReplacementPolicy:
    """Per-set replacement bookkeeping over ways ``range(ways)``.

    :meth:`victim` is only called when no way is free.
    """

    def __init__(self, ways):
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.ways = ways

    def on_access(self, way):
        """A hit touched ``way``."""

    def on_fill(self, way):
        """A new block was installed in ``way``."""

    def on_invalidate(self, way):
        """``way`` was invalidated and is now free."""

    def victim(self):
        """Pick the way to evict from a full set."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True least-recently-used order."""

    def __init__(self, ways):
        super().__init__(ways)
        # Most recent last; starts in way order.
        self._order = list(range(ways))

    def on_access(self, way):
        self._order.remove(way)
        self._order.append(way)

    on_fill = on_access

    def victim(self):
        return self._order[0]


class FIFOPolicy(LRUPolicy):
    """First-in first-out: eviction order follows fill order."""

    def on_access(self, way):
        pass  # FIFO ignores hits.

    on_fill = LRUPolicy.on_access


class RandomPolicy(ReplacementPolicy):
    """Uniform random victims from a generator seeded with ``seed``."""

    def __init__(self, ways, seed=0):
        super().__init__(ways)
        self._rng = random.Random(seed)

    def victim(self):
        return self._rng.randrange(self.ways)


_POLICIES = {"lru": LRUPolicy, "fifo": FIFOPolicy, "random": RandomPolicy}


def make_policy(name, ways):
    """One set's policy by name (a random one seeded with 0)."""
    return _POLICIES[name](ways)
