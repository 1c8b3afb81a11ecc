"""Generic set-associative cache substrate.

This package provides the building blocks shared by every cache model in
the reproduction: the per-set replacement order (LRU, FIFO or random)
that every array keeps its sets in, a conventional
set-associative cache (each resident block one integer state, whose
dirty bit is its MSI state), a writeback buffer and a statistics
container. The Doppelgänger structures in :mod:`repro.core` and the
hierarchy in :mod:`repro.hierarchy` are built on top of these.
"""

from repro.cache.replacement import ReplacementSets
from repro.cache.set_assoc import AccessResult, SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.writeback import WritebackBuffer

__all__ = [
    "AccessResult",
    "CacheStats",
    "ReplacementSets",
    "SetAssociativeCache",
    "WritebackBuffer",
]
