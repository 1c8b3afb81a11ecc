"""Sharing-aware data-array replacement (the paper's future work).

Sec. 3.5: "A more specialized replacement algorithm could take into
account additional aspects of the Doppelgänger cache (e.g., the number
of tags associated to a data entry), but the study of such variants of
the replacement policy is left for future work."

This module implements that variant: a data entry shared by many tags
is worth more (evicting it invalidates the whole list and may trigger a
burst of writebacks/back-invalidations), so the data array evicts the
least-shared entry of a full set, the least recent among equals.

Wire-up: :func:`make_sharing_aware` ranks a built
:class:`~repro.core.doppelganger.DoppelgangerCache`'s data array by
live tag-list length. The ablation bench
``benchmarks/test_ablation_sharing_aware.py`` measures the effect.
"""

from __future__ import annotations

from repro.core.doppelganger import DoppelgangerCache


def make_sharing_aware(cache: DoppelgangerCache) -> DoppelgangerCache:
    """Rank the data array's entries by their tag-list length.

    A full set then evicts its least-shared entry; its LRU order breaks
    ties. Returns the same cache instance (mutated) for chaining. Raises
    ``ValueError`` unless the data array replaces by LRU.
    """
    repl = cache.data._repl
    if not repl.lru:
        raise ValueError(
            f"sharing-aware replacement needs an LRU data array, "
            f"not {cache.config.policy!r}"
        )
    list_length = cache.tags.list_length
    repl.rank = lambda entry: list_length(entry.head)
    return cache
