"""Trace-level precomputation shared by the simulation engines.

Two kinds of work are hoisted out of the per-access loop:

* **Row stream** — :func:`trace_rows` converts the trace's numpy
  columns to plain Python values (scalar indexing into numpy arrays
  allocates a numpy scalar per touch and dominated the seed profile),
  :data:`CHUNK` records at a time, with the offset bits of every
  address cleared in the same numpy pass. Only one chunk is ever held
  as Python lists, so a run's memory does not grow with its trace.
  The batched engine also asks for its gaps as issue slots per access
  (``gap + l1_latency × issue_width``) and for each access's L1 set,
  both computed in the same pass.
* **Map seeding** — every (region, value-id) pair the run can possibly
  feed to the Doppelgänger map-generation path is enumerated from the
  trace (initial memory image + write records) and hashed once per
  trace and hash tuple (:func:`map_hashes`); each run only bins the
  hashes into its maps, in one call per region, instead of hashing per
  cold miss. Seeding only pre-fills the cache's memo —
  ``map_generations`` (the energy-model counter) still counts every
  hardware computation, so stats are unchanged.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.maps import hash_values

#: Records converted per chunk by :func:`trace_rows`: enough that the
#: per-chunk numpy calls cost nothing next to the scan, few enough
#: that one chunk's Python lists stay well under a megabyte.
CHUNK = 1 << 13


def run_length(trace, limit: Optional[int]) -> int:
    """Records a run of ``trace`` simulates: all, or the first ``limit``.

    A negative ``limit`` is a ``ValueError``.
    """
    if limit is None:
        return len(trace)
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    return min(limit, len(trace))


def trace_rows(trace, n: int, block_size: int, slot_base: int = 0,
               l1_sets: int = 0) -> Iterator[tuple]:
    """The first ``n`` records of ``trace`` as rows of Python values.

    Each row follows the argument order of
    :func:`~repro.engine.step.process_access`: core, block-aligned
    address, write bit, approximate bit, region id, value id and gap,
    the gap plus ``slot_base``. With ``l1_sets`` (the L1's set count)
    each row leads with one more field, ``core × l1_sets + the
    address's L1 set index``. Rows are converted :data:`CHUNK` at a
    time.
    """
    return chain.from_iterable(
        _row_chunks(trace, n, block_size, slot_base, l1_sets))


def _row_chunks(trace, n, block_size, slot_base, l1_sets):
    """One ``zip`` of converted columns per chunk of ``trace_rows``."""
    align = np.int64(-block_size)
    shift = block_size.bit_length() - 1
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        cores = trace.cores[lo:hi]
        addrs = trace.addrs[lo:hi] & align
        gaps = trace.gaps[lo:hi]
        if slot_base:
            gaps = np.add(gaps, slot_base, dtype=np.int64)
        cols = [
            cores.tolist(),
            addrs.tolist(),
            trace.is_write[lo:hi].tolist(),
            trace.approx[lo:hi].tolist(),
            trace.region_ids[lo:hi].tolist(),
            trace.value_ids[lo:hi].tolist(),
            gaps.tolist(),
        ]
        if l1_sets:
            sets = np.multiply(cores, l1_sets, dtype=np.int64)
            sets += (addrs >> shift) & (l1_sets - 1)
            cols.insert(0, sets.tolist())
        yield zip(*cols)
        # The zip is spent: free its lists before converting the next
        # chunk, so that only one chunk is ever held.
        del cols


def map_seed_pairs(trace) -> List[Tuple[int, int]]:
    """Reachable (region_id, value_id) map keys of a trace, sorted.

    A block's value id only ever comes from the initial memory image or
    from a write record, so the union of the two is a superset of every
    key the Doppelgänger map memo can be asked for. Cached on the trace
    (the set is identical for every config simulated over it).
    """
    cached = getattr(trace, "_map_seed_pairs", None)
    if cached is not None:
        return cached
    pairs = set()
    mask = trace.approx & (trace.value_ids >= 0)
    if mask.any():
        pairs.update(
            zip(trace.region_ids[mask].tolist(), trace.value_ids[mask].tolist())
        )
    regions = trace.regions
    for addr, vid in trace.initial_image.items():
        rid = regions.find_id(addr)
        if rid >= 0 and regions[rid].approx:
            pairs.add((rid, vid))
    result = sorted(pairs)
    trace._map_seed_pairs = result
    return result


def map_hashes(trace, hashes) -> List[tuple]:
    """The hash step of every reachable map key, cached per hash tuple.

    :func:`~repro.core.maps.hash_values` depends only on the region
    annotations and the hash names, never on the map bits, so it runs
    once per trace and hash tuple; every config simulated over the
    trace (dopp vs uni, any map-bit ablation) only bins the cached
    values (:meth:`~repro.core.maps.MapGenerator.compute_from_hashes`).
    Returns ``(region_id, value_ids, hash rows)`` groups covering the
    pairs of :func:`map_seed_pairs`.
    """
    cache = getattr(trace, "_map_hashes", None)
    if cache is None:
        cache = trace._map_hashes = {}
    groups = cache.get(hashes)
    if groups is not None:
        return groups
    values = trace.values
    by_key: dict = {}
    for rid, vid in map_seed_pairs(trace):
        # Rows of one region share a length, but group defensively.
        by_key.setdefault((rid, len(values[vid])), []).append(vid)
    groups = cache[hashes] = []
    for (rid, _), vids in by_key.items():
        region = trace.regions[rid]
        rows = hash_values(
            np.stack([values[v] for v in vids]),
            hashes, float(region.vmin), float(region.vmax),
        )
        groups.append((rid, vids, rows))
    return groups
