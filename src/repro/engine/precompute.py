"""Trace-level precomputation shared by the simulation engines.

Two kinds of work are hoisted out of the per-access loop:

* **Column conversion** — the trace's numpy columns are converted to
  plain Python lists (scalar indexing into numpy arrays allocates a
  numpy scalar per touch and dominated the seed profile), with the
  offset bits of every address cleared in one numpy pass. The batched
  engine also asks for its gap column as issue slots per access
  (``gap + l1_latency × issue_width``), added in the same pass.
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

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.core.maps import hash_values


class TraceColumns(NamedTuple):
    """Per-run plain-Python views of a trace, block-aligned.

    The fields follow the argument order of
    :func:`~repro.engine.step.process_access`, so ``zip(*columns)``
    yields its per-access arguments (the gaps offset by ``slot_base``).
    """

    cores: List[int]
    baddrs: List[int]  # byte addresses with offset bits stripped
    writes: List[bool]
    approx: List[bool]
    region_ids: List[int]
    value_ids: List[int]
    gaps: List[int]  # instruction gaps, plus the caller's slot_base


def trace_columns(trace, block_size: int, slot_base: int = 0) -> TraceColumns:
    """Convert a trace's columns for fast per-access iteration.

    ``slot_base`` is added to every gap.
    """
    gaps = trace.gaps
    if slot_base:
        gaps = np.add(gaps, slot_base, dtype=np.int64)
    return TraceColumns(
        cores=trace.cores.tolist(),
        baddrs=(trace.addrs & np.int64(~(block_size - 1))).tolist(),
        writes=trace.is_write.tolist(),
        approx=trace.approx.tolist(),
        region_ids=trace.region_ids.tolist(),
        value_ids=trace.value_ids.tolist(),
        gaps=gaps.tolist(),
    )


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
