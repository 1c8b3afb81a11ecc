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
  trace (initial memory image + write records) and its avg/range map is
  computed once, in one :meth:`~repro.core.maps.MapGenerator.compute_batch`
  call per region, instead of per cold miss. Seeding only pre-fills the
  cache's memo — ``map_generations`` (the energy-model counter) still
  counts every hardware computation, so stats are unchanged.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np


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


def quantize_region_values(trace) -> dict:
    """Clamped ``(avg, range)`` hash per reachable map key, cached.

    The hash step of map generation (Sec. 3.7) — clamp to the region's
    declared ``[vmin, vmax]``, then average and max-minus-min — depends
    only on the region annotations, never on the map-space config. So
    it is quantized once per trace and cached; every config simulated
    over the trace (baseline vs dopp vs uni, any map-bit ablation)
    rebins the same stats via
    :meth:`~repro.core.maps.MapGenerator.compute_from_stats` instead
    of redoing the numpy reductions per cold-miss seed. Keys are the
    ``(region_id, value_id)`` pairs of :func:`map_seed_pairs`.
    """
    cached = getattr(trace, "_region_value_stats", None)
    if cached is not None:
        return cached
    stats: dict = {}
    by_region: dict = {}
    for rid, vid in map_seed_pairs(trace):
        by_region.setdefault(rid, []).append(vid)
    values = trace.values
    for rid, vids in by_region.items():
        region = trace.regions[rid]
        vmin, vmax = float(region.vmin), float(region.vmax)
        # Rows of one region share a length, but group defensively.
        by_len: dict = {}
        for vid in vids:
            by_len.setdefault(len(values[vid]), []).append(vid)
        for same_len in by_len.values():
            blocks = np.stack(
                [np.asarray(values[v], dtype=np.float64) for v in same_len]
            )
            clamped = np.clip(np.nan_to_num(blocks, nan=vmin), vmin, vmax)
            avgs = clamped.mean(axis=1)
            rngs = clamped.max(axis=1) - clamped.min(axis=1)
            for i, vid in enumerate(same_len):
                stats[(rid, vid)] = (avgs[i], rngs[i])
    trace._region_value_stats = stats
    return stats
