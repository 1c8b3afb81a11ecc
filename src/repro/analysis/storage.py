"""Storage-savings analyses over LLC-resident blocks (Figs. 7 and 8).

The paper's storage results "only look at approximate blocks residing
in the LLC" of the baseline 2 MB system. An :class:`LLCSnapshot`
holds, for each such block, its element values and owning region;
:func:`snapshot_from_workload` fills one from the approximate working
set the trace touches, without a simulation.

Savings metrics:

* :func:`doppelganger_savings` — blocks with equal map values share a
  single data entry: savings = 1 - unique_maps / blocks (Fig. 7).
* :func:`dedup_savings` — exact deduplication baseline (Fig. 8).
* :func:`bdi_savings` — BΔI compression baseline (Fig. 8).
* :func:`doppelganger_bdi_savings` — BΔI applied to the canonical
  block of each map group; the techniques compose because one is
  inter-block and the other intra-block (Fig. 8, rightmost bars).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.compression.bdi import BDICompressor, bdi_compressed_size, BLOCK_BYTES
from repro.compression.dedup import dedup_storage_savings
from repro.core.maps import MapConfig, MapGenerator
from repro.trace.region import Region


class LLCSnapshot:
    """Approximate blocks resident in the (baseline) LLC.

    Blocks are grouped per region so each group carries its annotation
    (dtype, declared range) for map generation.
    """

    def __init__(self):
        self._groups: Dict[int, Tuple[Region, List[np.ndarray]]] = {}

    def add(self, region_id: int, region: Region, values: np.ndarray) -> None:
        """Record one resident approximate block."""
        if not region.approx:
            raise ValueError(f"region {region.name!r} is not approximate")
        group = self._groups.get(region_id)
        if group is None:
            group = (region, [])
            self._groups[region_id] = group
        group[1].append(np.asarray(values, dtype=np.float64))

    def __len__(self) -> int:
        return sum(len(blocks) for _, blocks in self._groups.values())

    def groups(self):
        """Iterate ``(region, blocks_matrix)`` pairs."""
        for region, blocks in self._groups.values():
            lengths = {len(b) for b in blocks}
            if len(lengths) == 1:
                yield region, np.vstack(blocks)
            else:
                # Ragged tails: group by length to keep matrices dense.
                by_len: Dict[int, List[np.ndarray]] = {}
                for b in blocks:
                    by_len.setdefault(len(b), []).append(b)
                for same in by_len.values():
                    yield region, np.vstack(same)

    def all_blocks(self) -> List[np.ndarray]:
        """Flat list of every block's values."""
        out: List[np.ndarray] = []
        for _, blocks in self._groups.values():
            out.extend(blocks)
        return out


def snapshot_from_workload(workload, block_size: int = 64) -> LLCSnapshot:
    """Snapshot the workload's approximate data footprint directly.

    For the paper's benchmarks the approximate working set cycles
    through the LLC; its resident approximate population is (up to
    replacement noise) a sample of the approximate footprint. This
    avoids a full simulation when only storage savings are needed.
    """
    refresh = getattr(workload, "refresh_outputs", None)
    if refresh is not None:
        refresh()
    snapshot = LLCSnapshot()
    for region_id, region in enumerate(workload.regions):
        if not region.approx:
            continue
        data = workload.region_data(region.name)
        flat = np.asarray(data).reshape(-1)
        elems = region.elements_per_block(block_size)
        n_full = len(flat) // elems
        for b in range(n_full):
            snapshot.add(region_id, region, flat[b * elems : (b + 1) * elems])
        if len(flat) % elems:
            snapshot.add(region_id, region, flat[n_full * elems :])
    return snapshot


# ------------------------------------------------------------------ savings


def _map_values(snapshot: LLCSnapshot, map_config: MapConfig):
    """Yield (region, blocks, maps) per snapshot group."""
    for region, blocks in snapshot.groups():
        gen = MapGenerator(map_config, region.vmin, region.vmax, region.dtype)
        yield region, blocks, gen.compute_batch(blocks)


def doppelganger_savings(snapshot: LLCSnapshot, map_config: Optional[MapConfig] = None) -> float:
    """Fraction of approximate data storage saved by map sharing (Fig. 7)."""
    map_config = map_config or MapConfig()
    total = 0
    unique = 0
    for region, blocks, maps in _map_values(snapshot, map_config):
        total += len(blocks)
        unique += len(np.unique(maps))
    if total == 0:
        return 0.0
    return 1.0 - unique / total


def dedup_savings(snapshot: LLCSnapshot) -> float:
    """Exact-deduplication savings over the snapshot (Fig. 8)."""
    return dedup_storage_savings(snapshot.all_blocks())


def bdi_savings(snapshot: LLCSnapshot) -> float:
    """BΔI compression savings over the snapshot (Fig. 8).

    Blocks are compressed in their native element representation, as
    the hardware sees their bytes.
    """
    compressor = BDICompressor()
    blocks = []
    for region, matrix in snapshot.groups():
        native = matrix.astype(region_dtype(region))
        blocks.extend(native)
    return compressor.storage_savings(blocks)


def doppelganger_bdi_savings(
    snapshot: LLCSnapshot, map_config: Optional[MapConfig] = None
) -> float:
    """Doppelgänger + BΔI composed savings (Fig. 8, rightmost bars).

    One canonical block per map group, stored BΔI-compressed.
    """
    map_config = map_config or MapConfig()
    total_bytes = 0
    stored_bytes = 0
    for region, blocks, maps in _map_values(snapshot, map_config):
        total_bytes += len(blocks) * BLOCK_BYTES
        native = blocks.astype(region_dtype(region))
        seen = {}
        for i in range(len(blocks)):
            m = int(maps[i])
            if m not in seen:
                seen[m] = bdi_compressed_size(native[i]).compressed_bytes
        stored_bytes += sum(seen.values())
    if total_bytes == 0:
        return 0.0
    return 1.0 - stored_bytes / total_bytes


def region_dtype(region: Region):
    """Native numpy dtype of a region's elements."""
    from repro.trace.record import DTYPE_INFO

    return DTYPE_INFO[region.dtype].numpy_dtype


def whole_llc_savings(workload, map_config: Optional[MapConfig] = None) -> dict:
    """LLC-wide savings with Doppelgänger *and* lossless techniques.

    Sec. 5.1: "Since precise and approximate data are separated in
    hardware, these techniques can be used simultaneously with
    Doppelgänger in the LLC." This helper quantifies that composition:
    approximate regions go through map sharing (+BΔI on the canonical
    blocks), precise regions through exact deduplication + BΔI, and
    the result is weighted by each side's share of the footprint.

    Returns a dict with ``approx_savings``, ``precise_savings``,
    ``combined_savings`` and the byte weights.
    """
    map_config = map_config or MapConfig()
    refresh = getattr(workload, "refresh_outputs", None)
    if refresh is not None:
        refresh()

    approx_snapshot = snapshot_from_workload(workload)
    approx_bytes = len(approx_snapshot) * BLOCK_BYTES
    approx_savings = doppelganger_bdi_savings(approx_snapshot, map_config)

    # Precise side: dedup groups, one BΔI-compressed copy per group.
    precise_total = 0
    precise_stored = 0
    for region in workload.regions:
        if region.approx:
            continue
        data = np.asarray(workload.region_data(region.name)).reshape(-1)
        native = data.astype(region_dtype(region), copy=False)
        elems = region.elements_per_block(64)
        n_full = len(native) // elems
        seen: dict = {}
        for b in range(n_full):
            block = native[b * elems : (b + 1) * elems]
            key = block.tobytes()
            if key not in seen:
                seen[key] = bdi_compressed_size(block).compressed_bytes
            precise_total += BLOCK_BYTES
        precise_stored += sum(seen.values())
    precise_savings = 1.0 - precise_stored / precise_total if precise_total else 0.0

    total = approx_bytes + precise_total
    combined = (
        (approx_savings * approx_bytes + precise_savings * precise_total) / total
        if total
        else 0.0
    )
    return {
        "approx_savings": approx_savings,
        "precise_savings": precise_savings,
        "combined_savings": combined,
        "approx_bytes": approx_bytes,
        "precise_bytes": precise_total,
    }
