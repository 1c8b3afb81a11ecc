"""Trace container and builder.

A :class:`Trace` stores a multi-core memory reference stream
column-wise in numpy arrays (compact, fast to build) together with:

* the :class:`~repro.trace.region.RegionMap` of programmer annotations,
* a *value table*: for every distinct block content that appears during
  the run, one numpy array of element values. Access records reference
  the table by ``value_id`` so repeated touches of the same block don't
  duplicate values. The Doppelgänger map computation reads block values
  from here.
* the initial memory image (block address → value id).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.trace.record import Access
from repro.trace.region import Region, RegionMap

BLOCK_SIZE = 64


class Trace:
    """An immutable multi-core memory trace.

    Build via :class:`TraceBuilder`. Iterating yields
    :class:`~repro.trace.record.Access` records in program order
    (already interleaved across cores by the generator).
    """

    def __init__(
        self,
        name: str,
        regions: RegionMap,
        cores: np.ndarray,
        addrs: np.ndarray,
        is_write: np.ndarray,
        approx: np.ndarray,
        region_ids: np.ndarray,
        value_ids: np.ndarray,
        gaps: np.ndarray,
        values: List[np.ndarray],
        initial_image: dict,
        block_size: int = BLOCK_SIZE,
    ):
        n = len(addrs)
        for col in (cores, is_write, approx, region_ids, value_ids, gaps):
            if len(col) != n:
                raise ValueError("trace columns have inconsistent lengths")
        self.name = name
        self.regions = regions
        self.cores = cores
        self.addrs = addrs
        self.is_write = is_write
        self.approx = approx
        self.region_ids = region_ids
        self.value_ids = value_ids
        self.gaps = gaps
        self.values = values
        self.initial_image = initial_image
        self.block_size = block_size

    def __len__(self) -> int:
        return len(self.addrs)

    def __iter__(self) -> Iterator[Access]:
        cores = self.cores
        addrs = self.addrs
        writes = self.is_write
        approx = self.approx
        region_ids = self.region_ids
        value_ids = self.value_ids
        gaps = self.gaps
        for i in range(len(addrs)):
            yield Access(
                int(cores[i]),
                int(addrs[i]),
                bool(writes[i]),
                bool(approx[i]),
                int(region_ids[i]),
                int(value_ids[i]),
                int(gaps[i]),
            )

    # ------------------------------------------------------------- statistics

    @property
    def instruction_count(self) -> int:
        """Total instructions implied by the trace (memory ops + gaps)."""
        return int(self.gaps.sum()) + len(self)

    def write_fraction(self) -> float:
        """Fraction of accesses that are stores."""
        return float(self.is_write.mean()) if len(self) else 0.0

    def unique_blocks(self) -> int:
        """Number of distinct blocks referenced."""
        return len(np.unique(self.addrs // self.block_size))

    def footprint_bytes(self) -> int:
        """Referenced footprint in bytes."""
        return self.unique_blocks() * self.block_size

    def block_values(self, value_id: int) -> np.ndarray:
        """Element values of value-table entry ``value_id``."""
        return self.values[value_id]

    def head(self, n: int) -> "Trace":
        """A new trace containing only the first ``n`` records."""
        n = min(n, len(self))
        return Trace(
            self.name,
            self.regions,
            self.cores[:n],
            self.addrs[:n],
            self.is_write[:n],
            self.approx[:n],
            self.region_ids[:n],
            self.value_ids[:n],
            self.gaps[:n],
            self.values,
            self.initial_image,
            self.block_size,
        )


class TraceBuilder:
    """Incrementally assemble a :class:`Trace`.

    Workload generators append accesses (singly or in numpy batches) and
    register block values; ``build()`` freezes everything into a Trace.
    """

    def __init__(self, name: str, regions: Optional[RegionMap] = None, block_size: int = BLOCK_SIZE):
        self.name = name
        self.regions = regions if regions is not None else RegionMap()
        self.block_size = block_size
        self._cores: List[np.ndarray] = []
        self._addrs: List[np.ndarray] = []
        self._writes: List[np.ndarray] = []
        self._approx: List[np.ndarray] = []
        self._region_ids: List[np.ndarray] = []
        self._value_ids: List[np.ndarray] = []
        self._gaps: List[np.ndarray] = []
        self._values: List[np.ndarray] = []
        self._initial_image: dict = {}

    # --------------------------------------------------------------- values

    def register_value(self, values: np.ndarray) -> int:
        """Add one block's element values to the value table; returns id."""
        self._values.append(np.asarray(values))
        return len(self._values) - 1

    def register_block_values(self, region: Region, data: np.ndarray) -> np.ndarray:
        """Register every block of a region's data array.

        ``data`` is the flat element array backing the region. Returns
        the array of value ids, one per block, and records the initial
        memory image for those blocks.
        """
        elems = region.elements_per_block(self.block_size)
        flat = np.asarray(data).reshape(-1)
        n_blocks = region.num_blocks(self.block_size)
        ids = np.empty(n_blocks, dtype=np.int64)
        for b in range(n_blocks):
            chunk = flat[b * elems : (b + 1) * elems]
            vid = self.register_value(chunk.copy())
            ids[b] = vid
            self._initial_image[region.base + b * self.block_size] = vid
        return ids

    def set_initial_value(self, block_addr: int, value_id: int) -> None:
        """Record the initial memory image of a block."""
        self._initial_image[block_addr] = value_id

    # -------------------------------------------------------------- appends

    def append(self, access: Access) -> None:
        """Append a single access record."""
        self.append_batch(
            np.array([access.core], dtype=np.int8),
            np.array([access.addr], dtype=np.int64),
            np.array([access.is_write]),
            np.array([access.approx]),
            np.array([access.region_id], dtype=np.int32),
            np.array([access.value_id], dtype=np.int64),
            np.array([access.gap], dtype=np.int32),
        )

    def append_batch(
        self,
        cores: np.ndarray,
        addrs: np.ndarray,
        is_write: np.ndarray,
        approx: np.ndarray,
        region_ids: np.ndarray,
        value_ids: np.ndarray,
        gaps: np.ndarray,
    ) -> None:
        """Append a batch of accesses given as parallel numpy arrays."""
        self._cores.append(np.asarray(cores, dtype=np.int8))
        self._addrs.append(np.asarray(addrs, dtype=np.int64))
        self._writes.append(np.asarray(is_write, dtype=bool))
        self._approx.append(np.asarray(approx, dtype=bool))
        self._region_ids.append(np.asarray(region_ids, dtype=np.int32))
        self._value_ids.append(np.asarray(value_ids, dtype=np.int64))
        self._gaps.append(np.asarray(gaps, dtype=np.int32))

    def append_region_accesses(
        self,
        region_id: int,
        block_indices: np.ndarray,
        cores: np.ndarray,
        is_write=False,
        value_ids=None,
        gap: int = 8,
    ) -> None:
        """Append block-granularity accesses into a region.

        Args:
            region_id: target region id in this builder's RegionMap.
            block_indices: per-access block index within the region.
            cores: per-access core id (scalar or array).
            is_write: scalar or per-access array.
            value_ids: per-access value ids (-1 default).
            gap: scalar or per-access instruction gap.
        """
        region = self.regions[region_id]
        block_indices = np.asarray(block_indices, dtype=np.int64)
        n = len(block_indices)
        addrs = region.base + block_indices * self.block_size
        cores_arr = np.broadcast_to(np.asarray(cores, dtype=np.int8), (n,))
        writes = np.broadcast_to(np.asarray(is_write, dtype=bool), (n,))
        approx = np.full(n, region.approx)
        rids = np.full(n, region_id, dtype=np.int32)
        vids = (
            np.full(n, -1, dtype=np.int64)
            if value_ids is None
            else np.asarray(value_ids, dtype=np.int64)
        )
        gaps = np.broadcast_to(np.asarray(gap, dtype=np.int32), (n,))
        self.append_batch(cores_arr, addrs, writes, approx, rids, vids, gaps)

    # ---------------------------------------------------------------- build

    def build(self) -> Trace:
        """Freeze into an immutable Trace."""

        def cat(chunks, dtype):
            if not chunks:
                return np.empty(0, dtype=dtype)
            return np.concatenate(chunks)

        return Trace(
            self.name,
            self.regions,
            cat(self._cores, np.int8),
            cat(self._addrs, np.int64),
            cat(self._writes, bool),
            cat(self._approx, bool),
            cat(self._region_ids, np.int32),
            cat(self._value_ids, np.int64),
            cat(self._gaps, np.int32),
            self._values,
            dict(self._initial_image),
            self.block_size,
        )
