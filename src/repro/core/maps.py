"""Approximate-similarity map generation (Sec. 3.7 of the paper).

A *map* identifies approximately similar blocks: blocks with equal maps
share one data-array entry. This module is the only place a block
becomes a map, in two steps:

1. **Hash.** :func:`hash_values` clamps the block's element values to
   the programmer-declared ``[vmin, vmax]`` (NaN counts as ``vmin``),
   as the paper specifies for out-of-range runtime values, then applies
   each hash function of :data:`HASHES`. The paper's pair is the
   *average* and the *range* (max minus min); its "other hash functions
   are possible" is explored by min, max, median, the first element and
   a fixed random projection.
2. **Mapping.** Each hash is linearly binned into an ``M``-bit integer
   over its output interval: ``vmin`` maps to 0 and ``vmax`` to
   ``2**M - 1``, or ``0`` to ``vmax - vmin`` for a spread hash (the
   range). If ``M`` exceeds an integer element type's bit width (e.g.
   8-bit pixels with M = 14) the type's width is used instead
   (the paper's omitted mapping step), avoiding always-zero low bits
   and the resulting data-array set conflicts.

The final map concatenates the bins, first hash in the low bits. The
first hash keeps its full width unless it is a spread hash; every
other hash keeps its top ``ceil(M/2)`` bits (footnote 4). The paper's
average+range map is 14 + 7 = 21 bits at the base ``M = 14`` —
exactly the per-tag "Map" field width in Table 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.trace.record import DTYPE_INFO, DType


def _projection_weights(elements: int) -> np.ndarray:
    """Fixed random weights summing to 1 (the same on every call)."""
    weights = np.random.default_rng(12345).uniform(0.0, 1.0, elements)
    return weights / weights.sum()


#: Hash name -> (hash of clamped ``(n, elements)`` blocks, is it a
#: spread hash). A spread hash is binned over ``[0, vmax - vmin]`` and
#: keeps only its top ``ceil(M/2)`` bits even when it comes first.
HASHES = {
    "average": (lambda c: c.mean(axis=1), False),
    "range": (lambda c: c.max(axis=1) - c.min(axis=1), True),
    "min": (lambda c: c.min(axis=1), False),
    "max": (lambda c: c.max(axis=1), False),
    "median": (lambda c: np.median(c, axis=1), False),
    "first": (lambda c: c[:, 0], False),
    "projection": (lambda c: c @ _projection_weights(c.shape[1]), False),
}


def hash_values(blocks: np.ndarray, hashes, vmin: float, vmax: float) -> np.ndarray:
    """The hash step: ``(n_blocks, len(hashes))`` clamped hash values.

    Depends only on the declared range, never on ``M``, so the result
    can be computed once per trace and binned under any
    :class:`MapConfig` with the same hashes (see
    :func:`repro.engine.precompute.map_hashes`).
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim == 1:
        blocks = blocks[np.newaxis, :]
    clamped = np.clip(np.nan_to_num(blocks, nan=vmin), vmin, vmax)
    return np.stack([HASHES[name][0](clamped) for name in hashes], axis=1)


@dataclass(frozen=True)
class MapConfig:
    """Map-space design knobs.

    Attributes:
        bits: the M parameter — size of the map space per hash.
            The paper evaluates 12, 13 and 14 (base design: 14).
        hashes: names from :data:`HASHES`, first in the low bits
            (ablation knob; the paper's pair by default).
    """

    bits: int = 14
    hashes: Tuple[str, ...] = ("average", "range")

    def __post_init__(self):
        if self.bits < 0:
            raise ConfigError(
                f"map bits must be non-negative, got {self.bits}", field="bits"
            )
        object.__setattr__(self, "hashes", tuple(self.hashes))
        if not self.hashes:
            raise ConfigError("at least one hash function is needed", field="hashes")
        unknown = [name for name in self.hashes if name not in HASHES]
        if unknown:
            raise ConfigError(
                f"unknown hash functions {unknown}; choose from {list(HASHES)}",
                field="hashes",
            )

    @property
    def keep_bits(self) -> int:
        """High-order bits every hash after the first keeps."""
        return math.ceil(self.bits / 2)


class MapGenerator:
    """Computes map values for blocks of a single annotated data type.

    One generator exists per (data type, declared range) registration —
    the paper's model of min/max values sent to the LLC and buffered
    there at program start.

    Args:
        config: map-space configuration.
        vmin: declared minimum element value.
        vmax: declared maximum element value.
        dtype: element data type (integer types may trigger the
            omit-mapping rule).
    """

    def __init__(self, config: MapConfig, vmin: float, vmax: float, dtype: DType = DType.F32):
        if not vmax > vmin:
            raise ValueError(f"need vmax > vmin, got [{vmin}, {vmax}]")
        self.config = config
        self.vmin = float(vmin)
        self.vmax = float(vmax)
        self.dtype = dtype
        info = DTYPE_INFO[dtype]
        # Omit-mapping rule: never bin into more bits than the data type
        # has; otherwise the low bits of the map would always be zero.
        self.hash_bits = min(config.bits, info.bits) if info.is_integer else config.bits
        keep = min(config.keep_bits, self.hash_bits)
        #: Bits of each hash's bin that enter the map, in hash order.
        self.kept_bits = tuple(
            self.hash_bits if i == 0 and not HASHES[name][1] else keep
            for i, name in enumerate(config.hashes)
        )

    @property
    def total_bits(self) -> int:
        """Width of the final map value."""
        return sum(self.kept_bits)

    @property
    def map_space_size(self) -> int:
        """Number of distinct map values."""
        return 1 << self.total_bits

    def compute_from_hashes(self, hashed: np.ndarray) -> np.ndarray:
        """The mapping step: map values from :func:`hash_values` rows.

        Bins each hash at :attr:`hash_bits`, keeps the top
        :attr:`kept_bits` of it and concatenates, first hash lowest.
        """
        bits = self.hash_bits
        span = self.vmax - self.vmin
        maps = np.zeros(len(hashed), dtype=np.int64)
        shift = 0
        for column, name, keep in zip(hashed.T, self.config.hashes, self.kept_bits):
            lo = 0.0 if HASHES[name][1] else self.vmin
            bins = np.floor((column - lo) / span * (1 << bits)).astype(np.int64)
            bins = np.clip(bins, 0, (1 << bits) - 1)
            maps |= (bins >> (bits - keep)) << shift
            shift += keep
        return maps

    def compute_batch(self, blocks: np.ndarray) -> np.ndarray:
        """Map values for a batch of blocks.

        Args:
            blocks: array of shape ``(n_blocks, elements_per_block)``.

        Returns:
            int64 array of ``n_blocks`` map values.
        """
        return self.compute_from_hashes(
            hash_values(blocks, self.config.hashes, self.vmin, self.vmax)
        )

    def compute(self, values: np.ndarray) -> int:
        """Map value for a single block."""
        return int(self.compute_batch(np.asarray(values)[np.newaxis, :])[0])

    def flop_count(self, elements: int = 16) -> int:
        """FP multiply-add operations per map generation.

        Sec. 5.6's conservative accounting: computing the average, the
        range and the mapping steps for a 64-byte block of at most 16
        floating-point elements takes 21 multiply-add operations (a
        fused unit covers an add and a scale per op). Scales linearly
        for other element counts.
        """
        return max(1, round(21 * elements / 16))


class MapRegistry:
    """Per-data-type map generators registered at the LLC.

    Sec. 4.1: the application sends, once at startup, the expected value
    range for each approximate data type; the LLC buffers them in a
    small register set. Trace regions carry a region id; the registry
    resolves a region to its generator.
    """

    def __init__(self, config: MapConfig):
        self.config = config
        self._by_region: Dict[int, MapGenerator] = {}

    def register(self, region_id: int, vmin: float, vmax: float, dtype: DType) -> MapGenerator:
        """Register the declared range for one annotated region."""
        gen = MapGenerator(self.config, vmin, vmax, dtype)
        self._by_region[region_id] = gen
        return gen

    def register_regions(self, regions) -> None:
        """Register every approximate region of a RegionMap."""
        for region_id, region in enumerate(regions):
            if region.approx:
                self.register(region_id, region.vmin, region.vmax, region.dtype)

    def generator(self, region_id: int) -> Optional[MapGenerator]:
        """Generator for ``region_id``, or None if not approximate."""
        return self._by_region.get(region_id)

    def compute(self, region_id: int, values: np.ndarray) -> int:
        """Map value for a block belonging to ``region_id``."""
        gen = self._by_region.get(region_id)
        if gen is None:
            raise KeyError(f"region {region_id} has no registered map generator")
        return gen.compute(values)

    def __len__(self) -> int:
        return len(self._by_region)
