"""Alternative similarity hash functions (the paper's future work).

Sec. 3.7: "Though we use the average and range, other hash functions
are possible; we leave this to future work." This module supplies that
exploration: a small registry of block-summary hash functions that the
extended map generator can combine, each mapping a block of element
values to one scalar in a known output interval:

* ``average`` / ``range`` — the paper's pair.
* ``min`` / ``max`` — order statistics; min+max carries the same
  information as average+range but weights outliers differently.
* ``median`` — robust central tendency; resistant to the single-outlier
  problem that defeats element-wise similarity (Sec. 2).
* ``first`` — the block's first element; a locality-style hash that is
  cheap but order-sensitive.
* ``projection`` — a fixed random-projection (LSH-style) dot product;
  the most discriminating single scalar, at higher hardware cost.

:class:`ExtendedMapGenerator` composes any subset into a map value the
same way the paper composes average+range: the first hash keeps its
full ``M`` bits, every further hash contributes its top ``ceil(M/2)``
bits. The ablation bench ``benchmarks/test_ablation_hash_functions.py``
compares combinations.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.trace.record import DTYPE_INFO, DType

#: hash name -> (fn(blocks, vmin, vmax) -> values, (lo, hi) output interval
#: expressed as functions of (vmin, vmax)).
HashFn = Callable[[np.ndarray, float, float], np.ndarray]


def _avg(blocks, vmin, vmax):
    return blocks.mean(axis=1)


def _rng(blocks, vmin, vmax):
    return blocks.max(axis=1) - blocks.min(axis=1)


def _min(blocks, vmin, vmax):
    return blocks.min(axis=1)


def _max(blocks, vmin, vmax):
    return blocks.max(axis=1)


def _median(blocks, vmin, vmax):
    return np.median(blocks, axis=1)


def _first(blocks, vmin, vmax):
    return blocks[:, 0]


class _Projection:
    """Seeded random projection onto [vmin, vmax]-normalized weights."""

    def __init__(self, seed: int = 12345):
        self.seed = seed
        self._weights: Dict[int, np.ndarray] = {}

    def __call__(self, blocks, vmin, vmax):
        elems = blocks.shape[1]
        weights = self._weights.get(elems)
        if weights is None:
            rng = np.random.default_rng(self.seed)
            weights = rng.uniform(0.0, 1.0, elems)
            weights /= weights.sum()
            self._weights[elems] = weights
        return blocks @ weights


_REGISTRY: Dict[str, Tuple[HashFn, Callable, Callable]] = {
    "average": (_avg, lambda lo, hi: lo, lambda lo, hi: hi),
    "range": (_rng, lambda lo, hi: 0.0, lambda lo, hi: hi - lo),
    "min": (_min, lambda lo, hi: lo, lambda lo, hi: hi),
    "max": (_max, lambda lo, hi: lo, lambda lo, hi: hi),
    "median": (_median, lambda lo, hi: lo, lambda lo, hi: hi),
    "first": (_first, lambda lo, hi: lo, lambda lo, hi: hi),
    "projection": (_Projection(), lambda lo, hi: lo, lambda lo, hi: hi),
}


def hash_names() -> List[str]:
    """All registered hash-function names."""
    return list(_REGISTRY)


class ExtendedMapGenerator:
    """Map generation from an arbitrary combination of block hashes.

    Mirrors :class:`repro.core.maps.MapGenerator` (clamping, linear
    binning, the integer omit-mapping rule) but composes any hash
    subset. ``("average", "range")`` reproduces the paper's generator
    bit-for-bit in behaviour.

    Args:
        hashes: hash names, first gets the low (full-width) bits.
        bits: the M parameter.
        vmin / vmax: declared element range.
        dtype: element data type.
    """

    def __init__(
        self,
        hashes: Sequence[str] = ("average", "range"),
        bits: int = 14,
        vmin: float = 0.0,
        vmax: float = 1.0,
        dtype: DType = DType.F32,
    ):
        if not hashes:
            raise ValueError("need at least one hash function")
        unknown = [h for h in hashes if h not in _REGISTRY]
        if unknown:
            raise ValueError(f"unknown hash functions {unknown}; see hash_names()")
        if not vmax > vmin:
            raise ValueError(f"need vmax > vmin, got [{vmin}, {vmax}]")
        self.hashes = tuple(hashes)
        self.bits = bits
        self.vmin = float(vmin)
        self.vmax = float(vmax)
        self.dtype = dtype
        info = DTYPE_INFO[dtype]
        self.eff_bits = min(bits, info.bits) if info.is_integer else bits
        self.extra_bits = min(math.ceil(bits / 2), self.eff_bits)

    @property
    def total_bits(self) -> int:
        """Width of the final composed map."""
        return self.eff_bits + self.extra_bits * (len(self.hashes) - 1)

    def compute_batch(self, blocks: np.ndarray) -> np.ndarray:
        """Composed map values for a batch of blocks."""
        blocks = np.asarray(blocks, dtype=np.float64)
        if blocks.ndim == 1:
            blocks = blocks[np.newaxis, :]
        clamped = np.clip(np.nan_to_num(blocks, nan=self.vmin), self.vmin, self.vmax)

        maps = np.zeros(len(clamped), dtype=np.int64)
        shift = 0
        for idx, name in enumerate(self.hashes):
            fn, lo_fn, hi_fn = _REGISTRY[name]
            lo = lo_fn(self.vmin, self.vmax)
            hi = hi_fn(self.vmin, self.vmax)
            span = max(hi - lo, 1e-300)
            norm = (fn(clamped, self.vmin, self.vmax) - lo) / span
            bins = np.clip(
                np.floor(norm * (1 << self.eff_bits)).astype(np.int64),
                0,
                (1 << self.eff_bits) - 1,
            )
            if idx == 0:
                maps |= bins
                shift = self.eff_bits
            else:
                kept = bins >> (self.eff_bits - self.extra_bits)
                maps |= kept << shift
                shift += self.extra_bits
        return maps

    def compute(self, values: np.ndarray) -> int:
        """Composed map value for one block."""
        return int(self.compute_batch(np.asarray(values)[np.newaxis, :])[0])


def savings_for_hashes(
    blocks: np.ndarray,
    hashes: Sequence[str],
    bits: int,
    vmin: float,
    vmax: float,
    dtype: DType = DType.F32,
) -> float:
    """Storage savings (1 - unique/total) under a hash combination."""
    if len(blocks) == 0:
        return 0.0
    gen = ExtendedMapGenerator(hashes, bits, vmin, vmax, dtype)
    maps = gen.compute_batch(blocks)
    return 1.0 - len(np.unique(maps)) / len(blocks)
