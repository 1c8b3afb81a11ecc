"""Functional Doppelgänger model for application output-error evaluation.

The paper measures output error with a lightweight Pin tool that runs
the *full* application while the cache approximates data (Sec. 4). We
reproduce that methodology: workloads execute their real kernels but
route approximate arrays through this functional model, which applies
exactly the value substitution the hardware performs — every block is
replaced by the *canonical* block of its map value (the first similar
block inserted), subject to a finite, LRU, set-associative data array.

The model is deliberately value-only (no timing, no tag array) so
workloads can evaluate error over full datasets quickly; the
cycle-level model in :mod:`repro.core.doppelganger` covers the
structural behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.cache.replacement import ReplacementSets
from repro.core.data_array import map_set_index
from repro.core.maps import MapConfig, MapGenerator
from repro.trace.record import DType
from repro.trace.region import Region


class FunctionalDoppelganger:
    """Finite map-keyed store of canonical blocks.

    Keys are ``(dtype, map value)`` so that differently-typed regions
    (a rarity — the paper notes one data type suffices per benchmark)
    never alias. The store is set-associative with per-set LRU,
    mirroring the real data array's geometry.

    Args:
        data_entries: number of canonical blocks (4 K in the base 1/4
            configuration).
        ways: associativity (16).
    """

    def __init__(self, data_entries: int = 4096, ways: int = 16):
        if data_entries % ways:
            raise ValueError(f"{data_entries} entries not divisible into {ways}-way sets")
        self.data_entries = data_entries
        self.ways = ways
        self.num_sets = data_entries // ways
        self._repl = ReplacementSets(self.num_sets, ways)
        self._sets = self._repl.sets
        self.lookups = 0
        self.shared_hits = 0
        self.insertions = 0
        self.evictions = 0

    def access(self, dtype: DType, map_value: int, block: np.ndarray) -> np.ndarray:
        """Return the canonical values for ``block``.

        If a block with the same map is resident its values are
        returned (the doppelgänger substitution); otherwise ``block``
        becomes the canonical entry, evicting the set's LRU entry when
        full.
        """
        self.lookups += 1
        set_idx = map_set_index(map_value, self.num_sets)
        # Block length is part of the key so a trailing partial block
        # can never alias (and shape-mismatch) a full block.
        key = (int(dtype), len(block), map_value)
        canonical = self._sets[set_idx].get(key)
        if canonical is not None:
            self._repl.touch(set_idx, key)
            self.shared_hits += 1
            return canonical
        if self._repl.insert(set_idx, key, block.copy()) is not None:
            self.evictions += 1
        self.insertions += 1
        return block

    def occupancy(self) -> int:
        """Resident canonical blocks."""
        return sum(len(s) for s in self._sets)

    def sharing_rate(self) -> float:
        """Fraction of accesses served by an existing canonical block."""
        return self.shared_hits / self.lookups if self.lookups else 0.0


class BlockApproximator:
    """Routes a workload's approximate arrays through the functional model.

    One approximator is created per (configuration, run); it owns one
    shared :class:`FunctionalDoppelganger` — the single data array of
    the hardware — plus one map generator per annotated region.

    Args:
        map_config: map-space knobs (14-bit base).
        data_entries: data-array blocks.
        ways: data-array associativity.
        block_size: line size in bytes.
        faults: optional :class:`~repro.resilience.faults.FaultInjector`
            modelling unprotected approximate storage: blocks arriving
            from DRAM (``dram`` target) and canonical values read from
            the data array (``approx_data`` target, including stuck-at
            cells) are silently corrupted before the application sees
            them. Decisions are counter-based, so the same trace order
            yields the same corruptions on every run.
    """

    def __init__(
        self,
        map_config: Optional[MapConfig] = None,
        data_entries: int = 4096,
        ways: int = 16,
        block_size: int = 64,
        faults=None,
    ):
        self.map_config = map_config or MapConfig()
        self.block_size = block_size
        self.store = FunctionalDoppelganger(data_entries, ways)
        self._generators: Dict[str, MapGenerator] = {}
        self.faults = faults

    def _generator(self, region: Region) -> MapGenerator:
        gen = self._generators.get(region.name)
        if gen is None:
            gen = MapGenerator(self.map_config, region.vmin, region.vmax, region.dtype)
            self._generators[region.name] = gen
        return gen

    def filter(self, array: np.ndarray, region: Region) -> np.ndarray:
        """Apply the doppelgänger substitution to a whole array.

        The array is chunked into cache blocks; each block's map is
        computed (vectorized), then each block is replaced by its
        canonical values. Shape and dtype are preserved; a trailing
        partial block is processed at its natural length.

        Non-approximate regions pass through untouched.
        """
        if not region.approx:
            return array
        gen = self._generator(region)
        arr = np.asarray(array)
        shape, dtype = arr.shape, arr.dtype
        flat = arr.reshape(-1)
        elems = region.elements_per_block(self.block_size)
        n_full = len(flat) // elems

        fi = self.faults
        out = flat.astype(np.float64, copy=True)
        if n_full:
            blocks = out[: n_full * elems].reshape(n_full, elems)
            maps = gen.compute_batch(blocks)
            for i in range(n_full):
                blk = blocks[i]
                if fi is not None:
                    # The fill arriving from DRAM may already be bad
                    # (map generation saw the line the memory sent).
                    blk = fi.corrupt("dram", blk)
                canon = self.store.access(region.dtype, int(maps[i]), blk)
                if fi is not None:
                    # Reading the canonical block out of the
                    # unprotected data array: stuck-at cells always,
                    # transient flips per the configured rates.
                    canon = fi.corrupt("approx_data", canon)
                blocks[i] = canon
        rem = len(flat) - n_full * elems
        if rem:
            tail = out[n_full * elems :]
            map_value = gen.compute(tail)
            blk = fi.corrupt("dram", tail) if fi is not None else tail
            canon = self.store.access(region.dtype, map_value, blk)
            if fi is not None:
                canon = fi.corrupt("approx_data", canon)
            out[n_full * elems :] = canon[:rem]

        if np.issubdtype(dtype, np.integer):
            info = np.iinfo(dtype)
            out = np.clip(np.rint(out), info.min, info.max)
        return out.astype(dtype).reshape(shape)

    def sharing_rate(self) -> float:
        """Fraction of filtered blocks served by a canonical block."""
        return self.store.sharing_rate()


class IdentityApproximator:
    """No-op approximator — the precise baseline execution."""

    def filter(self, array: np.ndarray, region: Region) -> np.ndarray:
        """Return the array unchanged."""
        return array

    def sharing_rate(self) -> float:
        """Always zero: nothing is ever substituted."""
        return 0.0
