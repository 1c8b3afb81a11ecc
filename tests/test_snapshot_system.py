"""Tests for the end-of-run snapshot a record keeps of a simulated LLC."""

import numpy as np

from repro.harness.runner import baseline_spec, run_trace
from repro.trace.record import DType
from repro.trace.region import Region, RegionMap
from repro.trace.trace import TraceBuilder


def _build(rng, size_kb=256):
    region = Region("r", 0, size_kb * 1024, DType.F32, approx=True, vmin=0, vmax=100)
    regions = RegionMap([region])
    builder = TraceBuilder("t", regions)
    data = rng.uniform(0, 100, region.num_elements).astype(np.float32)
    builder.register_block_values(region, data)
    idx = np.arange(region.num_blocks())
    cores = (idx % 4).astype(np.int8)
    builder.append_region_accesses(0, idx, cores, gap=8)
    return builder.build()


def test_snapshot_matches_llc_contents(rng):
    trace = _build(rng)
    stats = run_trace(trace, baseline_spec()).llc_stats
    # The 256 KB footprint fits the 2 MB LLC entirely.
    assert stats["resident_blocks"] == trace.unique_blocks()
    assert stats["approx_resident_blocks"] == trace.unique_blocks()


def test_snapshot_excludes_precise(rng):
    region_a = Region("a", 0, 64 * 1024, DType.F32, approx=True, vmin=0, vmax=100)
    region_p = Region("p", 1 << 20, 64 * 1024, DType.I32, approx=False)
    regions = RegionMap([region_a, region_p])
    builder = TraceBuilder("t", regions)
    data = rng.uniform(0, 100, region_a.num_elements).astype(np.float32)
    builder.register_block_values(region_a, data)
    pdata = rng.integers(0, 100, region_p.num_elements).astype(np.int32)
    builder.register_block_values(region_p, pdata)
    idx = np.arange(region_a.num_blocks())
    builder.append_region_accesses(0, idx, np.zeros(len(idx), np.int8), gap=4)
    builder.append_region_accesses(1, idx, np.zeros(len(idx), np.int8), gap=4)
    trace = builder.build()

    stats = run_trace(trace, baseline_spec()).llc_stats
    assert stats["resident_blocks"] == 2 * region_a.num_blocks()
    assert stats["approx_resident_blocks"] == region_a.num_blocks()
