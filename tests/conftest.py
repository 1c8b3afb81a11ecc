"""Shared fixtures for the test suite.

Workload fixtures use tiny scales so the full suite stays fast; the
benchmark harness exercises full-size datasets.
"""

import contextlib
import sqlite3

import numpy as np
import pytest

from repro.trace.record import DType
from repro.trace.region import Region, RegionMap
from repro.trace.trace import TraceBuilder


@pytest.fixture(autouse=True)
def _isolated_history_store(tmp_path, monkeypatch):
    """Point the run-history store at a per-test path.

    CLI recording is on by default, so tests invoking ``main([...])``
    without ``--json-out`` would otherwise write
    ``results/json/history.db`` into the repo tree. Tests that care
    about path resolution delete ``REPRO_STORE`` themselves.
    """
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "history.db"))


@pytest.fixture
def memo_rows():
    """Count the rows in a store's memo table; 0 before it exists.

    Opens the store read-only, so polling never creates the file a
    child process is about to create.
    """

    def count(path):
        try:
            with contextlib.closing(
                sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=5)
            ) as conn:
                return conn.execute("SELECT COUNT(*) FROM memo").fetchone()[0]
        except sqlite3.Error:
            return 0

    return count


@pytest.fixture
def rng():
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_region():
    """A 16 KB approximate float region starting at 0."""
    return Region("data", 0, 16 * 1024, DType.F32, approx=True, vmin=0.0, vmax=100.0)


@pytest.fixture
def small_trace(rng, small_region):
    """A small single-region trace: two sequential scans, 4 cores."""
    regions = RegionMap([small_region])
    builder = TraceBuilder("test", regions)
    data = rng.uniform(0.0, 100.0, small_region.num_elements).astype(np.float32)
    builder.register_block_values(small_region, data)
    n_blocks = small_region.num_blocks()
    indices = np.tile(np.arange(n_blocks, dtype=np.int64), 2)
    cores = (np.arange(len(indices)) % 4).astype(np.int8)
    builder.append_region_accesses(0, indices, cores, is_write=False, gap=8)
    return builder.build()


def make_blocks(rng, n, elems=16, lo=0.0, hi=100.0):
    """Random float blocks helper."""
    return rng.uniform(lo, hi, size=(n, elems))
