"""Coherent multi-level cache hierarchy (the FeS2 substitute).

Models the paper's simulated system (Table 1): four cores with private
L1 (16 KB, 4-way) and L2 (128 KB, 8-way) caches, a shared inclusive LLC
(pluggable: conventional 2 MB baseline, split precise+Doppelgänger, or
unified uniDoppelgänger), MSI directory coherence, a writeback buffer
and a fixed-latency main memory. The system consumes the multi-core
traces of :mod:`repro.trace` and produces the miss/traffic/latency
statistics that drive the runtime and energy results.
"""

from repro.hierarchy.dram import MainMemory
from repro.hierarchy.llc import (
    BaselineLLC,
    SplitDoppelgangerLLC,
    UnifiedDoppelgangerLLC,
)
from repro.hierarchy.system import System, SystemConfig, SystemResult

__all__ = [
    "BaselineLLC",
    "MainMemory",
    "SplitDoppelgangerLLC",
    "System",
    "SystemConfig",
    "SystemResult",
    "UnifiedDoppelgangerLLC",
]
