"""Trace-driven simulation of the full 4-core system (Table 1).

The :class:`System` consumes a multi-core :class:`~repro.trace.trace.Trace`
and models:

* private L1 (16 KB, 4-way, 1 cycle) and L2 (128 KB, 8-way, 3 cycles)
  caches per core, write-back/write-allocate;
* a pluggable shared, inclusive LLC (6 cycles): baseline conventional,
  split Doppelgänger, or uniDoppelgänger;
* MSI directory coherence: stores invalidate remote private copies via
  the LLC directory; back-invalidations from LLC evictions purge
  private copies (dirty ones write back to memory);
* a bounded LLC writeback buffer — the structure Sec. 3.5 points at
  when a single Doppelgänger data eviction generates many writebacks;
* a 160-cycle fixed-latency main memory with traffic counters.

Timing is cycle-accounting: each core accumulates its instruction gaps
(divided by the 4-wide issue width) plus the demand-load latency of
each access. Stores retire through the write buffer and are charged
only the L1 latency, but their functional effects (fills, dirtying,
coherence) are fully modelled. Runtimes are meaningful *relative to the
baseline* — exactly how the paper reports them (Figs. 9, 10, 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import ConfigError
from repro.cache.stats import CacheStats
from repro.cache.writeback import WritebackBuffer
from repro.hierarchy.dram import MainMemory
from repro.trace.trace import Trace

KB = 1024


@dataclass(frozen=True)
class SystemConfig:
    """System parameters (defaults reproduce Table 1)."""

    num_cores: int = 4
    l1_bytes: int = 16 * KB
    l1_ways: int = 4
    l2_bytes: int = 128 * KB
    l2_ways: int = 8
    block_size: int = 64
    l1_latency: int = 1
    l2_latency: int = 3
    llc_latency: int = 6
    issue_width: int = 4
    wb_capacity: int = 16
    wb_drain_interval: int = 20
    #: Minimum cycles between consecutive memory-miss completions on
    #: one core. The 4-wide OoO core of Table 1 overlaps independent
    #: misses (memory-level parallelism); a burst of misses therefore
    #: costs ~this interval each rather than the full 160-cycle
    #: latency, while an isolated miss still pays the full latency.
    mem_overlap_interval: int = 40
    #: Runahead window: if a core reaches its next memory miss within
    #: this many cycles of the previous miss resolving, the OoO front
    #: end had already issued it — the miss is part of a burst and
    #: pays only the overlap interval.
    runahead_window: int = 32

    def __post_init__(self):
        if self.num_cores <= 0:
            raise ConfigError(
                f"must be positive, got {self.num_cores}", field="num_cores"
            )
        if self.issue_width <= 0:
            raise ConfigError(
                f"must be positive, got {self.issue_width}", field="issue_width"
            )


class SystemResult(NamedTuple):
    """Summary of one simulated run."""

    cycles: int
    per_core_cycles: List[int]
    instructions: int
    llc_misses: int
    llc_accesses: int
    dram_reads: int
    dram_writes: int
    traffic_bytes: int
    coherence_invalidations: int
    back_invalidations: int
    wb_stall_cycles: int
    l1_stats: CacheStats
    l2_stats: CacheStats
    stall_breakdown: Dict[str, float] = {}

    @property
    def mpki(self) -> float:
        """LLC misses per thousand instructions."""
        return 1000.0 * self.llc_misses / self.instructions if self.instructions else 0.0

    @property
    def llc_miss_rate(self) -> float:
        """LLC demand miss rate."""
        return self.llc_misses / self.llc_accesses if self.llc_accesses else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the ``system`` object of ``docs/api.md``).

        Every serialized result — harness rows, ``results/json/*.json``,
        ``BENCH_obs.json`` — nests this same shape.
        """
        return {
            "cycles": self.cycles,
            "per_core_cycles": list(self.per_core_cycles),
            "instructions": self.instructions,
            "llc_misses": self.llc_misses,
            "llc_accesses": self.llc_accesses,
            "llc_miss_rate": self.llc_miss_rate,
            "mpki": self.mpki,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "traffic_bytes": self.traffic_bytes,
            "coherence_invalidations": self.coherence_invalidations,
            "back_invalidations": self.back_invalidations,
            "wb_stall_cycles": self.wb_stall_cycles,
            "l1_stats": self.l1_stats.as_dict(),
            "l2_stats": self.l2_stats.as_dict(),
            "stall_breakdown": dict(self.stall_breakdown),
        }


class System:
    """Four cores, two private cache levels, a shared LLC and DRAM.

    Args:
        llc: LLC adapter (see :mod:`repro.hierarchy.llc`).
        config: system parameters.
        mem_latency: main memory latency in cycles.
        tracer: optional :class:`~repro.obs.events.Tracer`; when
            enabled it receives coherence, back-invalidation and
            writeback-buffer events, and is forwarded to the LLC for
            its protocol events. A disabled (or absent) tracer is
            normalized to None so the run loop pays one None-check.
        faults: optional
            :class:`~repro.resilience.faults.FaultInjector`; when
            given, LLC read hits and DRAM fills consult it — detected
            faults in precise structures cost a DRAM refetch, silent
            faults in the approximate array are counted (their value
            corruption is modelled functionally). See
            ``docs/robustness.md``.
    """

    def __init__(
        self,
        llc,
        config: Optional[SystemConfig] = None,
        mem_latency: int = 160,
        tracer=None,
        faults=None,
    ):
        self.config = config or SystemConfig()
        cfg = self.config
        if llc.block_size != cfg.block_size:
            # An LLC eviction back-invalidates one private-cache block,
            # so a larger LLC block would leave copies of its other
            # parts behind and the hierarchy would lose inclusion.
            raise ConfigError(
                f"LLC block size {llc.block_size} B differs from the "
                f"hierarchy's {cfg.block_size} B",
                field="block_size",
            )
        self.llc = llc
        self.fault_injector = faults
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        if self.tracer is not None and hasattr(llc, "attach_tracer"):
            llc.attach_tracer(self.tracer)
        #: Per-class tallies the engine publishes at the end of :meth:`run`.
        self.engine_stats: Optional[Dict] = None
        self.memory = MainMemory(mem_latency, cfg.block_size)
        self.wb_buffer = WritebackBuffer(cfg.wb_capacity, cfg.wb_drain_interval)
        self.l1s = [
            SetAssociativeCache(
                cfg.l1_bytes, cfg.l1_ways, cfg.block_size,
                name=f"L1-{c}", level="L1",
            )
            for c in range(cfg.num_cores)
        ]
        self.l2s = [
            SetAssociativeCache(
                cfg.l2_bytes, cfg.l2_ways, cfg.block_size,
                name=f"L2-{c}", level="L2",
            )
            for c in range(cfg.num_cores)
        ]
        self.cycles = [0.0] * cfg.num_cores
        #: Cycle attribution by component, filled by run(): compute,
        #: l1, l2, llc, memory, coherence, writeback.
        self.stall_breakdown: Dict[str, float] = {
            k: 0.0 for k in ("compute", "l1", "l2", "llc", "memory",
                             "coherence", "writeback")
        }
        self.coherence_invalidations = 0
        self.back_invalidations = 0
        self._sharers: Dict[int, int] = {}
        self._cur_value: Dict[int, int] = {}
        self._region_cache: Dict[int, tuple] = {}
        self._regions = None
        self._values = None

    # ------------------------------------------------------------ region info

    def _region_info(self, addr: int) -> tuple:
        """(approx, region_id) for a block address, memoized."""
        info = self._region_cache.get(addr)
        if info is None:
            region_id = self._regions.find_id(addr) if self._regions is not None else -1
            approx = region_id >= 0 and self._regions[region_id].approx
            info = (approx, region_id)
            self._region_cache[addr] = info
        return info

    def _block_values(self, addr: int):
        """Current element values of a block, or None if untracked."""
        vid = self._cur_value.get(addr, -1)
        if vid < 0:
            return None, -1
        return self._values[vid], vid

    # ------------------------------------------------------------- plumbing

    def _apply_reply(self, reply, now: float, origin_addr: int) -> float:
        """Process an LLC reply's writebacks and back-invalidations.

        Returns stall cycles incurred at the writeback buffer.
        """
        stall = 0.0
        tr = self.tracer
        for wb_addr in reply.writebacks:
            wb_stall = self.wb_buffer.enqueue(wb_addr, int(now + stall))
            stall += wb_stall
            self.memory.write(wb_addr)
            if tr is not None:
                tr.emit("wb_enqueue", addr=wb_addr, stall=wb_stall)
        for inv_addr in reply.back_invalidations:
            if inv_addr == origin_addr:
                continue
            self.back_invalidations += 1
            self._purge_private(inv_addr)
            self._sharers.pop(inv_addr, None)
            if tr is not None:
                tr.emit("back_invalidation", addr=inv_addr, origin=origin_addr)
        return stall

    def _purge_private(self, addr: int) -> None:
        """Invalidate the private copies of every core whose sharer bit
        is set; dirty copies go to memory.

        A core's L1 copy always has its bit (``tests/test_coherence.py``
        checks the rule). Its L2 copy may not: when a dirty L2 victim's
        writeback makes the LLC back-invalidate the accessing block
        itself, the access refills its L2 after the purge dropped the
        block's sharer entry, and a later purge leaves that copy behind
        (pinned as a strict xfail in ``tests/test_coherence.py``).
        """
        vec = self._sharers.get(addr, 0)
        c = 0
        while vec:
            if vec & 1:
                state = self.l1s[c].invalidate(addr)
                if state is not None and state & 1:
                    self.memory.write(addr)
                state = self.l2s[c].invalidate(addr)
                if state is not None and state & 1:
                    self.memory.write(addr)
            vec >>= 1
            c += 1

    def _l2_writeback(self, core: int, addr: int, value_id: int, now: float) -> float:
        """A dirty block left the L2 toward the (inclusive) LLC."""
        approx, region_id = self._region_info(addr)
        values = None
        if approx:
            values, tracked_id = self._block_values(addr)
            if value_id < 0:
                value_id = tracked_id
            if values is None:
                raise KeyError(
                    f"approximate block {addr:#x} has no tracked values; "
                    "the workload must register its region data"
                )
        reply = self.llc.handle_writeback(
            addr, core, approx, region_id, value_id=value_id, values=values
        )
        return self._apply_reply(reply, now, addr)

    def _install_l1_victim(self, core: int, victim_addr: int, value_id: int, now: float) -> float:
        """Write a dirty L1 victim into the L2 (possibly cascading)."""
        result = self.l2s[core].access(victim_addr, is_write=True, value_id=value_id)
        if result.writeback:
            return self._l2_writeback(
                core, result.evicted_addr, result.evicted_value_id, now
            )
        return 0.0

    def _handle_store_coherence(self, core: int, addr: int) -> float:
        """Invalidate remote sharers on a store; returns extra latency.

        A remote MODIFIED copy writes its data back to the LLC
        (Sec. 3.6) — for the Doppelgänger side that walks the Sec. 3.4
        write path when the writing core's own dirty copy later leaves
        the L2; the values are tracked through ``_cur_value`` either
        way.
        """
        vec = self._sharers.get(addr, 0)
        others = vec & ~(1 << core)
        latency = 0.0
        if others:
            latency += self.config.llc_latency  # directory consult
            invalidated = 0
            c = 0
            while others:
                if others & 1:
                    self.l1s[c].invalidate(addr)
                    self.l2s[c].invalidate(addr)
                    self.coherence_invalidations += 1
                    invalidated += 1
                others >>= 1
                c += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "coherence_invalidation",
                    addr=addr, writer=core, sharers=invalidated,
                )
        self._sharers[addr] = 1 << core
        return latency

    # ----------------------------------------------------------------- run

    def run(
        self,
        trace: Trace,
        limit: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> SystemResult:
        """Simulate ``trace`` (optionally only its first ``limit`` records).

        The per-access semantics live in :mod:`repro.engine`; ``engine``
        picks the implementation (``"batched"``, the default, or
        ``"reference"`` — see :func:`repro.engine.get_engine`). Every
        engine produces bit-identical results.
        """
        from repro.engine import get_engine

        _, run_fn = get_engine(engine)
        return run_fn(self, trace, limit)

    def fault_summary(self) -> Optional[Dict[str, object]]:
        """Injected-fault report for this run (None without injection)."""
        if self.fault_injector is None:
            return None
        return self.fault_injector.summary()
