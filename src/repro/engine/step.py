"""The per-access slow path, shared by every engine.

:func:`process_access` is the reference semantics of one trace record —
the loop body that used to live inline in ``System.run``. The reference
engine calls it for every access; the batched engine calls it for every
access its fast path cannot prove safe (writes, private-cache misses,
anything that can touch coherence, the LLC, or memory timing). Keeping
a single copy is what makes the two engines identical by construction
on the slow path; the equivalence suite then only has to pin down the
fast path.

:func:`make_state` / :func:`prepare` / :func:`finalize` factor the
run() preamble and postamble so both engines share those too.
"""

from __future__ import annotations


class RunState:
    """Mutable per-run timing state shared across the access stream."""

    __slots__ = (
        "cycles", "bd", "mem_ready", "width",
        "l1_lat", "l2_lat", "llc_lat",
        "mem_interval", "runahead", "mem_latency",
        "instructions", "faults", "approx_llc",
    )


def make_state(system) -> RunState:
    """Hoist the per-run constants and counters out of the loop."""
    cfg = system.config
    st = RunState()
    st.cycles = system.cycles
    st.bd = system.stall_breakdown
    st.mem_ready = [0.0] * cfg.num_cores  # last miss completion per core
    st.width = float(cfg.issue_width)
    st.l1_lat = cfg.l1_latency
    st.l2_lat = cfg.l2_latency
    st.llc_lat = cfg.llc_latency
    st.mem_interval = cfg.mem_overlap_interval
    st.runahead = cfg.runahead_window
    st.mem_latency = system.memory.latency
    st.instructions = 0
    st.faults = system.fault_injector
    # Silent (unprotected) faults only exist in the approximate
    # organizations: a baseline LLC stores approximate lines in its
    # ordinary ECC-protected array, so every fault there is detected.
    from repro.hierarchy.llc import BaselineLLC

    st.approx_llc = not isinstance(system.llc, BaselineLLC)
    return st


def prepare(system, trace) -> None:
    """Bind the trace's regions/values and seed the LLC's map memo."""
    system._regions = trace.regions
    system._values = trace.values
    system._cur_value = dict(trace.initial_image)
    seed = getattr(system.llc, "seed_map_memo", None)
    if seed is not None:
        from repro.engine.precompute import map_hashes

        seed(map_hashes(trace, system.llc.config.map.hashes))


def process_access(
    system,
    st: RunState,
    core: int,
    addr: int,
    is_write: bool,
    approx: bool,
    region_id: int,
    value_id: int,
    gap: int,
) -> None:
    """Simulate one access with full coherence/hierarchy semantics.

    ``addr`` must already be block-aligned.
    """
    cycles = st.cycles
    bd = st.bd
    width = st.width
    l1_lat = st.l1_lat

    st.instructions += gap + 1
    now = cycles[core] + gap / width
    bd["compute"] += gap / width
    latency = float(l1_lat)
    bd["l1"] += l1_lat

    if is_write and value_id >= 0:
        system._cur_value[addr] = value_id
    if is_write:
        coherence_cost = system._handle_store_coherence(core, addr)
        latency += coherence_cost
        bd["coherence"] += coherence_cost
    else:
        sharers = system._sharers
        sharers[addr] = sharers.get(addr, 0) | (1 << core)

    res1 = system.l1s[core].access(addr, is_write, value_id)
    if not res1.hit:
        if res1.writeback:
            wb_cost = system._install_l1_victim(
                core, res1.evicted_addr, res1.evicted_value_id, now
            )
            latency += wb_cost
            bd["writeback"] += wb_cost
        l2 = system.l2s[core]
        res2 = l2.access(addr, is_write, value_id)
        if not res2.hit:
            l2_lat = st.l2_lat
            if not is_write:
                latency += l2_lat
                bd["l2"] += l2_lat
            if res2.writeback:
                wb_cost = system._l2_writeback(
                    core, res2.evicted_addr, res2.evicted_value_id, now
                )
                latency += wb_cost
                bd["writeback"] += wb_cost
            llc_reply = system.llc.read(addr, core, approx, region_id)
            if not is_write:
                latency += st.llc_lat
                bd["llc"] += st.llc_lat
            fi = st.faults
            if fi is not None and llc_reply.hit and not is_write:
                # Resilience layer: a demand read returned data from a
                # possibly-faulty structure. Precise structures are
                # ECC-protected — a detected fault refetches the line
                # from DRAM (full latency + traffic, never wrong);
                # the approximate data array is unprotected — a fault
                # is silent here (counted; its value corruption is
                # modelled in the functional error path).
                if approx and st.approx_llc:
                    if fi.silent("approx_data") and system.tracer is not None:
                        system.tracer.emit(
                            "fault_injected",
                            site="approx_data", addr=addr, detected=False,
                        )
                elif fi.detected("llc"):
                    system.memory.read(addr)
                    latency += st.mem_latency
                    bd["memory"] += st.mem_latency
                    if system.tracer is not None:
                        system.tracer.emit(
                            "fault_injected",
                            site="llc", addr=addr, detected=True,
                        )
            if not llc_reply.hit:
                if not is_write:
                    # Overlap-aware miss penalty: an isolated miss pays
                    # the full DRAM latency, but when the core reaches
                    # its next miss within the runahead window of the
                    # previous one resolving, the OoO engine had
                    # already issued it and the burst completes every
                    # mem_interval cycles (MLP).
                    arrival = now + latency
                    if arrival - st.mem_ready[core] < st.runahead:
                        completion = (
                            max(st.mem_ready[core], arrival) + st.mem_interval
                        )
                    else:
                        completion = arrival + st.mem_latency
                    st.mem_ready[core] = completion
                    bd["memory"] += completion - now - latency
                    latency = completion - now
                system.memory.read(addr)
                if fi is not None:
                    # A DRAM transfer can fault too: precise lines are
                    # ECC-checked and retried (extra traffic +
                    # latency); approximate fills arrive silently
                    # corrupted (functional path models the values).
                    if approx and st.approx_llc:
                        if fi.silent("dram") and system.tracer is not None:
                            system.tracer.emit(
                                "fault_injected",
                                site="dram", addr=addr, detected=False,
                            )
                    elif fi.detected("dram"):
                        system.memory.read(addr)
                        if not is_write:
                            latency += st.mem_latency
                            bd["memory"] += st.mem_latency
                        if system.tracer is not None:
                            system.tracer.emit(
                                "fault_injected",
                                site="dram", addr=addr, detected=True,
                            )
                values = None
                fill_vid = system._cur_value.get(addr, -1)
                if approx:
                    values, fill_vid = system._block_values(addr)
                    if values is None:
                        raise KeyError(
                            f"approximate block {addr:#x} has no tracked "
                            "values; register the region data in the trace"
                        )
                fill_reply = system.llc.fill(
                    addr, core, approx, region_id,
                    value_id=fill_vid, values=values, dirty=False,
                )
                wb_cost = system._apply_reply(fill_reply, now, addr)
                latency += wb_cost
                bd["writeback"] += wb_cost
        elif not is_write:
            l2_lat = st.l2_lat
            latency += l2_lat
            bd["l2"] += l2_lat

    if is_write:
        cycles[core] = now + l1_lat
    else:
        cycles[core] = now + latency


def finalize(system, st: RunState):
    """Assemble the :class:`~repro.hierarchy.system.SystemResult`."""
    from repro.cache.stats import CacheStats
    from repro.hierarchy.system import SystemResult

    per_core = [int(c) for c in st.cycles]
    l1_stats = CacheStats()
    for l1 in system.l1s:
        l1_stats = l1_stats.merge(l1.stats)
    l2_stats = CacheStats()
    for l2 in system.l2s:
        l2_stats = l2_stats.merge(l2.stats)

    return SystemResult(
        cycles=max(per_core) if per_core else 0,
        per_core_cycles=per_core,
        instructions=st.instructions,
        llc_misses=system.llc.miss_count(),
        llc_accesses=system.llc.access_count(),
        dram_reads=system.memory.reads,
        dram_writes=system.memory.writes,
        traffic_bytes=system.memory.traffic_bytes,
        coherence_invalidations=system.coherence_invalidations,
        back_invalidations=system.back_invalidations,
        wb_stall_cycles=system.wb_buffer.stall_cycles,
        l1_stats=l1_stats,
        l2_stats=l2_stats,
        stall_breakdown=dict(system.stall_breakdown),
    )
