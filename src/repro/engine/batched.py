"""The batched engine: bulk trace precomputation + inline fast paths.

The scan reads the trace as a stream of rows, converted and
block-aligned one chunk at a time (:mod:`repro.engine.precompute`),
each row leading with its access's L1 set; every reachable
Doppelgänger map is computed in bulk before the scan, and the scan
itself retires accesses inline:

* a load or store that hits the issuing core's L1 is retired with an
  LRU touch of its set dict and one integer add to the core's
  issue-slot clock (see *Timing* below) — no cache-model calls and no
  counter: the L1 hits are derived after the scan. A store also sets
  the block's dirty bit and value and writes the directory; a load
  leaves the directory alone, because an L1-resident block always has
  its core's sharer bit set already;
* a store with remote sharer bits set first replays the directory
  consult inline — the remote private copies are popped, the sharer
  vector collapses to the writer and a traced run gets the
  ``coherence_invalidation`` event, exactly as
  ``System._handle_store_coherence`` — and then retires like any other
  store;
* a load or store that misses the L1 takes one flow, in the order of
  :func:`~repro.engine.step.process_access`: the L1 fill; a dirty L1
  victim written into the L2 (a write hit, or a write fill whose dirty
  L2 victim goes down the LLC writeback path); the demand L2 hit or
  fill; and, on an L2 miss, the LLC. The LLC step retires every
  organization, under any replacement policy, without an adapter call,
  by one of two routes. A conventional array — the baseline LLC, or
  the split design's precise half — is probed with raw operations on
  its set dicts and filled through its
  :class:`~repro.cache.replacement.ReplacementSets`, which picks the
  victim: a dirty victim goes through the bounded writeback buffer, and
  its back-invalidation purges the private copies. A Doppelgänger array
  pair — the split design's approximate half, and every access of the
  unified design — is probed as ``DoppelgangerCache.lookup`` does (the
  tag array, then the MTag array at the tag's map; under LRU each hit
  entry is popped and re-stored at the back of its set dict) and filled
  by the core's own ``insert``. Its reply is applied in
  ``System._apply_reply``'s order. Both routes emit the ``wb_enqueue``
  and ``back_invalidation`` events of ``_apply_reply`` when traced;
* the few remaining cases — approximate fills with no tracked value, a
  predicted L2 hit whose victim fill could remove the demand block, and
  any L2 miss under fault injection — are recognised before anything is
  mutated and fall through to the shared slow path of
  :mod:`repro.engine.step`.

The per-class tallies are published as ``system.engine_stats`` (see
``docs/engine.md``). An attached tracer never changes which path an
access takes, so a traced run has the untraced run's tallies and the
reference engine's event stream.

Eligibility is decided by probing the caches' live per-set dicts
directly. An earlier design pre-masked each chunk against a snapshot of
the per-core L2 resident sets (numpy ``isin``), but measurement showed
the snapshot goes stale within ~1K accesses on streaming workloads —
the scaled L2 holds only a few hundred blocks and turns over completely
many times per chunk, collapsing fast-path coverage to the L1 hits.
The live probes are exact at every instant and cost two dict lookups.

Every private cache and the baseline LLC replace by LRU. Each set of a
``SetAssociativeCache`` is one ``block address → state`` dict in LRU
order, the state an integer ``(value_id << 1) | dirty``, so a
probe-and-touch is a ``pop`` and a store of the trace's own address, a
fill appends one integer, and the victim is the first key, already an
address. The Doppelgänger tag array is keyed the same way. Per-core
event counts and each LLC structure's demand hits and misses are
accumulated in plain integers and flushed once at the end.

*Timing.* Each core keeps two numbers: an integer count of issue slots
and a float stall offset, and its cycle count is ``slots / width +
offset``. Every access adds ``gap + l1_latency × issue_width`` slots
(the stream's gap field arrives converted), which is all a load or
store that the L1 hits, or any store, costs: ``gap / width +
l1_latency`` cycles.
The offset moves only on a load that misses the L1, by its extra
latency. A slow-path access is handed the exact cycle count, and the
offset is re-derived from what it leaves. The L1 hits, the compute-gap
sum and ``instructions`` are derived after the scan from per-core load
and store counts minus the misses and slow accesses. All of this is
what makes the fast path cheap *and* bit-identical: with a power-of-two
issue width every timing term is a dyadic rational far below 2^52, so
regrouped float sums equal the reference's sequential sums exactly. A
non-power-of-two issue width delegates the whole run to the reference
engine.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.data_array import map_set_index
from repro.engine import reference
from repro.engine.precompute import run_length, trace_rows
from repro.engine.step import finalize, make_state, prepare, process_access
from repro.hierarchy.llc import BaselineLLC, SplitDoppelgangerLLC, UnifiedDoppelgangerLLC

#: The LLC step's routes (see ``run``).
RAW, DOPP = 0, 1


def _flush(stats, read_hits, write_hits, read_misses, write_misses,
           evictions, writebacks, invalidations):
    """Add a run's event counts to one cache's ``CacheStats``.

    Every miss counted here fills, as ``SetAssociativeCache.access``
    does for a private cache and ``read`` + ``install`` do for the LLC.
    """
    hits = read_hits + write_hits
    misses = read_misses + write_misses
    stats.accesses += hits + misses
    stats.tag_lookups += hits + misses
    stats.read_accesses += read_hits + read_misses
    stats.write_accesses += write_hits + write_misses
    stats.hits += hits
    stats.misses += misses
    stats.fills += misses
    stats.data_reads += read_hits + read_misses
    stats.data_writes += write_hits + write_misses
    stats.evictions += evictions
    stats.writebacks += writebacks
    stats.invalidations += invalidations


def run(system, trace, limit: Optional[int] = None):
    """Simulate ``trace``, bit-identically to the reference engine."""
    cfg = system.config
    width_i = cfg.issue_width
    n = run_length(trace, limit)
    if width_i & (width_i - 1):
        result = reference.run(system, trace, n)
        system.engine_stats["engine"] = "batched"
        system.engine_stats["delegated"] = True
        return result

    st = make_state(system)
    prepare(system, trace)
    num_cores = cfg.num_cores
    # Per-core load and store counts, from which the L1 hits are derived
    # after the scan. Counted before the scan, so that numpy's temporary
    # copies do not add to the run's peak memory.
    cores = trace.cores[:n]
    stores = np.bincount(cores[trace.is_write[:n]], minlength=num_cores).tolist()
    loads = [x - s for x, s in
             zip(np.bincount(cores, minlength=num_cores).tolist(), stores)]
    # Issue slots of one access on top of its gap: its L1 latency.
    l1w = st.l1_lat * width_i
    bshift = cfg.block_size.bit_length() - 1

    l1s, l2s = system.l1s, system.l2s
    # Each cache set is one block address -> state dict in LRU order
    # (see SetAssociativeCache): the private caches replace by LRU only.
    l1_sets = [c._sets for c in l1s]
    l2_sets = [c._sets for c in l2s]
    # Every core's L1 sets in one list, indexed by the row's leading
    # field: core * l1_nsets + set index.
    l1_flat = [m for sets in l1_sets for m in sets]

    l1_nsets = l1s[0].num_sets
    l1_mask = l1_nsets - 1
    l1_assoc = l1s[0].ways
    l2_mask = l2s[0].num_sets - 1
    l2_assoc = l2s[0].ways

    # Fault injection decides per LLC/DRAM read, so under it every L2
    # miss must reach the slow path's hooks — the private L1/L2 paths
    # never touch a fault site and stay eligible.
    faults_none = st.faults is None
    # Each demand access that reaches the LLC takes one of two routes,
    # picked by its approximate bit. RAW: dict ops on a conventional
    # array — the baseline LLC, or the split design's precise half —
    # whose fill picks its victim. DOPP: the tag and MTag probes of
    # DoppelgangerCache.lookup in place, and fills through the core's
    # own insert — the split design's approximate half, and every
    # access of the unified design.
    llc = system.llc
    raw = dopp = None
    if isinstance(llc, BaselineLLC):
        raw = llc.cache
    elif isinstance(llc, SplitDoppelgangerLLC):
        raw = llc.precise
        dopp = llc.dopp
    elif isinstance(llc, UnifiedDoppelgangerLLC):
        dopp = llc.uni
    routes = (RAW if raw is not None else DOPP, RAW if dopp is None else DOPP)
    # Only the baseline LLC's loads count as llc_read_hit / mem_fill;
    # any other organization's are llc_adapter_hit / llc_adapter_fill.
    plain = dopp is None
    if raw is not None:
        llc_sets = raw._sets
        llc_lru = raw._repl.lru
        llc_insert = raw._repl.insert
        llc_mask = raw.num_sets - 1
    if dopp is not None:
        # Both arrays replace by the configured policy; only LRU moves
        # an entry on a hit.
        dopp_lru = dopp.config.policy == "lru"
        tag_sets = dopp.tags._sets
        tag_mask = dopp.tags.num_sets - 1
        data_sets = dopp.data._sets
        data_nsets = dopp.data.num_sets
        values_of = system._values
    # Only a Doppelgänger organization answers an L2 writeback with
    # evictions (a tag move can evict a data entry and all its tags).
    wb_evicts = not isinstance(llc, BaselineLLC)

    sharers = system._sharers
    cur_value = system._cur_value
    width = st.width
    # Core c's cycle count is slots[c] / width + off[c] (see Timing).
    cycles = st.cycles
    slots = [0] * num_cores
    off = list(cycles)
    lat2f = float(st.l2_lat)  # a load's latency past the L1, by level
    lat23f = float(st.l2_lat + st.llc_lat)
    lat123f = float(st.l1_lat) + st.l2_lat + st.llc_lat
    core_bit = [1 << c for c in range(num_cores)]

    tracer = system.tracer
    l2wb = system._l2_writeback
    wb_enqueue = system.wb_buffer.enqueue
    mem_write = system.memory.write
    step = process_access

    # Per-core event counts, flushed into each cache's CacheStats after
    # the scan; the (load, store) pairs are indexed by the write bit.
    def per_core():
        return [0] * num_cores

    slow1 = (per_core(), per_core())  # slow-path accesses
    miss1 = (per_core(), per_core())  # L1 misses
    hit2 = (per_core(), per_core())  # demand L2 hits
    miss2 = (per_core(), per_core())  # demand L2 misses (fill, then LLC)
    vhit2 = per_core()  # dirty L1 victims written into a resident L2 block
    vfill2 = per_core()  # ... write-filling the L2
    evict1, evict2, dirty2 = per_core(), per_core(), per_core()
    inval1, inval2 = per_core(), per_core()
    # LLC outcome of the demand L2 misses, by route, then (load, store).
    llc_hit = ([0, 0], [0, 0])
    llc_miss = ([0, 0], [0, 0])
    llc_evict = 0  # RAW-route evictions
    llc_dirty = 0  # ... of them dirty
    n_binv = 0  # back-invalidations of DOPP-route fills
    n_coh_dir = 0  # inline store-coherence directory consults
    n_coh_inv = 0  # inline remote-sharer invalidations
    mem_wr = 0  # memory writes from purged dirty private copies
    mem_bd = 0.0  # exact dyadic sum of per-miss memory-stall terms
    wb_bd = 0.0  # exact sum of writeback-buffer stalls
    slow_slots = 0  # issue slots of the slow-path accesses
    mem_ready_l = st.mem_ready
    runahead = st.runahead
    mem_interval = st.mem_interval
    mem_latency = st.mem_latency
    # Slow-path (fall-through) tallies, by reason.
    n_slow = {"untracked_values": 0, "victim_entangled": 0, "faults": 0}

    def drop_copies(a, vec):
        """Pop block ``a`` from the private caches of every core in the
        bit vector ``vec``; returns how many of the copies were dirty."""
        s1 = (a >> bshift) & l1_mask
        s2 = (a >> bshift) & l2_mask
        dirty = 0
        c2 = 0
        while vec:
            if vec & 1:
                state = l1_sets[c2][s1].pop(a, None)
                if state is not None:
                    dirty += state & 1
                    inval1[c2] += 1
                state = l2_sets[c2][s2].pop(a, None)
                if state is not None:
                    dirty += state & 1
                    inval2[c2] += 1
            vec >>= 1
            c2 += 1
        return dirty

    def fill_l2(c, m, a, state, now):
        """Install block ``a`` with ``state`` in its set (the dict
        ``m``) of core ``c``'s L2, as ``_fill``.

        A dirty victim goes down the LLC writeback path; returns that
        path's writeback-buffer stall.
        """
        if len(m) < l2_assoc:
            m[a] = state
            return 0.0
        va = next(iter(m))
        vs = m.pop(va)
        m[a] = state
        evict2[c] += 1
        if not vs & 1:
            return 0.0
        dirty2[c] += 1
        return l2wb(c, va, vs >> 1, now)

    def victim_to_l2(c, va, vs, now):
        """``System._install_l1_victim``: write the dirty L1 victim
        ``va`` with state ``vs`` into the L2; returns the
        writeback-buffer stall of its cascade."""
        m = l2_sets[c][(va >> bshift) & l2_mask]
        state = m.pop(va, None)
        if state is None:
            vfill2[c] += 1
            return fill_l2(c, m, va, vs, now)
        # A write hit: the victim's value if it has one, else the block's.
        m[va] = vs if vs >= 0 else state | 1
        vhit2[c] += 1
        return 0.0

    # k is the access's L1 set (core * l1_nsets + set index); a its
    # block address, the key of every set dict it touches; g its issue
    # slots: its gap plus l1w.
    rows = trace_rows(trace, n, cfg.block_size, l1w, l1_nsets)
    for k, c, a, wr, ap, rid, vid, g in rows:
        m1 = l1_flat[k]
        if wr:
            rem = sharers.get(a, 0) & ~core_bit[c]
            if rem:
                # Remote sharers: replay the directory consult inline —
                # pop every remote private copy and collapse the sharer
                # vector to the writer.
                drop_copies(a, rem)
                n_rem = bin(rem).count("1")
                n_coh_dir += 1
                n_coh_inv += n_rem
                if tracer is not None:
                    tracer.emit("coherence_invalidation", addr=a, writer=c,
                                sharers=n_rem)
            sharers[a] = core_bit[c]
            if vid >= 0:
                cur_value[a] = vid
            state = m1.pop(a, None)
            if state is not None:
                m1[a] = (vid << 1) | 1 if vid >= 0 else state | 1
                slots[c] += g
                continue
        else:
            state = m1.pop(a, None)
            if state is not None:
                # No directory write: a block in core c's L1 always has
                # bit c set in the sharer vector. The access that filled
                # it set the bit first, and an event that clears a bit
                # (a remote store, a back-invalidation) also pops the
                # copies of each core whose bit it clears
                # (tests/test_coherence.py checks the rule).
                m1[a] = state
                slots[c] += g
                continue
            sharers[a] = sharers.get(a, 0) | core_bit[c]

        # An L1 miss, load or store. Everything that sends the access to
        # the slow path is decided here, before any state changes (the
        # sharer and value updates above are the slow path's first
        # steps too).
        b = a >> bshift
        m2 = l2_sets[c][b & l2_mask]
        in_l2 = a in m2
        # The L1 victim (None while the set has a free way) and its
        # state; 0 stands for "no victim", and vs & 1 marks a dirty one.
        vt = next(iter(m1)) if len(m1) == l1_assoc else None
        vs = 0 if vt is None else m1[vt]
        slow = None
        if not in_l2:
            # The access reaches the LLC, where faults strike and where
            # an approximate fill needs a tracked value (the reference
            # raises without one).
            if not faults_none:
                slow = "faults"
            elif ap and cur_value.get(a, -1) < 0:
                slow = "untracked_values"
        elif vs & 1:
            # The reference probes the L2 after the victim's write. The
            # predicted hit stands unless that write fills the L2 and
            # evicts the demand block itself, or cascades a dirty L2
            # victim into an LLC whose answer can back-invalidate it.
            m2v = l2_sets[c][(vt >> bshift) & l2_mask]
            if len(m2v) == l2_assoc and vt not in m2v:
                v2 = next(iter(m2v))
                if (m2v is m2 and v2 == a) or (wb_evicts and m2v[v2] & 1):
                    slow = "victim_entangled"
        if slow is not None:
            # The slow path reads and writes the exact cycle count.
            n_slow[slow] += 1
            slow1[wr][c] += 1
            slow_slots += g
            cycles[c] = slots[c] / width + off[c]
            step(system, st, c, a, wr, ap, rid, vid, g - l1w)
            slots[c] = sc = slots[c] + g
            off[c] = cycles[c] - sc / width
            continue

        slots[c] = sc = slots[c] + g
        now = (sc - l1w) / width + off[c]  # the cycle the access issues
        miss1[wr][c] += 1
        # 1. The L1 fill.
        if vt is not None:
            del m1[vt]
            evict1[c] += 1
        m1[a] = (vid << 1) | wr
        # 2. A dirty L1 victim is written into the L2.
        wb = victim_to_l2(c, vt, vs, now) if vs & 1 else 0.0
        # 3. The demand L2 hit, or the L2 fill and on to the LLC.
        if in_l2:
            state = m2.pop(a)
            m2[a] = (((vid << 1) | 1 if vid >= 0 else state | 1) if wr
                      else state)
            hit2[wr][c] += 1
            if not wr:
                off[c] += lat2f + wb
            wb_bd += wb
            continue
        miss2[wr][c] += 1
        wb += fill_l2(c, m2, a, (vid << 1) | wr, now)
        # 4. The LLC sees a demand read probe (a store's too).
        route = routes[ap]
        if route == RAW:
            sl = b & llc_mask
            ml = llc_sets[sl]
            if llc_lru:
                state = ml.pop(a, None)
                hit = state is not None
                if hit:
                    ml[a] = state
            else:
                hit = a in ml
        else:
            # DoppelgangerCache.lookup: the tag probe, then the MTag
            # probe by the tag's map; under LRU each hit entry moves to
            # the back of its set.
            tm = tag_sets[b & tag_mask]
            te = tm.get(a)
            hit = te is not None
            if hit and dopp_lru:
                tm[a] = tm.pop(a)
                mv = te.map_value
                dm = data_sets[map_set_index(mv, data_nsets)]
                dk = (te.precise, mv)
                dm[dk] = dm.pop(dk)
        if hit:
            llc_hit[route][wr] += 1
            if not wr:
                off[c] += lat23f + wb
            wb_bd += wb
            continue
        llc_miss[route][wr] += 1
        if not wr:
            # Overlap-aware miss timing, exactly as the slow path: the
            # stalls so far are part of the arrival latency, the fill's
            # own stall lands after the overlap window. A store never
            # adds latency past the L1, so the MLP state is untouched.
            lat = lat123f + wb
            arrival = now + lat
            mr = mem_ready_l[c]
            if arrival - mr < runahead:
                completion = (mr if mr >= arrival else arrival) + mem_interval
            else:
                completion = arrival + mem_latency
            mem_ready_l[c] = completion
            mem_bd += completion - now - lat
        if route == RAW:
            # A clean fill. Its eviction back-invalidates every private
            # copy (the inclusive hierarchy); a dirty victim also
            # retires through the bounded writeback buffer.
            wbf = 0.0
            evicted = llc_insert(sl, a, cur_value.get(a, -1) << 1)
            if evicted is not None:
                ea, vstate = evicted
                if vstate & 1:
                    llc_dirty += 1
                    wbf = wb_enqueue(ea, int(now))
                    mem_write(ea)
                    if tracer is not None:
                        tracer.emit("wb_enqueue", addr=ea, stall=wbf)
                # Back-invalidation; each dirty private copy goes to memory.
                mem_wr += drop_copies(ea, sharers.pop(ea, 0))
                if tracer is not None:
                    tracer.emit("back_invalidation", addr=ea, origin=a)
                llc_evict += 1
        else:
            # The core's insert, then its reply applied as
            # System._apply_reply does: the writebacks with the running
            # stall, then each back-invalidation but the origin's.
            fill_vid = cur_value.get(a, -1)
            if ap:
                out = dopp.insert(a, rid, values_of[fill_vid], fill_vid)
            else:
                out = dopp.insert_block(a, False, value_id=fill_vid)
            wbf = 0.0
            for ea in out.writebacks:
                stall = wb_enqueue(ea, int(now + wbf))
                wbf += stall
                mem_write(ea)
                if tracer is not None:
                    tracer.emit("wb_enqueue", addr=ea, stall=stall)
            for ea in out.back_invalidations:
                if ea != a:
                    n_binv += 1
                    mem_wr += drop_copies(ea, sharers.pop(ea, 0))
                    if tracer is not None:
                        tracer.emit("back_invalidation", addr=ea, origin=a)
        if not wr:
            off[c] = completion + wbf - sc / width
        wb_bd += wb + wbf

    for c in range(num_cores):
        cycles[c] = slots[c] / width + off[c]
    # Every access not counted above hit the L1 on the fast path.
    rhit1 = [x - m - s for x, m, s in zip(loads, miss1[0], slow1[0])]
    whit1 = [x - m - s for x, m, s in zip(stores, miss1[1], slow1[1])]
    # Flush the bulk counters. Every term is an integer (or a dyadic
    # rational for the gap sum), so regrouping is exact.
    for c in range(num_cores):
        _flush(l1s[c].stats, rhit1[c], whit1[c], miss1[0][c], miss1[1][c],
               evict1[c], vhit2[c] + vfill2[c], inval1[c])
        _flush(l2s[c].stats, hit2[0][c], hit2[1][c] + vhit2[c],
               miss2[0][c], miss2[1][c] + vfill2[c],
               evict2[c], dirty2[c], inval2[c])
    if raw is not None:
        _flush(raw.stats, sum(llc_hit[RAW]), 0, sum(llc_miss[RAW]), 0,
               llc_evict, llc_dirty, 0)
        raw.stats.back_invalidations += llc_evict
    if dopp is not None:
        # The counters DoppelgangerCache.lookup bumps.
        dh = sum(llc_hit[DOPP])
        dm = sum(llc_miss[DOPP])
        dstats = dopp.stats
        dstats.accesses += dh + dm
        dstats.tag_lookups += dh + dm
        dstats.hits += dh
        dstats.misses += dm
        dstats.mtag_lookups += dh
        dstats.data_reads += dh
    system.back_invalidations += llc_evict + n_binv
    load_hits = sum(h[0] for h in llc_hit)
    load_misses = sum(m[0] for m in llc_miss)
    system.memory.reads += sum(map(sum, llc_miss))
    system.memory.writes += mem_wr
    system.coherence_invalidations += n_coh_inv
    slow_total = sum(n_slow.values())
    fast_total = n - slow_total
    comp_gaps = sum(slots) - slow_slots - fast_total * l1w
    bd = st.bd
    bd["compute"] += comp_gaps / width
    bd["l1"] += fast_total * st.l1_lat
    bd["l2"] += sum(miss1[0]) * st.l2_lat
    bd["llc"] += sum(miss2[0]) * st.llc_lat
    bd["memory"] += mem_bd
    bd["coherence"] += n_coh_dir * float(st.llc_lat)
    bd["writeback"] += wb_bd
    st.instructions += comp_gaps + fast_total

    system.engine_stats = {
        "engine": "batched",
        "accesses": n,
        "fast": {
            "l1_read_hit": sum(rhit1),
            "l1_write_hit": sum(whit1),
            "l2_read_hit": sum(hit2[0]),
            "l2_write_hit": sum(hit2[1]),
            "llc_read_hit": load_hits if plain else 0,
            "mem_fill": load_misses if plain else 0,
            "llc_adapter_hit": 0 if plain else load_hits,
            "llc_adapter_fill": 0 if plain else load_misses,
            "write_fill": sum(miss2[1]),
        },
        "slow": n_slow,
        "aux": {
            "coherence_inlined": n_coh_dir,
            "remote_invalidations_inlined": n_coh_inv,
            "llc_evictions_inlined": llc_evict if plain else 0,
        },
        "slow_fraction": (slow_total / n) if n else 0.0,
    }
    return finalize(system, st)
