"""The batched engine: bulk trace precomputation + inline fast paths.

The trace's columns are converted and block-aligned in one numpy pass
(:mod:`repro.engine.precompute`), every reachable Doppelgänger map is
computed in bulk before the scan, and the scan itself retires accesses
on inline fast paths:

* a read that hits the issuing core's L1 is retired with a replacement
  touch, a sharer-bit OR and a timing update — no cache-model calls;
* a read that misses the L1 but hits the core's L2 replays the L1 fill
  (including a dirty victim written — or write-filled — into the L2,
  cascading a dirty L2 victim into the LLC writeback path) and the L2
  read touch inline;
* a store with remote sharer bits set first replays the directory
  consult inline — the remote private copies are popped, the sharer
  vector collapses to the writer and a traced run gets the
  ``coherence_invalidation`` event, exactly as
  ``System._handle_store_coherence`` — and then retires through the
  ordinary store paths below (runs of writes to the same producer
  region batch into consecutive inline invalidations);
* a store that hits the L1, or misses the L1 but hits or misses the
  L2, replays the same fill logic with the store semantics (dirty/
  MODIFIED, value tracking, sharer reset) — a write always retires at
  ``now + l1_lat``. Store double-misses replay the LLC probe and, on a
  miss, the memory fetch and LLC fill as well;
* a read that misses both private levels replays the whole miss path
  inline: against a conventional baseline LLC the probe, fill, dirty-
  victim writeback (through the bounded writeback buffer) and
  back-invalidation purge are raw dict operations, which emit the
  ``wb_enqueue`` and ``back_invalidation`` events of
  ``System._apply_reply`` in its order when traced; against a
  Doppelgänger organization the engine speaks the same three-call
  adapter protocol the reference uses (``read`` / ``fill`` /
  ``_apply_reply``), so groups of approximate fills that share an MTag
  entry are resolved by the precomputed map memo in one pass and each
  evicted data block's tag linked list is walked once, inside the
  adapter, per eviction — not once per access;
* the few remaining cases — approximate blocks with no tracked value,
  a victim fill that would evict the very block the demand is about to
  hit, and any access under fault injection that reaches a fault site
  — fall through to the shared slow path of :mod:`repro.engine.step`.
  The per-class tallies are published as ``system.engine_stats`` (see
  ``docs/engine.md``). An attached tracer never changes which path an
  access takes, so a traced run has the untraced run's tallies and the
  reference engine's event stream.

Eligibility is decided by probing the caches' live tag→way maps
directly. An earlier design pre-masked each chunk against a snapshot of
the per-core L2 resident sets (numpy ``isin``), but measurement showed
the snapshot goes stale within ~1K accesses on streaming workloads —
the scaled L2 holds only a few hundred blocks and turns over completely
many times per chunk, collapsing fast-path coverage to the L1 hits.
The live probes are exact at every instant and cost two dict lookups.

Fixed-shape statistics and exact dyadic timing terms (gap sums, hit
latencies) are accumulated in plain integers and flushed once at the
end, which is what makes the fast path cheap *and* bit-identical: with
a power-of-two issue width every timing term is a dyadic rational far
below 2^52, so regrouped float sums equal the reference's sequential
sums exactly. Configurations where that argument fails (non-power-of-
two issue width) or where victim selection is stateful (``random``
replacement, whose RNG advances per query) delegate to the reference
engine wholesale.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.block import BlockState, CacheBlock
from repro.engine import reference
from repro.hierarchy.llc import BaselineLLC
from repro.engine.precompute import trace_columns
from repro.engine.step import finalize, make_state, prepare, process_access

#: Replacement policies whose ``victim()`` is a pure query, so the fast
#: path may peek at the victim before deciding to commit or abort.
_PURE_VICTIM_POLICIES = ("lru", "fifo", "plru")

#: Test seam for the resilience layer: when set, called as
#: ``_FAIL_HOOK(system, trace)`` at the top of :func:`run` so the
#: harness's batched-to-reference fallback can be exercised with a
#: synthetic failure (see ``tests/test_resilience.py``). Always None
#: in production.
_FAIL_HOOK = None


def run(system, trace, limit: Optional[int] = None):
    """Simulate ``trace``, bit-identically to the reference engine."""
    if _FAIL_HOOK is not None:
        _FAIL_HOOK(system, trace)
    cfg = system.config
    width_i = cfg.issue_width
    if width_i & (width_i - 1) or cfg.policy not in _PURE_VICTIM_POLICIES:
        result = reference.run(system, trace, limit)
        system.engine_stats["engine"] = "batched"
        system.engine_stats["delegated"] = True
        return result

    st = make_state(system)
    prepare(system, trace)
    cols = trace_columns(trace, cfg.block_size)

    cores_l = cols.cores
    baddrs = cols.baddrs
    writes_l = cols.writes
    approx_l = cols.approx
    rids_l = cols.region_ids
    vids_l = cols.value_ids
    gaps_l = cols.gaps
    n = len(baddrs) if limit is None else min(limit, len(baddrs))

    bshift = cfg.block_size.bit_length() - 1
    blocks_l = (cols.baddr_np >> bshift).tolist()

    num_cores = cfg.num_cores
    l1s, l2s = system.l1s, system.l2s
    l1_maps = [c._tag_to_way for c in l1s]
    l1_ways = [c._ways for c in l1s]
    l1_pols = [c._policies for c in l1s]
    l2_maps = [c._tag_to_way for c in l2s]
    l2_ways = [c._ways for c in l2s]
    l2_pols = [c._policies for c in l2s]
    l1stats = [c.stats for c in l1s]
    l2stats = [c.stats for c in l2s]

    l1_sets = l1s[0].num_sets
    l1_mask = l1_sets - 1
    l1_bits = l1_sets.bit_length() - 1
    l1_assoc = l1s[0].ways
    l2_sets = l2s[0].num_sets
    l2_mask = l2_sets - 1
    l2_bits = l2_sets.bit_length() - 1
    l2_assoc = l2s[0].ways

    # The raw (dict-op) LLC fast paths need a conventional single-array,
    # approx-oblivious LLC whose victim choice is a pure query. Any
    # other organization goes through the adapter-call ("semi") path
    # below, which speaks the exact three-call protocol of the
    # reference. Fault injection decides per LLC/DRAM read, so under it
    # every double-miss must reach the slow path's hooks — the private
    # L1/L2 fast paths never touch a fault site and stay eligible.
    faults_none = st.faults is None
    llc_plain = isinstance(system.llc, BaselineLLC) and faults_none
    if llc_plain:
        lcache = system.llc.cache
        llc_plain = (lcache.policy_name in _PURE_VICTIM_POLICIES
                     and lcache.block_size == cfg.block_size)
    if llc_plain:
        llc_maps = lcache._tag_to_way
        llc_ways_arr = lcache._ways
        llc_pols = lcache._policies
        llc_assoc = lcache.ways
        llc_nsets = lcache.num_sets
        llc_mask = llc_nsets - 1
        llc_sbits = llc_nsets.bit_length() - 1
        llc_stats = lcache.stats

    cycles = st.cycles
    sharers = system._sharers
    cur_value = system._cur_value
    width = st.width
    l1_lat = st.l1_lat
    l2_lat = st.l2_lat
    l1f = float(l1_lat)
    lat12f = float(l1_lat) + l2_lat  # matches the reference's += order
    lat123f = float(l1_lat) + l2_lat + st.llc_lat
    core_bit = [1 << c for c in range(num_cores)]

    tracer = system.tracer
    l2wb = system._l2_writeback
    llc_read = system.llc.read
    llc_fill = system.llc.fill
    apply_reply = system._apply_reply
    block_values = system._block_values
    wb_enqueue = system.wb_buffer.enqueue
    mem_read = system.memory.read
    mem_write = system.memory.write

    # LRU is the paper's policy everywhere; its touch/fill/victim are
    # two dict ops, worth inlining past the method dispatch.
    is_lru = cfg.policy == "lru"
    llc_lru = llc_plain and lcache.policy_name == "lru"
    shared = BlockState.SHARED
    modified = BlockState.MODIFIED
    new_block = CacheBlock
    step = process_access

    # Fixed-shape bulk counters, flushed once after the scan. The _w
    # variants count the store fast paths.
    n_l1hit = [0] * num_cores  # fast L1 read hits
    n_fill_free = [0] * num_cores  # fast L2 hits, L1 fill into a free way
    n_fill_clean = [0] * num_cores  # ... evicting a clean L1 victim
    n_fill_dirty = [0] * num_cores  # ... dirty L1 victim hitting the L2
    n_casc = [0] * num_cores  # ... dirty L1 victim write-filling the L2
    n_l1whit = [0] * num_cores
    n_wfill_free = [0] * num_cores
    n_wfill_clean = [0] * num_cores
    n_wfill_dirty = [0] * num_cores
    n_wcasc = [0] * num_cores  # store L2 hits whose victim fills the L2
    n_wmiss = [0] * num_cores  # store double-misses retired inline
    n_llchit = [0] * num_cores  # fast LLC read hits (L1+L2 read misses)
    n_mem = [0] * num_cores  # fast LLC read misses served by memory
    n_semi_hit = [0] * num_cores  # adapter-path LLC read hits
    n_semi_mem = [0] * num_cores  # adapter-path LLC read misses
    n_le1_clean = [0] * num_cores  # ... evicting a clean L1 victim
    n_le1_dirty = [0] * num_cores  # ... dirty L1 victim hitting the L2
    n_le2 = [0] * num_cores  # ... evicting an L2 victim
    n_pinv_l1 = [0] * num_cores  # back-invalidation purges, per holder
    n_pinv_l2 = [0] * num_cores
    n_llc_evict = 0  # LLC evictions on the read path (each back-invalidates)
    n_coh_dir = 0  # inline store-coherence directory consults
    n_coh_inv = 0  # inline remote-sharer invalidations
    mem_wr = 0  # memory writes from purged dirty private copies
    mem_bd = 0.0  # exact dyadic sum of per-miss memory-stall terms
    wb_bd = 0.0  # exact sum of inline writeback-buffer stalls
    mem_ready_l = st.mem_ready
    runahead = st.runahead
    mem_interval = st.mem_interval
    mem_latency = st.mem_latency
    comp_gaps = 0  # gap sum over fast-path accesses
    insns = 0  # instruction count over fast-path accesses
    # Slow-path (fall-through) tallies, by reason.
    n_slow_untracked = 0  # approximate fills with no tracked value
    n_slow_entangled = 0  # victim fill would evict the demand block
    n_slow_faults = 0  # double-misses under fault injection

    def purge(ebn, ea):
        """Pop every private copy of an evicted LLC block (back-inval).

        Returns the number of dirty copies, each of which the reference
        writes to memory (flushed in bulk via ``mem_wr``).
        """
        vec = sharers.get(ea, 0)
        dirty_wb = 0
        c2 = 0
        while vec:
            if vec & 1:
                se = ebn & l1_mask
                wA = l1_maps[c2][se].pop(ebn >> l1_bits, None)
                if wA is not None:
                    if l1_ways[c2][se].pop(wA).dirty:
                        dirty_wb += 1
                    n_pinv_l1[c2] += 1
                se = ebn & l2_mask
                wB = l2_maps[c2][se].pop(ebn >> l2_bits, None)
                if wB is not None:
                    if l2_ways[c2][se].pop(wB).dirty:
                        dirty_wb += 1
                    n_pinv_l2[c2] += 1
            vec >>= 1
            c2 += 1
        sharers.pop(ea, None)
        return dirty_wb

    for p in range(n):
        c = cores_l[p]
        b = blocks_l[p]
        s1 = b & l1_mask
        m1 = l1_maps[c][s1]
        t1 = b >> l1_bits
        w1 = m1.get(t1)
        if writes_l[p]:
            a = baddrs[p]
            if sharers.get(a, 0) & ~core_bit[c]:
                # Remote sharers: replay the directory consult inline —
                # pop every remote private copy and collapse the sharer
                # vector to the writer.
                rem = sharers[a] & ~core_bit[c]
                inv0 = n_coh_inv
                c2 = 0
                while rem:
                    if rem & 1:
                        se = b & l1_mask
                        wA = l1_maps[c2][se].pop(b >> l1_bits, None)
                        if wA is not None:
                            l1_ways[c2][se].pop(wA)
                            l1stats[c2].invalidations += 1
                        se = b & l2_mask
                        wB = l2_maps[c2][se].pop(b >> l2_bits, None)
                        if wB is not None:
                            l2_ways[c2][se].pop(wB)
                            l2stats[c2].invalidations += 1
                        n_coh_inv += 1
                    rem >>= 1
                    c2 += 1
                n_coh_dir += 1
                sharers[a] = core_bit[c]
                if tracer is not None:
                    tracer.emit("coherence_invalidation", addr=a, writer=c,
                                sharers=n_coh_inv - inv0)
            vid = vids_l[p]
            if w1 is not None:
                # Fast path: store hit in the L1, no remote copies.
                if vid >= 0:
                    cur_value[a] = vid
                sharers[a] = core_bit[c]
                blk = l1_ways[c][s1][w1]
                blk.dirty = True
                blk.state = modified
                if vid >= 0:
                    blk.value_id = vid
                if is_lru:
                    o = l1_pols[c][s1]._order
                    del o[w1]
                    o[w1] = None
                else:
                    l1_pols[c][s1].on_access(w1)
                g = gaps_l[p]
                comp_gaps += g
                insns += g + 1
                cycles[c] = cycles[c] + g / width + l1f
                n_l1whit[c] += 1
                continue
            cm2 = l2_maps[c]
            s2 = b & l2_mask
            t2 = b >> l2_bits
            w2 = cm2[s2].get(t2)
            # L1 victim peek (pure), shared by both store-miss shapes.
            ws1 = l1_ways[c][s1]
            vb = None
            if len(ws1) < l1_assoc:
                for way in range(l1_assoc):
                    if way not in ws1:
                        break
            else:
                way = (next(iter(l1_pols[c][s1]._order)) if is_lru
                       else l1_pols[c][s1].victim())
                vb = ws1[way]
            if w2 is not None:
                # Store missing the L1, hitting the L2. A dirty L1
                # victim either write-hits the L2 or write-fills it
                # (possibly cascading a dirty L2 victim to the LLC).
                wv = None
                vfill = False
                vb2v = None
                if vb is not None and vb.dirty:
                    vbn = (vb.tag << l1_bits) | s1
                    sv = vbn & l2_mask
                    tv = vbn >> l2_bits
                    wv = cm2[sv].get(tv)
                    if wv is None:
                        vfill = True
                        wsv = l2_ways[c][sv]
                        if len(wsv) < l2_assoc:
                            for wayv in range(l2_assoc):
                                if wayv not in wsv:
                                    break
                        else:
                            wayv = (next(iter(l2_pols[c][sv]._order))
                                    if is_lru else l2_pols[c][sv].victim())
                            if sv == s2 and wayv == w2:
                                # The victim fill would evict the very
                                # block the store is about to hit.
                                n_slow_entangled += 1
                                step(system, st, c, a, True, approx_l[p],
                                     rids_l[p], vids_l[p], gaps_l[p])
                                continue
                            vb2v = wsv[wayv]
                g = gaps_l[p]
                now = cycles[c] + g / width
                if vid >= 0:
                    cur_value[a] = vid
                sharers[a] = core_bit[c]
                if vb is not None:
                    del m1[vb.tag]
                ws1[way] = new_block(t1, state=modified, dirty=True,
                                     value_id=vid)
                m1[t1] = way
                if is_lru:
                    o = l1_pols[c][s1]._order
                    del o[way]
                    o[way] = None
                else:
                    l1_pols[c][s1].on_fill(way)
                wb = 0.0
                if vb is None:
                    n_wfill_free[c] += 1
                elif not vb.dirty:
                    n_wfill_clean[c] += 1
                elif not vfill:
                    n_wfill_dirty[c] += 1
                    b2 = l2_ways[c][sv][wv]
                    b2.dirty = True
                    b2.state = modified
                    if vb.value_id >= 0:
                        b2.value_id = vb.value_id
                    if is_lru:
                        o = l2_pols[c][sv]._order
                        del o[wv]
                        o[wv] = None
                    else:
                        l2_pols[c][sv].on_access(wv)
                else:
                    # Victim write-fill, with direct stats (the bulk
                    # flush only covers the fixed-shape classes).
                    n_wcasc[c] += 1
                    st1 = l1stats[c]
                    st2 = l2stats[c]
                    st1.evictions += 1
                    st1.writebacks += 1
                    st2.accesses += 1
                    st2.tag_lookups += 1
                    st2.write_accesses += 1
                    st2.misses += 1
                    st2.fills += 1
                    st2.data_writes += 1
                    if vb2v is not None:
                        del cm2[sv][vb2v.tag]
                        st2.evictions += 1
                        if vb2v.dirty:
                            st2.writebacks += 1
                    wsv[wayv] = new_block(tv, state=modified, dirty=True,
                                          value_id=vb.value_id)
                    cm2[sv][tv] = wayv
                    if is_lru:
                        o = l2_pols[c][sv]._order
                        del o[wayv]
                        o[wayv] = None
                    else:
                        l2_pols[c][sv].on_fill(wayv)
                    if vb2v is not None and vb2v.dirty:
                        wb += l2wb(c, ((vb2v.tag << l2_bits) | sv) << bshift,
                                   vb2v.value_id, now)
                # Demand L2 write hit.
                b2 = l2_ways[c][s2][w2]
                b2.dirty = True
                b2.state = modified
                if vid >= 0:
                    b2.value_id = vid
                if is_lru:
                    o = l2_pols[c][s2]._order
                    del o[w2]
                    o[w2] = None
                else:
                    l2_pols[c][s2].on_access(w2)
                comp_gaps += g
                insns += g + 1
                cycles[c] = now + l1f
                if wb:
                    wb_bd += wb
                continue
            # Store double-miss: replay the fills, the LLC probe and
            # (on an LLC miss) the memory fetch and LLC fill inline. A
            # store never adds latency past the L1, so the MLP state is
            # untouched; only writeback-buffer stalls accrue to bd.
            if not faults_none:
                n_slow_faults += 1
                step(system, st, c, a, True, approx_l[p], rids_l[p],
                     vids_l[p], gaps_l[p])
                continue
            ap = approx_l[p]
            if ap and vid < 0 and cur_value.get(a, -1) < 0:
                # An approximate fill with no tracked value raises in
                # the reference; keep that on the shared path.
                n_slow_untracked += 1
                step(system, st, c, a, True, ap, rids_l[p],
                     vids_l[p], gaps_l[p])
                continue
            g = gaps_l[p]
            now = cycles[c] + g / width
            if vid >= 0:
                cur_value[a] = vid
            sharers[a] = core_bit[c]
            st1 = l1stats[c]
            st2 = l2stats[c]
            wb = 0.0
            # L1 store fill.
            if vb is not None:
                del m1[vb.tag]
                st1.evictions += 1
                if vb.dirty:
                    st1.writebacks += 1
            ws1[way] = new_block(t1, state=modified, dirty=True, value_id=vid)
            m1[t1] = way
            if is_lru:
                o = l1_pols[c][s1]._order
                del o[way]
                o[way] = None
            else:
                l1_pols[c][s1].on_fill(way)
            st1.accesses += 1
            st1.tag_lookups += 1
            st1.write_accesses += 1
            st1.misses += 1
            st1.fills += 1
            st1.data_writes += 1
            if vb is not None and vb.dirty:
                # Install the dirty victim into the L2 (write).
                vbn = (vb.tag << l1_bits) | s1
                sv = vbn & l2_mask
                tv = vbn >> l2_bits
                wv = cm2[sv].get(tv)
                st2.accesses += 1
                st2.tag_lookups += 1
                st2.write_accesses += 1
                st2.data_writes += 1
                if wv is not None:
                    st2.hits += 1
                    bv = l2_ways[c][sv][wv]
                    bv.dirty = True
                    bv.state = modified
                    if vb.value_id >= 0:
                        bv.value_id = vb.value_id
                    if is_lru:
                        o = l2_pols[c][sv]._order
                        del o[wv]
                        o[wv] = None
                    else:
                        l2_pols[c][sv].on_access(wv)
                else:
                    st2.misses += 1
                    st2.fills += 1
                    wsv = l2_ways[c][sv]
                    vb2v = None
                    if len(wsv) < l2_assoc:
                        for wayv in range(l2_assoc):
                            if wayv not in wsv:
                                break
                    else:
                        wayv = (next(iter(l2_pols[c][sv]._order)) if is_lru
                                else l2_pols[c][sv].victim())
                        vb2v = wsv[wayv]
                        del cm2[sv][vb2v.tag]
                        st2.evictions += 1
                        if vb2v.dirty:
                            st2.writebacks += 1
                    wsv[wayv] = new_block(tv, state=modified, dirty=True,
                                          value_id=vb.value_id)
                    cm2[sv][tv] = wayv
                    if is_lru:
                        o = l2_pols[c][sv]._order
                        del o[wayv]
                        o[wayv] = None
                    else:
                        l2_pols[c][sv].on_fill(wayv)
                    if vb2v is not None and vb2v.dirty:
                        wb += l2wb(c, ((vb2v.tag << l2_bits) | sv) << bshift,
                                   vb2v.value_id, now)
            # Demand L2 store fill (set state may have just changed).
            ws2 = l2_ways[c][s2]
            vb2 = None
            if len(ws2) < l2_assoc:
                for way2 in range(l2_assoc):
                    if way2 not in ws2:
                        break
            else:
                way2 = (next(iter(l2_pols[c][s2]._order)) if is_lru
                        else l2_pols[c][s2].victim())
                vb2 = ws2[way2]
                del cm2[s2][vb2.tag]
                st2.evictions += 1
                if vb2.dirty:
                    st2.writebacks += 1
            ws2[way2] = new_block(t2, state=modified, dirty=True, value_id=vid)
            cm2[s2][t2] = way2
            if is_lru:
                o = l2_pols[c][s2]._order
                del o[way2]
                o[way2] = None
            else:
                l2_pols[c][s2].on_fill(way2)
            st2.accesses += 1
            st2.tag_lookups += 1
            st2.write_accesses += 1
            st2.misses += 1
            st2.fills += 1
            st2.data_writes += 1
            if vb2 is not None and vb2.dirty:
                wb += l2wb(c, ((vb2.tag << l2_bits) | s2) << bshift,
                           vb2.value_id, now)
            # The LLC sees the store as a demand read probe.
            rid = rids_l[p]
            if llc_plain:
                sl = b & llc_mask
                tl = b >> llc_sbits
                lls = llc_stats
                lls.accesses += 1
                lls.tag_lookups += 1
                lls.read_accesses += 1
                wl = llc_maps[sl].get(tl)
                if wl is not None:
                    lls.hits += 1
                    lls.data_reads += 1
                    if llc_lru:
                        o = llc_pols[sl]._order
                        del o[wl]
                        o[wl] = None
                    else:
                        llc_pols[sl].on_access(wl)
                else:
                    lls.misses += 1
                    mem_read(a)
                    fill_vid = cur_value.get(a, -1)
                    wsl = llc_ways_arr[sl]
                    vbl = None
                    if len(wsl) < llc_assoc:
                        for wayl in range(llc_assoc):
                            if wayl not in wsl:
                                break
                    else:
                        wayl = (next(iter(llc_pols[sl]._order)) if llc_lru
                                else llc_pols[sl].victim())
                        vbl = wsl[wayl]
                        ebn = (vbl.tag << llc_sbits) | sl
                        del llc_maps[sl][vbl.tag]
                        lls.evictions += 1
                        if vbl.dirty:
                            lls.writebacks += 1
                    wsl[wayl] = new_block(tl, state=shared, value_id=fill_vid)
                    llc_maps[sl][tl] = wayl
                    if llc_lru:
                        o = llc_pols[sl]._order
                        del o[wayl]
                        o[wayl] = None
                    else:
                        llc_pols[sl].on_fill(wayl)
                    lls.fills += 1
                    lls.data_reads += 1
                    if vbl is not None:
                        lls.back_invalidations += 1
                        ea = ebn << bshift
                        if vbl.dirty:
                            stall = wb_enqueue(ea, int(now))
                            wb += stall
                            mem_write(ea)
                            if tracer is not None:
                                tracer.emit("wb_enqueue", addr=ea,
                                            stall=stall)
                        system.back_invalidations += 1
                        mem_wr += purge(ebn, ea)
                        if tracer is not None:
                            tracer.emit("back_invalidation", addr=ea,
                                        origin=a)
            else:
                reply = llc_read(a, c, ap, rid)
                if not reply.hit:
                    mem_read(a)
                    values = None
                    fill_vid = cur_value.get(a, -1)
                    if ap:
                        values, fill_vid = block_values(a)
                    fr = llc_fill(a, c, ap, rid, value_id=fill_vid,
                                  values=values, dirty=False)
                    wb += apply_reply(fr, now, a)
            comp_gaps += g
            insns += g + 1
            cycles[c] = now + l1f
            n_wmiss[c] += 1
            if wb:
                wb_bd += wb
            continue
        if w1 is not None:
            # Fast path: L1 read hit.
            if is_lru:
                o = l1_pols[c][s1]._order
                del o[w1]
                o[w1] = None
            else:
                l1_pols[c][s1].on_access(w1)
            a = baddrs[p]
            sharers[a] = sharers.get(a, 0) | core_bit[c]
            g = gaps_l[p]
            comp_gaps += g
            insns += g + 1
            cycles[c] = cycles[c] + g / width + l1f
            n_l1hit[c] += 1
            continue
        cm2 = l2_maps[c]
        s2 = b & l2_mask
        t2 = b >> l2_bits
        w2 = cm2[s2].get(t2)
        if w2 is None:
            # The read misses both private levels. Replay the whole
            # miss path inline: raw dict ops against a conventional
            # LLC, the adapter protocol against any other organization.
            # The only pre-mutation aborts are the reference's raise
            # (untracked approximate value) and fault injection.
            a = baddrs[p]
            ap = approx_l[p]
            if llc_plain:
                sl = b & llc_mask
                tl = b >> llc_sbits
                wl = llc_maps[sl].get(tl)
                fill_vid = -1
                if wl is None:
                    fill_vid = cur_value.get(a, -1)
                    if ap and fill_vid < 0:
                        n_slow_untracked += 1
                        step(system, st, c, a, False, True, rids_l[p],
                             vids_l[p], gaps_l[p])
                        continue
            elif faults_none:
                if ap and cur_value.get(a, -1) < 0:
                    n_slow_untracked += 1
                    step(system, st, c, a, False, True, rids_l[p],
                         vids_l[p], gaps_l[p])
                    continue
            else:
                n_slow_faults += 1
                step(system, st, c, a, False, ap, rids_l[p],
                     vids_l[p], gaps_l[p])
                continue
            # Commit: live sequential replay, no aborts past this
            # point. Order matches the slow path: L1 fill, dirty victim
            # into the L2 (write hit or write fill, cascading a dirty
            # L2 victim to the LLC), demand L2 fill (same cascade),
            # then the LLC probe/fill.
            g = gaps_l[p]
            now = cycles[c] + g / width
            comp_gaps += g
            insns += g + 1
            vid = vids_l[p]
            sharers[a] = sharers.get(a, 0) | core_bit[c]
            wb = 0.0
            ws1 = l1_ways[c][s1]
            vb = None
            if len(ws1) < l1_assoc:
                for way in range(l1_assoc):
                    if way not in ws1:
                        break
            else:
                way = (next(iter(l1_pols[c][s1]._order)) if is_lru
                       else l1_pols[c][s1].victim())
                vb = ws1[way]
                del m1[vb.tag]
            ws1[way] = new_block(t1, state=shared, value_id=vid)
            m1[t1] = way
            if is_lru:
                o = l1_pols[c][s1]._order
                del o[way]
                o[way] = None
            else:
                l1_pols[c][s1].on_fill(way)
            if vb is None:
                pass
            elif not vb.dirty:
                n_le1_clean[c] += 1
            else:
                vbn = (vb.tag << l1_bits) | s1
                sv = vbn & l2_mask
                tv = vbn >> l2_bits
                wv = cm2[sv].get(tv)
                if wv is not None:
                    n_le1_dirty[c] += 1
                    b2 = l2_ways[c][sv][wv]
                    b2.dirty = True
                    b2.state = modified
                    if vb.value_id >= 0:
                        b2.value_id = vb.value_id
                    if is_lru:
                        o = l2_pols[c][sv]._order
                        del o[wv]
                        o[wv] = None
                    else:
                        l2_pols[c][sv].on_access(wv)
                else:
                    # Victim write-fill, with direct stats.
                    st1 = l1stats[c]
                    st2 = l2stats[c]
                    st1.evictions += 1
                    st1.writebacks += 1
                    st2.accesses += 1
                    st2.tag_lookups += 1
                    st2.write_accesses += 1
                    st2.misses += 1
                    st2.fills += 1
                    st2.data_writes += 1
                    wsv = l2_ways[c][sv]
                    vb2v = None
                    if len(wsv) < l2_assoc:
                        for wayv in range(l2_assoc):
                            if wayv not in wsv:
                                break
                    else:
                        wayv = (next(iter(l2_pols[c][sv]._order)) if is_lru
                                else l2_pols[c][sv].victim())
                        vb2v = wsv[wayv]
                        del cm2[sv][vb2v.tag]
                        st2.evictions += 1
                        if vb2v.dirty:
                            st2.writebacks += 1
                    wsv[wayv] = new_block(tv, state=modified, dirty=True,
                                          value_id=vb.value_id)
                    cm2[sv][tv] = wayv
                    if is_lru:
                        o = l2_pols[c][sv]._order
                        del o[wayv]
                        o[wayv] = None
                    else:
                        l2_pols[c][sv].on_fill(wayv)
                    if vb2v is not None and vb2v.dirty:
                        wb += l2wb(c, ((vb2v.tag << l2_bits) | sv) << bshift,
                                   vb2v.value_id, now)
            # Demand L2 fill (live peek — the victim ops above may have
            # reordered or refilled this very set).
            ws2 = l2_ways[c][s2]
            vb2 = None
            if len(ws2) < l2_assoc:
                for way2 in range(l2_assoc):
                    if way2 not in ws2:
                        break
            else:
                way2 = (next(iter(l2_pols[c][s2]._order)) if is_lru
                        else l2_pols[c][s2].victim())
                vb2 = ws2[way2]
                del cm2[s2][vb2.tag]
                n_le2[c] += 1
                if vb2.dirty:
                    l2stats[c].writebacks += 1
            ws2[way2] = new_block(t2, state=shared, value_id=vid)
            cm2[s2][t2] = way2
            if is_lru:
                o = l2_pols[c][s2]._order
                del o[way2]
                o[way2] = None
            else:
                l2_pols[c][s2].on_fill(way2)
            if vb2 is not None and vb2.dirty:
                wb += l2wb(c, ((vb2.tag << l2_bits) | s2) << bshift,
                           vb2.value_id, now)
            if llc_plain:
                if wl is not None:
                    # LLC read hit.
                    if llc_lru:
                        o = llc_pols[sl]._order
                        del o[wl]
                        o[wl] = None
                    else:
                        llc_pols[sl].on_access(wl)
                    cycles[c] = now + lat123f + wb
                    n_llchit[c] += 1
                    if wb:
                        wb_bd += wb
                    continue
                # LLC read miss, served by memory. The eviction
                # back-invalidates every private copy (the inclusive
                # hierarchy); a dirty victim additionally retires
                # through the bounded writeback buffer.
                wbf = 0.0
                wsl = llc_ways_arr[sl]
                vbl = None
                if len(wsl) < llc_assoc:
                    for wayl in range(llc_assoc):
                        if wayl not in wsl:
                            break
                else:
                    wayl = (next(iter(llc_pols[sl]._order)) if llc_lru
                            else llc_pols[sl].victim())
                    vbl = wsl[wayl]
                    ebn = (vbl.tag << llc_sbits) | sl
                    ea = ebn << bshift
                    if vbl.dirty:
                        llc_stats.writebacks += 1
                        wbf = wb_enqueue(ea, int(now))
                        mem_write(ea)
                        if tracer is not None:
                            tracer.emit("wb_enqueue", addr=ea, stall=wbf)
                    mem_wr += purge(ebn, ea)
                    if tracer is not None:
                        tracer.emit("back_invalidation", addr=ea, origin=a)
                    del llc_maps[sl][vbl.tag]
                    n_llc_evict += 1
                wsl[wayl] = new_block(tl, state=shared, value_id=fill_vid)
                llc_maps[sl][tl] = wayl
                if llc_lru:
                    o = llc_pols[sl]._order
                    del o[wayl]
                    o[wayl] = None
                else:
                    llc_pols[sl].on_fill(wayl)
                n_mem[c] += 1
                # Overlap-aware miss timing, exactly as the slow path:
                # cascade stalls are part of the arrival latency, the
                # fill's own stall lands after the overlap window.
                lat = lat123f + wb
                arrival = now + lat
                mr = mem_ready_l[c]
                if arrival - mr < runahead:
                    completion = (mr if mr >= arrival else arrival) + mem_interval
                else:
                    completion = arrival + mem_latency
                mem_ready_l[c] = completion
                mem_bd += completion - now - lat
                cycles[c] = completion + wbf
                wb += wbf
                if wb:
                    wb_bd += wb
                continue
            # Adapter ("semi") path: any other LLC organization — the
            # split or unified Doppelgänger, or a baseline with an
            # exotic policy — via the exact reference protocol calls.
            rid = rids_l[p]
            reply = llc_read(a, c, ap, rid)
            lat = lat123f + wb
            if reply.hit:
                cycles[c] = now + lat
                n_semi_hit[c] += 1
                if wb:
                    wb_bd += wb
                continue
            arrival = now + lat
            mr = mem_ready_l[c]
            if arrival - mr < runahead:
                completion = (mr if mr >= arrival else arrival) + mem_interval
            else:
                completion = arrival + mem_latency
            mem_ready_l[c] = completion
            mem_bd += completion - now - lat
            mem_read(a)
            values = None
            fill_vid = cur_value.get(a, -1)
            if ap:
                values, fill_vid = block_values(a)
            fr = llc_fill(a, c, ap, rid, value_id=fill_vid,
                          values=values, dirty=False)
            wbf = apply_reply(fr, now, a)
            cycles[c] = completion + wbf
            wb += wbf
            if wb:
                wb_bd += wb
            n_semi_mem[c] += 1
            continue
        # Fast path: L1 read miss, L2 read hit. Decide the L1 victim
        # before mutating anything so the one ineligible case (a victim
        # fill that would evict the demand block itself) can abort
        # cleanly.
        ws1 = l1_ways[c][s1]
        vb = None
        vfill = False
        vb2v = None
        if len(ws1) < l1_assoc:
            for way in range(l1_assoc):
                if way not in ws1:
                    break
        else:
            way = (next(iter(l1_pols[c][s1]._order)) if is_lru
                   else l1_pols[c][s1].victim())
            vb = ws1[way]
            if vb.dirty:
                vbn = (vb.tag << l1_bits) | s1
                sv = vbn & l2_mask
                tv = vbn >> l2_bits
                wv = cm2[sv].get(tv)
                if wv is None:
                    vfill = True
                    wsv = l2_ways[c][sv]
                    if len(wsv) < l2_assoc:
                        for wayv in range(l2_assoc):
                            if wayv not in wsv:
                                break
                    else:
                        wayv = (next(iter(l2_pols[c][sv]._order)) if is_lru
                                else l2_pols[c][sv].victim())
                        if sv == s2 and wayv == w2:
                            # The victim fill would evict the very
                            # block the read is about to hit.
                            n_slow_entangled += 1
                            step(system, st, c, baddrs[p], False, approx_l[p],
                                 rids_l[p], vids_l[p], gaps_l[p])
                            continue
                        vb2v = wsv[wayv]
        # Commit: replay l1.access(miss) -> _fill exactly.
        g = gaps_l[p]
        now = cycles[c] + g / width
        if vb is not None:
            del m1[vb.tag]
        vid = vids_l[p]
        ws1[way] = new_block(t1, state=shared, value_id=vid)
        m1[t1] = way
        if is_lru:
            o = l1_pols[c][s1]._order
            del o[way]
            o[way] = None
        else:
            l1_pols[c][s1].on_fill(way)
        wb = 0.0
        if vb is None:
            n_fill_free[c] += 1
        elif not vb.dirty:
            n_fill_clean[c] += 1
        elif not vfill:
            # _install_l1_victim: a write hit in the L2.
            n_fill_dirty[c] += 1
            b2 = l2_ways[c][sv][wv]
            b2.dirty = True
            b2.state = modified
            if vb.value_id >= 0:
                b2.value_id = vb.value_id
            l2_pols[c][sv].on_access(wv)
        else:
            # _install_l1_victim: a write fill, with direct stats;
            # a dirty L2 victim cascades into the LLC writeback path.
            n_casc[c] += 1
            st1 = l1stats[c]
            st2 = l2stats[c]
            st1.evictions += 1
            st1.writebacks += 1
            st2.accesses += 1
            st2.tag_lookups += 1
            st2.write_accesses += 1
            st2.misses += 1
            st2.fills += 1
            st2.data_writes += 1
            if vb2v is not None:
                del cm2[sv][vb2v.tag]
                st2.evictions += 1
                if vb2v.dirty:
                    st2.writebacks += 1
            wsv[wayv] = new_block(tv, state=modified, dirty=True,
                                  value_id=vb.value_id)
            cm2[sv][tv] = wayv
            if is_lru:
                o = l2_pols[c][sv]._order
                del o[wayv]
                o[wayv] = None
            else:
                l2_pols[c][sv].on_fill(wayv)
            if vb2v is not None and vb2v.dirty:
                wb += l2wb(c, ((vb2v.tag << l2_bits) | sv) << bshift,
                           vb2v.value_id, now)
        # Demand L2 read hit.
        if is_lru:
            o = l2_pols[c][s2]._order
            del o[w2]
            o[w2] = None
        else:
            l2_pols[c][s2].on_access(w2)
        a = baddrs[p]
        sharers[a] = sharers.get(a, 0) | core_bit[c]
        comp_gaps += g
        insns += g + 1
        if wb:
            cycles[c] = now + lat12f + wb
            wb_bd += wb
        else:
            cycles[c] = now + lat12f

    # Flush the bulk counters. Every term is an integer (or a dyadic
    # rational for the gap sum), so regrouping is exact.
    fast_all = 0
    l2_lat_hits = 0
    llc_hits = 0
    llc_misses = 0
    semi_reads = 0
    for c in range(num_cores):
        k1r = n_l1hit[c]
        kc = n_casc[c]
        k2r = n_fill_free[c] + n_fill_clean[c] + n_fill_dirty[c] + kc
        k1w = n_l1whit[c]
        k2w = (n_wfill_free[c] + n_wfill_clean[c] + n_wfill_dirty[c]
               + n_wcasc[c])
        # Private double-misses all share the demand-fill shape.
        k3 = n_llchit[c] + n_mem[c] + n_semi_hit[c] + n_semi_mem[c]
        fast_all += k1r + k2r + k1w + k2w + k3 + n_wmiss[c]
        l2_lat_hits += k2r + k3
        llc_hits += n_llchit[c]
        llc_misses += n_mem[c]
        semi_reads += n_semi_hit[c] + n_semi_mem[c]
        dr = n_fill_dirty[c]
        dw = n_wfill_dirty[c]
        dl = n_le1_dirty[c]
        s1 = l1stats[c]
        s1.accesses += k1r + k2r + k1w + k2w + k3
        s1.tag_lookups += k1r + k2r + k1w + k2w + k3
        s1.read_accesses += k1r + k2r + k3
        s1.write_accesses += k1w + k2w
        s1.hits += k1r + k1w
        s1.misses += k2r + k2w + k3
        s1.fills += k2r + k2w + k3
        s1.data_reads += k1r + k2r + k3
        s1.data_writes += k1w + k2w
        s1.evictions += (n_fill_clean[c] + dr + n_wfill_clean[c] + dw
                         + n_le1_clean[c] + dl)
        s1.writebacks += dr + dw + dl
        s1.invalidations += n_pinv_l1[c]
        s2 = l2stats[c]
        s2.accesses += k2r + dr + k2w + dw + k3 + dl
        s2.tag_lookups += k2r + dr + k2w + dw + k3 + dl
        s2.read_accesses += k2r + k3
        s2.write_accesses += dr + k2w + dw + dl
        s2.hits += k2r + dr + k2w + dw + dl
        s2.misses += k3
        s2.fills += k3
        s2.data_reads += k2r + k3
        s2.data_writes += dr + k2w + dw + dl
        s2.evictions += n_le2[c]
        s2.invalidations += n_pinv_l2[c]
    if llc_plain and (llc_hits or llc_misses or n_llc_evict):
        ls = llc_stats
        ls.accesses += llc_hits + llc_misses
        ls.tag_lookups += llc_hits + llc_misses
        ls.read_accesses += llc_hits + llc_misses
        ls.hits += llc_hits
        ls.misses += llc_misses
        ls.fills += llc_misses
        ls.data_reads += llc_hits + llc_misses
        ls.evictions += n_llc_evict
        ls.back_invalidations += n_llc_evict
        system.back_invalidations += n_llc_evict
    system.memory.reads += llc_misses
    system.memory.writes += mem_wr
    system.coherence_invalidations += n_coh_inv
    bd = st.bd
    bd["compute"] += comp_gaps / width
    bd["l1"] += fast_all * l1_lat
    bd["l2"] += l2_lat_hits * l2_lat
    bd["llc"] += (llc_hits + llc_misses + semi_reads) * st.llc_lat
    bd["memory"] += mem_bd
    bd["coherence"] += n_coh_dir * float(st.llc_lat)
    bd["writeback"] += wb_bd
    st.instructions += insns

    slow_total = n_slow_untracked + n_slow_entangled + n_slow_faults
    system.engine_stats = {
        "engine": "batched",
        "accesses": n,
        "fast": {
            "l1_read_hit": sum(n_l1hit),
            "l1_write_hit": sum(n_l1whit),
            "l2_read_hit": (sum(n_fill_free) + sum(n_fill_clean)
                            + sum(n_fill_dirty) + sum(n_casc)),
            "l2_write_hit": (sum(n_wfill_free) + sum(n_wfill_clean)
                             + sum(n_wfill_dirty) + sum(n_wcasc)),
            "llc_read_hit": sum(n_llchit),
            "mem_fill": sum(n_mem),
            "llc_adapter_hit": sum(n_semi_hit),
            "llc_adapter_fill": sum(n_semi_mem),
            "write_fill": sum(n_wmiss),
        },
        "slow": {
            "untracked_values": n_slow_untracked,
            "victim_entangled": n_slow_entangled,
            "faults": n_slow_faults,
        },
        "aux": {
            "coherence_inlined": n_coh_dir,
            "remote_invalidations_inlined": n_coh_inv,
            "llc_evictions_inlined": n_llc_evict,
        },
        "slow_fraction": (slow_total / n) if n else 0.0,
    }
    return finalize(system, st)
