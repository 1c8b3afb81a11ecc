"""Class-level timing wrappers for a traced run of the ``repro`` CLI.

:func:`install` replaces public methods of the simulator's classes with
timing wrappers *before* any ``System`` is built; the batched engine
binds ``system.llc.read``/``.fill`` to locals when a run starts, so
class-level replacement is the only way in. The wrappers never attach a
tracer and never replace a class, so ``isinstance`` checks (and with
them the baseline LLC's inline fast path) behave exactly as untraced.

Two kinds of boundary are recorded:

* coarse ones (:data:`SPANS`, plus every workload class's ``run``)
  become spans -- name, start, end, parent span -- kept in memory;
* per-access ones (:data:`CALLS`) are only aggregated per
  ``(parent, function)`` into count, total and self time, because a span
  per call would cost more than the call.

Self time is total time minus the time of wrapped children. The
wrapper's own cost is measured on a no-op at start-up
(:meth:`LayerTracer.calibrate`) and subtracted from every timer.
:func:`layer_metrics` folds the aggregates into the per-layer metrics
that ``bench/run.py --trace 1`` reports.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter_ns

#: Coarse boundaries, recorded as spans: (module, class, methods).
SPANS = (
    ("repro.harness.runner", "ExperimentContext", ("workload", "trace", "error")),
    ("repro.workloads.base", "Workload", ("build_trace",)),
    ("repro.hierarchy.system", "System", ("run",)),
    ("repro.energy.accounting", "EnergyModel", ("dynamic_energy",)),
    ("repro.obs.store", "RunStore",
     ("__init__", "start_run", "add_result", "add_events", "finish_run")),
)

#: Per-access boundaries, aggregated only: (module, class, methods).
CALLS = (
    ("repro.hierarchy.llc", "BaselineLLC", ("read", "fill", "handle_writeback")),
    ("repro.hierarchy.llc", "SplitDoppelgangerLLC",
     ("read", "fill", "handle_writeback")),
    ("repro.hierarchy.llc", "UnifiedDoppelgangerLLC",
     ("read", "fill", "handle_writeback")),
    ("repro.core.doppelganger", "DoppelgangerCache",
     ("lookup", "insert", "writeback", "seed_map_memo")),
    ("repro.core.unidoppelganger", "UniDoppelgangerCache",
     ("insert_block", "writeback_block")),
    ("repro.core.tag_array", "TagArray", ("allocate",)),
    ("repro.core.data_array", "MTagDataArray", ("allocate",)),
    ("repro.core.functional", "BlockApproximator", ("filter",)),
    ("repro.cache.set_assoc", "SetAssociativeCache", ("access", "install")),
    ("repro.obs.events", "Tracer", ("emit",)),
)

#: Span-name prefix of the workload classes' ``run`` (one per app).
APP_RUN = "app."

_ROOT = "<root>"


def _adapters(method: str) -> tuple:
    return tuple(
        f"{cls}.{method}"
        for cls in ("BaselineLLC", "SplitDoppelgangerLLC", "UnifiedDoppelgangerLLC")
    )


_INSERT = ("DoppelgangerCache.insert", "UniDoppelgangerCache.insert_block")
_WRITEBACK = ("DoppelgangerCache.writeback", "UniDoppelgangerCache.writeback_block")
_STORE = tuple(f"RunStore.{m}" for m in SPANS[-1][2])

#: Per-layer metric -> (unit, rule). ``("calls", F)`` counts calls into
#: the function set F from outside it, so an ``insert_block`` that
#: delegates to ``insert`` is one insert; ``("self", F)`` sums self
#: seconds over F; ``("counter", k)`` reads a counter the after-run
#: hooks collected. A name ending in ``*`` matches by prefix.
RULES = {
    "workloads.build_s": ("s", ("self", ("ExperimentContext.workload",))),
    "workloads.trace_s": (
        "s", ("self", ("ExperimentContext.trace", "Workload.build_trace"))),
    "workloads.trace_accesses": ("count", ("counter", "trace_accesses")),
    "workloads.app_run_calls": ("count", ("calls", (APP_RUN + "*",))),
    "workloads.app_run_s": ("s", ("self", (APP_RUN + "*",))),
    "functional.filter_calls": ("count", ("calls", ("BlockApproximator.filter",))),
    "functional.filter_s": ("s", ("self", ("BlockApproximator.filter",))),
    "engine.runs": ("count", ("calls", ("System.run",))),
    "engine.accesses": ("count", ("counter", "engine_accesses")),
    "engine.self_s": ("s", ("self", ("System.run",))),
    "llc.read_calls": ("count", ("calls", _adapters("read"))),
    "llc.read_s": ("s", ("self", _adapters("read"))),
    "llc.fill_calls": ("count", ("calls", _adapters("fill"))),
    "llc.fill_s": ("s", ("self", _adapters("fill"))),
    "llc.writeback_calls": ("count", ("calls", _adapters("handle_writeback"))),
    "llc.writeback_s": ("s", ("self", _adapters("handle_writeback"))),
    "core.lookup_calls": ("count", ("calls", ("DoppelgangerCache.lookup",))),
    "core.lookup_s": ("s", ("self", ("DoppelgangerCache.lookup",))),
    "core.insert_calls": ("count", ("calls", _INSERT)),
    "core.insert_s": ("s", ("self", _INSERT)),
    "core.writeback_calls": ("count", ("calls", _WRITEBACK)),
    "core.writeback_s": ("s", ("self", _WRITEBACK)),
    "core.tag_alloc_calls": ("count", ("calls", ("TagArray.allocate",))),
    "core.tag_alloc_s": ("s", ("self", ("TagArray.allocate",))),
    "core.data_alloc_calls": ("count", ("calls", ("MTagDataArray.allocate",))),
    "core.data_alloc_s": ("s", ("self", ("MTagDataArray.allocate",))),
    "core.map_seed_s": ("s", ("self", ("DoppelgangerCache.seed_map_memo",))),
    "cache.access_calls": ("count", ("calls", ("SetAssociativeCache.access",))),
    "cache.access_s": ("s", ("self", ("SetAssociativeCache.access",))),
    "cache.install_calls": ("count", ("calls", ("SetAssociativeCache.install",))),
    "cache.install_s": ("s", ("self", ("SetAssociativeCache.install",))),
    "dram.reads": ("count", ("counter", "dram_reads")),
    "dram.writes": ("count", ("counter", "dram_writes")),
    "energy.s": ("s", ("self", ("EnergyModel.dynamic_energy",))),
    "obs.store_s": ("s", ("self", _STORE)),
    "obs.events": ("count", ("calls", ("Tracer.emit",))),
    "obs.emit_s": ("s", ("self", ("Tracer.emit",))),
}

#: Unit of every metric :func:`layer_metrics` returns.
UNITS = {
    **{name: unit for name, (unit, _) in RULES.items()},
    "engine.self_ns_per_access": "ns",
    "core.lookup_hit_frac": "fraction",
    "trace.wrapper_ns": "ns",
}


class LayerTracer:
    """Stack of open wrapped calls plus the spans and aggregates.

    Each open call is a frame ``[name, child_ns, direct_calls,
    descendant_calls]``; on exit its measured interval is added to the
    parent's ``child_ns`` so the parent's self time excludes it.
    """

    def __init__(self):
        self.frames = [[_ROOT, 0, 0, 0]]
        #: (parent, name) -> [count, total_ns, self_ns, direct, desc]
        self.agg = {}
        self.spans = []
        self._open_spans = []
        self.counters = {}
        #: Calibrated wrapper cost per call: the part inside the
        #: wrapped call's own interval, and the part its caller absorbs.
        self.inner_ns = 0.0
        self.outer_ns = 0.0

    def _timed(self, fn, name: str):
        """``fn`` wrapped to fold each call into its parent frame and ``agg``.

        This runs ~10^6 times per workload, so every lookup is bound
        up front: each nanosecond here is noise the calibration has to
        take back out.
        """
        frames = self.frames
        push = frames.append
        pop = frames.pop
        agg = self.agg
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [name, 0, 0, 0]
            push(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                pop()
                parent = frames[-1]
                key = (parent[0], name)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                rec[3] += frame[2]
                rec[4] += frame[3]
                parent[1] += elapsed
                parent[2] += 1
                parent[3] += frame[3] + 1

        return wrapper

    def _spanned(self, timed, name: str, after):
        """``timed`` additionally recorded as a span, then ``after`` run."""
        spans = self.spans
        open_spans = self._open_spans
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            record = {
                "name": name,
                "parent": open_spans[-1] if open_spans else None,
                "start_ns": clock(),
            }
            open_spans.append(len(spans))
            spans.append(record)
            try:
                result = timed(*args, **kwargs)
            finally:
                record["end_ns"] = clock()
                open_spans.pop()
            if after is not None:
                after(args[0], result)
            return result

        return wrapper

    def wrap(self, cls, method: str, name: str, span: bool = False, after=None):
        """Replace ``cls.<method>`` with a timing wrapper.

        With ``span`` each call is also recorded as a span, and
        ``after(obj, result)`` runs once it returned, outside its timed
        interval. Only methods defined on ``cls`` itself are wrapped, so
        an inherited method is never timed twice.
        """
        fn = cls.__dict__[method]
        wrapper = self._timed(fn, name)
        if span:
            wrapper = self._spanned(wrapper, name, after)
        setattr(cls, method, functools.wraps(fn)(wrapper))

    def calibrate(self, calls: int = 20_000, rounds: int = 9) -> None:
        """Measure the wrapper's per-call cost on a no-op method.

        ``inner_ns`` is what a wrapped call's own interval gains over
        the bare call; ``outer_ns`` is the rest of the wrapper's cost,
        which lands in the caller's self time. Each is the fastest of
        ``rounds``: a busy host only ever slows a round down, and an
        inflated cost would be subtracted from every timer. The no-op
        takes positional and keyword arguments, like the LLC and core
        calls it stands in for.
        """

        class _Probe:
            def noop(self, addr, core, value_id=-1, dirty=False):
                return None

        probe = _Probe()
        bare = []
        for _ in range(rounds):
            fn = probe.noop
            t0 = perf_counter_ns()
            for i in range(calls):
                fn(i, 0, value_id=i)
            bare.append((perf_counter_ns() - t0) / calls)
        self.wrap(_Probe, "noop", "calibration.noop")
        wrapped, inner = [], []
        for _ in range(rounds):
            fn = probe.noop
            self.frames.append(["calibration", 0, 0, 0])
            t0 = perf_counter_ns()
            for i in range(calls):
                fn(i, 0, value_id=i)
            wrapped.append((perf_counter_ns() - t0) / calls)
            self.frames.pop()
            rec = self.agg.pop(("calibration", "calibration.noop"))
            inner.append(rec[1] / rec[0])
        bare_ns = min(bare)
        wrapper_ns = max(min(wrapped) - bare_ns, 0.0)
        self.inner_ns = min(max(min(inner) - bare_ns, 0.0), wrapper_ns)
        self.outer_ns = wrapper_ns - self.inner_ns

    @property
    def wrapper_ns(self) -> float:
        """Whole per-call cost of one wrapper."""
        return self.inner_ns + self.outer_ns

    def calls(self) -> list:
        """Aggregates with the calibrated wrapper cost subtracted."""
        out = []
        for (parent, name), (count, total, self_ns, direct, desc) in self.agg.items():
            total -= count * self.inner_ns + desc * self.wrapper_ns
            self_ns -= count * self.inner_ns + direct * self.outer_ns
            out.append({
                "parent": parent,
                "name": name,
                "count": count,
                "total_s": max(total, 0.0) / 1e9,
                "self_s": max(self_ns, 0.0) / 1e9,
            })
        return sorted(out, key=lambda c: (c["name"], c["parent"]))

    def count(self, key: str, amount: int) -> None:
        """Add to one of the after-hook counters."""
        self.counters[key] = self.counters.get(key, 0) + amount

    def report(self) -> dict:
        """Everything the traced run measured, as plain JSON data."""
        return {
            "wrapper_ns": self.wrapper_ns,
            "inner_ns": self.inner_ns,
            "outer_ns": self.outer_ns,
            "counters": dict(self.counters),
            "calls": self.calls(),
            "spans": self.spans,
        }


def _system_counters(tracer: LayerTracer):
    """After-hook for ``System.run``: exact counts the simulator keeps.

    DRAM traffic and engine accesses come from the simulator's own
    counters, not from wrapper call counts: the batched engine retires
    baseline misses inline and adds them to ``memory.reads`` in bulk.
    """

    def after(system, result):
        tracer.count("dram_reads", system.memory.reads)
        tracer.count("dram_writes", system.memory.writes)
        stats = getattr(system, "engine_stats", None) or {}
        tracer.count("engine_accesses", stats.get("accesses", 0))
        dopp = getattr(system.llc, "dopp", None) or getattr(system.llc, "uni", None)
        if dopp is not None:
            tracer.count("dopp_lookups", dopp.stats.accesses)
            tracer.count("dopp_hits", dopp.stats.hits)

    return after


def install() -> LayerTracer:
    """Calibrate, then wrap every boundary in :data:`SPANS` and :data:`CALLS`."""
    from repro.workloads.base import Workload
    import repro.workloads.registry  # noqa: F401  (imports every app class)

    tracer = LayerTracer()
    tracer.calibrate()
    hooks = {
        "System.run": _system_counters(tracer),
        "Workload.build_trace": lambda _, trace: tracer.count(
            "trace_accesses", len(trace)
        ),
    }
    for table, span in ((SPANS, True), (CALLS, False)):
        for module, cls_name, methods in table:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                name = f"{cls_name}.{method}"
                tracer.wrap(cls, method, name, span=span, after=hooks.get(name))
    for app in Workload.__subclasses__():
        if "run" in app.__dict__:
            tracer.wrap(app, "run", f"{APP_RUN}{app.__name__}.run", span=True)
    return tracer


def _matches(name: str, names) -> bool:
    return any(
        name.startswith(n[:-1]) if n.endswith("*") else name == n for n in names
    )


def layer_metrics(report: dict) -> dict:
    """Per-layer metric values (see :data:`UNITS`) from a traced run."""
    calls = report["calls"]
    counters = report["counters"]
    out = {}
    for metric, (_unit, (kind, names)) in RULES.items():
        if kind == "counter":
            out[metric] = counters.get(names, 0)
        elif kind == "calls":
            out[metric] = sum(
                c["count"] for c in calls
                if _matches(c["name"], names) and not _matches(c["parent"], names)
            )
        else:
            out[metric] = sum(c["self_s"] for c in calls if _matches(c["name"], names))
    accesses = out["engine.accesses"]
    out["engine.self_ns_per_access"] = (
        1e9 * out["engine.self_s"] / accesses if accesses else 0.0
    )
    lookups = counters.get("dopp_lookups", 0)
    out["core.lookup_hit_frac"] = (
        counters.get("dopp_hits", 0) / lookups if lookups else 0.0
    )
    out["trace.wrapper_ns"] = report["wrapper_ns"]
    return out


def write_report(tracer: LayerTracer, path: str) -> None:
    """Write the spans and aggregates to one JSON file."""
    with open(path, "w") as fh:
        json.dump(tracer.report(), fh)
