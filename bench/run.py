#!/usr/bin/env python3
"""Outside-in performance benchmark of the Doppelgänger reproduction.

Times the simulator through its CLI, one child process per repetition,
and checks every result it produced::

    python3 bench/run.py                        # all four workloads, seed 7
    python3 bench/run.py --workload dopp-sweep --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --trace                # per-layer metrics (traced child)

One run of a workload first times ``SETUP_RUNS`` set-up children, then
repeats the workload's CLI invocation while the next repetition is
expected to end within ``--seconds`` of the run's start (at least once)
and reports medians over the repetitions. Every child
(``bench/child.py``) calls ``repro.cli.main`` in-process next to a
metronome thread, and its times are normalized by the metronome's unit
times, so that the host's drifting speed cancels out (see
:func:`speed_factor`). With ``--trace 1`` the repetitions alternate
between a plain and a traced child; the traced one reports the
per-layer metrics of ``bench/layers.py``. Stdout lists every metric by
name and unit, which checks ran, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything the benchmark writes stays inside the checkout: temporary
directories under ``.bench_tmp/`` (deleted after each repetition) and
the results each workload leaves for the cross-workload checks under
``.bench_state/``, tagged with a hash of the sources that produced
them. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")
STATE = os.path.join(ROOT, ".bench_state")
GOLDEN = os.path.join(BENCH, "golden")

sys.path.insert(0, BENCH)
import layers  # noqa: E402

DEFAULT_SEED = 7
#: Seed held out while the benchmark was written; it has a golden file.
HELDOUT_SEED = 11
DEFAULT_SECONDS = 30
#: Set-up children per run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: One workload run (set-up included) must end within this many seconds.
RUN_DEADLINE_S = 170.0
#: Metronome unit times that normalized times are scaled to: a time
#: reads as it would on a host where the units take exactly this long
#: (about their median times next to a workload on the 2-core Xeon the
#: benchmark was written on).
REFERENCE_TABLE_UNIT_S = 2.0e-3
REFERENCE_LOOP_UNIT_S = 1.0e-3
#: How much more the program slows than the metronome, in log terms
#: (see bench/README.md).
SENSITIVITY = 1.5

ALL_APPS = ("blackscholes", "canneal", "ferret", "fluidanimate", "inversek2j",
            "jmeint", "jpeg", "kmeans", "swaptions")
#: Apps of the three sweeps: canneal mostly hits in the Doppelgänger
#: cache, kmeans mostly fills it (and hits under uniDoppelgänger).
SWEEP_APPS = ("canneal", "kmeans")
SWEEP_SCALE = 0.01
BASELINE = "baseline-2MB"
DOPP_CONFIGS = (BASELINE, "dopp-14bit-1/2", "dopp-14bit-1/4", "dopp-14bit-1/8")
UNI_CONFIGS = (BASELINE, "uni-14bit-3/4", "uni-14bit-1/2", "uni-14bit-1/4")
FIG10_TABLES = ("error", "runtime", "stats")

#: BENCH_obs.json fields that describe the host or the engine, not the
#: simulated result; they are dropped before results are compared.
HOST_FIELDS = ("sim_wall_s", "accesses_per_sec", "engine_stats",
               "slow_path_fraction", "engine_used")


@dataclass(frozen=True)
class Workload:
    """One pinned CLI invocation and the results it must produce."""

    name: str
    experiment: str
    scale: float
    configs: Tuple[str, ...]
    tables: Tuple[str, ...]
    apps: Tuple[str, ...] = ALL_APPS
    profile: bool = False

    def cli_args(self, seed: int) -> List[str]:
        """The ``repro.cli`` arguments, without the output directories."""
        args = [self.experiment, "--seed", str(seed), "--scale", str(self.scale)]
        if self.apps != ALL_APPS:
            args += ["--workloads", *self.apps]
        if self.profile:
            args.append("--profile")
        return args

    def ops(self) -> List[tuple]:
        """Every checked result: one per (app, config) row and per table."""
        rows = [(app, cfg) for app in self.apps for cfg in self.configs]
        return rows + [("table", key) for key in self.tables]


#: Why each workload exists: BENCHMARK.json and bench/README.md.
WORKLOADS = (
    Workload("baseline-full", "table2", 0.02, (BASELINE,), ("main",)),
    Workload("dopp-sweep", "fig10", SWEEP_SCALE, DOPP_CONFIGS, FIG10_TABLES,
             apps=SWEEP_APPS),
    Workload("uni-sweep", "fig14", SWEEP_SCALE, UNI_CONFIGS,
             ("error", "runtime", "dynamic"), apps=SWEEP_APPS),
    Workload("dopp-profiled", "fig10", SWEEP_SCALE, DOPP_CONFIGS, FIG10_TABLES,
             apps=SWEEP_APPS, profile=True),
)
BY_NAME = {w.name: w for w in WORKLOADS}

#: End-to-end metrics: name -> unit. Measured with tracing off; times
#: are CPU times normalized to a host of fixed speed (see
#: :func:`speed_factor`). Each has a regression bound relative to the
#: parent's median, so none may be 0.
END_TO_END = {
    "norm_cpu_s": "s",
    "norm_kacc_per_s": "kacc/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed next to the end-to-end metrics but not declared: the raw
#: host times, which drift with the host's speed, wall time normalized
#: like CPU time (it also counts the time the host took the core away),
#: the slowdown the metronome saw, and ``ops_failed_frac`` (0 whenever
#: the run is correct; the result line reports it as ``failed`` /
#: ``attempted``).
PRINTED = {
    "norm_wall_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "kacc_per_s": "kacc/s",
    "raw_setup_s": "s",
    "host_slowdown": "ratio",
    "ops_failed_frac": "fraction",
}

#: Per-layer metrics a traced run reports: name -> unit. They have no
#: bound, so counts and fractions may be 0. A declared *time* must not
#: read the same on every run, so the timers of layers that some
#: workload never calls (LLC read/fill/writeback, core, cache,
#: functional, tracer) are printed but not listed; their call counts
#: are, except core writebacks, which no workload makes.
PER_LAYER = {
    name: layers.UNITS[name]
    for name in (
        "workloads.build_s", "workloads.trace_s", "workloads.trace_accesses",
        "workloads.app_run_calls", "workloads.app_run_s",
        "functional.filter_calls",
        "engine.runs", "engine.accesses", "engine.self_s",
        "engine.self_ns_per_access",
        "llc.read_calls", "llc.fill_calls", "llc.writeback_calls",
        "core.lookup_calls", "core.lookup_hit_frac", "core.insert_calls",
        "core.tag_alloc_calls", "core.data_alloc_calls",
        "cache.access_calls", "cache.install_calls",
        "dram.reads", "dram.writes",
        "energy.s", "obs.store_s", "obs.events",
        "trace.wrapper_ns",
    )
}
PER_LAYER.update({
    "engine.slow_fraction": "fraction",
    "engine.adapter_fraction": "fraction",
    "obs.trace_file_mb": "MB",
    "trace.overhead_ratio": "ratio",
})

#: Unit of every metric a run can print.
ALL_UNITS = dict(layers.UNITS, **PER_LAYER, **END_TO_END, **PRINTED)

#: Workloads whose results must be identical op for op (profiling on
#: or off), and those that share the baseline-2MB rows.
SAME_RESULTS = ("dopp-sweep", "dopp-profiled")
SHARED_BASELINE = ("dopp-sweep", "uni-sweep", "dopp-profiled")


# ------------------------------------------------------------------ children


def child_env() -> dict:
    """Environment of every child: this checkout's ``src`` and nothing else.

    ``REPRO_*`` variables would change the simulated inputs or the
    history store, and git must not look above the checkout for a
    repository.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


@dataclass
class Spawned:
    """Exit status and host cost of one finished ``bench/child.py``.

    ``report`` is the child's ``child.json`` (empty if it wrote none):
    the metronome's unit times, and the set-up times for a set-up child.
    """

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    report: dict = field(default_factory=dict)

    def ok(self) -> bool:
        return self.code == 0 and "table_unit_s" in self.report


def host_slowdown(run: Spawned) -> float:
    """How much slower the child's metronome ran than on the reference host.

    The geometric mean of the two units' slowdowns: the program is
    neither as memory-bound as the table unit nor as core-bound as the
    loop unit (see ``child.Metronome``).
    """
    return ((run.report["table_unit_s"] / REFERENCE_TABLE_UNIT_S)
            * (run.report["loop_unit_s"] / REFERENCE_LOOP_UNIT_S)) ** 0.5


def speed_factor(run: Spawned) -> float:
    """What a time the child measured is multiplied by to normalize it.

    Other tenants of the host do two things to a child. They take its
    core away (steal time), which wall time counts and CPU time does
    not. And they slow the core down while it runs, by up to 2x for
    seconds to minutes, which both count. The child's metronome ran
    fixed units of work all along, on the same core and in the same
    intervals, so ``host_slowdown ** -SENSITIVITY`` rescales the
    child's times to a host of fixed speed. The program reacts more
    strongly to the host than the metronome does, hence the exponent.
    """
    return host_slowdown(run) ** -SENSITIVITY


def spawn(mode: str, args: List[str], out_dir: str, timeout: float) -> Spawned:
    """Run ``bench/child.py MODE OUT_DIR ARGS`` to completion.

    Its stdout/stderr go to ``out_dir``, and so does its ``child.json``.
    The child is killed after ``timeout`` seconds. Wall time runs from
    spawn to exit; CPU time and peak RSS come from ``os.wait4``.
    """
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), mode, out_dir, *args]
    with open(os.path.join(out_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    if proc.returncode == 0:
        try:
            with open(os.path.join(out_dir, "child.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            pass
    return Spawned(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, report)


def _tail(path: str, lines: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


@dataclass
class Rep:
    """One repetition: host cost plus every result it produced."""

    kind: str
    run: Spawned
    rows: Dict[tuple, dict] = field(default_factory=dict)
    engine: Dict[tuple, dict] = field(default_factory=dict)
    tables: Dict[str, dict] = field(default_factory=dict)
    accesses: int = 0
    trace_mb: float = 0.0
    layers: Optional[dict] = None


def strip_row(row: dict) -> dict:
    """A BENCH_obs.json row without its host-time and engine fields."""
    return {k: v for k, v in row.items() if k not in HOST_FIELDS}


def run_rep(wl: Workload, seed: int, kind: str, timeout: float,
            extra: Tuple[str, ...] = ()) -> Rep:
    """One CLI invocation of ``wl`` in a fresh temporary directory.

    ``kind`` is ``plain`` or ``traced`` (``bench/child.py`` without or
    with the layer wrappers).
    """
    os.makedirs(TMP, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{wl.name}-", dir=TMP) as out:
        args = ["--"] + wl.cli_args(seed) + list(extra) + [
            "--json-out", out, "--out", out,
            "--store", os.path.join(out, "history.sqlite"),
        ]
        rep = Rep(kind, spawn(kind, args, out, timeout))
        if not rep.run.ok():
            print(f"[{wl.name}: {kind} child exited {rep.run.code}]\n"
                  + _tail(os.path.join(out, "stderr.txt")), file=sys.stderr)
            return rep
        try:
            _collect(rep, out, wl.experiment, os.path.join(out, "layers.json"))
        except (OSError, ValueError, KeyError) as exc:
            # Whatever was not collected counts as missing ops.
            print(f"[{wl.name}: unreadable {kind} output: {exc!r}]", file=sys.stderr)
        return rep


def _collect(rep: Rep, out: str, experiment: str, report: str) -> None:
    """Read a finished repetition's BENCH rows, tables, trace and layers."""
    with open(os.path.join(out, "BENCH_obs.json")) as fh:
        for row in json.load(fh)["runs"]:
            key = (row["workload"], row["config"])
            rep.rows[key] = strip_row(row)
            rep.engine[key] = row.get("engine_stats")
            rep.accesses += row["accesses"]
    with open(os.path.join(out, f"{experiment}.json")) as fh:
        rep.tables = json.load(fh)["tables"]
    rep.trace_mb = sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
        if f.endswith(".jsonl")
    ) / 1e6
    if rep.kind == "traced":
        with open(report) as fh:
            rep.layers = json.load(fh)


def setup_child(wl: Workload, seed: int, timeout: float) -> Optional[Spawned]:
    """One set-up child (its report holds ``setup_s``), or None if it failed."""
    os.makedirs(TMP, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{wl.name}-setup-", dir=TMP) as out:
        run = spawn("setup", [str(seed), str(wl.scale), *wl.apps], out, timeout)
        if not (run.ok() and "setup_cpu_s" in run.report):
            print(f"[{wl.name}: set-up child failed]\n"
                  + _tail(os.path.join(out, "stderr.txt")), file=sys.stderr)
            return None
        return run


# ------------------------------------------------------------------- checks


def _ops_of(rows: Dict[tuple, dict], tables: Dict[str, dict]) -> dict:
    ops = dict(rows)
    ops.update({("table", key): value for key, value in tables.items()})
    return ops


def to_record(rows: Dict[tuple, dict], tables: Dict[str, dict]) -> dict:
    """JSON form of one repetition's results (golden and state files)."""
    return {"rows": [rows[k] for k in sorted(rows)], "tables": tables}


def from_record(record: dict) -> dict:
    """Inverse of :func:`to_record`, keyed like :meth:`Workload.ops`."""
    rows = {(r["workload"], r["config"]): r for r in record["rows"]}
    return _ops_of(rows, record["tables"])


def load_golden(seed: int) -> Optional[dict]:
    """``bench/golden/seed<N>.json`` as {workload: record}, if it exists."""
    path = os.path.join(GOLDEN, f"seed{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["workloads"]


def _state_path(seed: int, name: str) -> str:
    return os.path.join(STATE, f"seed{seed}", f"{name}.json")


@functools.lru_cache(maxsize=None)
def source_hash() -> str:
    """Hash of the simulator sources and this file.

    Saved state is compared only with runs of the same sources: a change
    that alters results on purpose must not be checked against results
    that older sources left behind.
    """
    digest = hashlib.sha256()
    paths = [os.path.abspath(__file__)]
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def cross_references(wl: Workload, seed: int) -> Tuple[dict, List[str]]:
    """Results other workloads left at this seed that ``wl`` must match.

    ``dopp-sweep`` and ``dopp-profiled`` must agree on everything
    (profiling never changes a result), and the three scale-0.1 sweeps
    on their baseline-2MB rows. State written by other sources is
    ignored (see :func:`source_hash`).
    """
    refs: Dict[tuple, list] = {}
    notes = []
    for other in WORKLOADS:
        path = _state_path(seed, other.name)
        if other.name == wl.name or not os.path.exists(path):
            continue
        if wl.name in SAME_RESULTS and other.name in SAME_RESULTS:
            keep, what = (lambda op: True), "every result"
        elif wl.name in SHARED_BASELINE and other.name in SHARED_BASELINE:
            keep, what = (lambda op: op[1] == BASELINE), "baseline-2MB rows"
        else:
            continue
        with open(path) as fh:
            state = json.load(fh)
        if state.get("source") != source_hash():
            notes.append(f"{other.name}'s saved results ignored (other sources)")
            continue
        for op, value in from_record(state).items():
            if keep(op):
                refs.setdefault(op, []).append((other.name, value))
        notes.append(f"{what} equal {other.name}'s at seed {seed}")
    return refs, notes


def check(wl: Workload, seed: int, reps: List[Rep]) -> Tuple[int, int, List[str]]:
    """Count attempted and failed ops over ``reps``; say which checks ran.

    An op fails if it is missing, its child exited non-zero, or it
    differs from a reference: the golden file for this seed if there
    is one, the first repetition's value (results are deterministic),
    and the other workloads' results at this seed (see
    :func:`cross_references`). Every repetition's engine statistics must
    equal the first's, so a traced repetition must match the untraced one.
    """
    golden = load_golden(seed)
    refs, cross_notes = cross_references(wl, seed)
    notes = [f"exit status and rep-to-rep determinism of results and "
             f"engine_stats ({len(reps)} reps)"]
    if golden is not None and wl.name in golden:
        for op, value in from_record(golden[wl.name]).items():
            refs.setdefault(op, []).append((f"golden seed{seed}", value))
        notes.append(f"golden seed{seed}.json")
    elif not refs:
        notes.append(f"no golden file and no other workload's results for seed "
                     f"{seed}: only exit status and rep-to-rep determinism")
    notes += cross_notes
    if any(r.kind == "traced" for r in reps):
        notes.append("traced == untraced (rows and engine_stats)")

    ops = wl.ops()
    first: Dict[tuple, object] = {}
    first_engine: Dict[tuple, dict] = {}
    failed = 0
    for rep in reps:
        values = _ops_of(rep.rows, rep.tables)
        for op in ops:
            value = values.get(op)
            bad = (
                not rep.run.ok()
                or value is None
                or any(ref != value for _, ref in refs.get(op, ()))
                or first.get(op, value) != value
                or first_engine.get(op, rep.engine.get(op)) != rep.engine.get(op)
            )
            if bad:
                failed += 1
                continue
            first.setdefault(op, value)
            if op in rep.engine:
                first_engine.setdefault(op, rep.engine[op])
    return len(ops) * len(reps), failed, notes


def save_state(wl: Workload, seed: int, rep: Rep) -> None:
    """Leave this workload's results for the cross-workload checks."""
    path = _state_path(seed, wl.name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(dict(source=source_hash(), **to_record(rep.rows, rep.tables)), fh)
    os.replace(path + ".tmp", path)


# ------------------------------------------------------------------ metrics


def end_to_end(reps: List[Rep], setups: List[Spawned]) -> Dict[str, float]:
    """Medians over the repetitions (and set-up children).

    Declared first (normalized times, peak RSS), then the printed-only
    raw times and the slowdown the metronomes saw.
    """
    med = statistics.median
    norm_cpu = [r.run.cpu_s * speed_factor(r.run) for r in reps]
    return {
        "norm_cpu_s": med(norm_cpu),
        "norm_kacc_per_s": med(r.accesses / c / 1e3 for r, c in zip(reps, norm_cpu)),
        "setup_s": med(s.report["setup_cpu_s"] * speed_factor(s) for s in setups),
        "peak_rss_mb": med(r.run.rss_mb for r in reps),
        "norm_wall_s": med(r.run.wall_s * speed_factor(r.run) for r in reps),
        "wall_s": med(r.run.wall_s for r in reps),
        "cpu_s": med(r.run.cpu_s for r in reps),
        "kacc_per_s": med(r.accesses / r.run.wall_s / 1e3 for r in reps),
        "raw_setup_s": med(s.report["setup_s"] for s in setups),
        "host_slowdown": med(host_slowdown(r.run) for r in reps),
    }


def per_layer(reps: List[Rep]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(declared, all) per-layer metrics: medians over traced repetitions."""
    traced = [r for r in reps if r.kind == "traced"]
    plain = [r for r in reps if r.kind == "plain"]
    samples = []
    for rep in traced:
        values = layers.layer_metrics(rep.layers)
        stats = [s for s in rep.engine.values() if s]
        accesses = sum(s["accesses"] for s in stats) or 1
        values["engine.slow_fraction"] = sum(
            sum(s["slow"].values()) for s in stats) / accesses
        values["engine.adapter_fraction"] = sum(
            s["fast"]["llc_adapter_hit"] + s["fast"]["llc_adapter_fill"]
            for s in stats) / accesses
        values["obs.trace_file_mb"] = rep.trace_mb
        samples.append(values)
    everything = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    everything["trace.overhead_ratio"] = (
        statistics.median(r.run.cpu_s * speed_factor(r.run) for r in traced)
        / statistics.median(r.run.cpu_s * speed_factor(r.run) for r in plain)
    )
    return {k: everything[k] for k in PER_LAYER}, everything


# --------------------------------------------------------------------- main


@dataclass
class Result:
    """One workload run: the result line's fields plus every printed metric."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    printed: Dict[str, float]


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            start: Optional[float] = None) -> Result:
    """One benchmark run of one workload (see the module docstring).

    The ``seconds`` budget runs from ``start`` (default: now), so it
    covers the set-up children too. Only the first repetition may end
    after it.
    """
    start = time.monotonic() if start is None else start

    def left() -> float:
        return RUN_DEADLINE_S - (time.monotonic() - start)

    setups = []
    if not trace:
        for _ in range(SETUP_RUNS):
            child = setup_child(wl, seed, left())
            if child is not None:
                setups.append(child)
    kinds = ("plain", "traced") if trace else ("plain",)
    reps: List[Rep] = []
    loop_start = time.monotonic()
    while True:
        for kind in kinds:
            reps.append(run_rep(wl, seed, kind, left()))
        now = time.monotonic()
        cycle = (now - loop_start) / (len(reps) // len(kinds))
        if now + cycle > start + seconds or cycle > left():
            break

    attempted, failed, notes = check(wl, seed, reps)
    if not trace:
        attempted += SETUP_RUNS
        failed += SETUP_RUNS - len(setups)
    good = [r for r in reps
            if r.run.ok() and r.rows and (r.kind != "traced" or r.layers)]
    metrics: Dict[str, float] = {}
    shown: Dict[str, float] = {}
    if good and (trace or setups) and {r.kind for r in good} == set(kinds):
        if trace:
            metrics, shown = per_layer(good)
        else:
            shown = end_to_end(good, setups)
            metrics = {k: shown[k] for k in END_TO_END}
    if failed == 0:
        save_state(wl, seed, good[0])

    print(f"{wl.name}: {wl.experiment} {' '.join(wl.cli_args(seed)[1:])}")
    print(f"  repetitions: {len(reps)} ({', '.join(kinds)}) in "
          f"{time.monotonic() - loop_start:.1f} s")
    if not trace:
        shown = dict(shown, ops_failed_frac=failed / attempted)
    for name, value in shown.items():
        mark = "" if name in metrics else "   (printed only)"
        print(f"  {name:<28} {value:>16.6f} {ALL_UNITS[name]}{mark}")
    print(f"  ops: {attempted} attempted, {failed} failed")
    print("  checks: " + "; ".join(notes))
    return Result(failed == 0 and bool(metrics), attempted, failed, metrics, shown)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def warm() -> bool:
    """Untimed import of the CLI, so the first timed run finds bytecode."""
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.harness.experiments"],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    if proc.returncode != 0:
        print(_last_line(proc.stderr), file=sys.stderr)
    return proc.returncode == 0


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(BY_NAME),
                        help="run one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement time per workload (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if not warm():
        print("error: cannot import repro.cli", file=sys.stderr)
        return 2
    chosen = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    # The first workload's budget includes the warm-up import.
    results = [measure(chosen[0], args.seed, args.seconds, bool(args.trace), start)]
    results += [measure(wl, args.seed, args.seconds, bool(args.trace))
                for wl in chosen[1:]]
    if len(results) == 1:
        r = results[0]
        line = result_line(r.correct, r.attempted, r.failed, r.metrics, ALL_UNITS)
    else:
        metrics, units = {}, {}
        for wl, r in zip(chosen, results):
            metrics.update({f"{wl.name}.{k}": v for k, v in r.metrics.items()})
            units.update({f"{wl.name}.{k}": ALL_UNITS[k] for k in r.metrics})
        line = result_line(
            all(r.correct for r in results), sum(r.attempted for r in results),
            sum(r.failed for r in results), metrics, units,
        )
    print(line)
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
