"""Command-line interface for the experiment harness.

Experiments are :class:`~repro.harness.strategy.ExperimentStrategy`
plugins resolved through the strategy registry — the CLI has no
per-experiment branches. Regenerate any table or figure of the paper
from the shell::

    python -m repro.cli list                 # registered names
    python -m repro.cli experiments --list   # names + requirements
    python -m repro.cli <name>
    python -m repro.cli run <name> --scale 0.25 --workloads canneal jpeg
    python -m repro.cli all --out results/

``list`` prints the registered experiment names (the paper's figures
and tables, plus any installed plugin). Three forms run them: a bare
``<name> [name ...]``, the equivalent explicit ``run <name> [name
...]``, and two meta-names selecting several at once — ``all``
(everything) and ``experiments`` (an explicit sweep, default all).
Both subparsers share one flag set, so every option below works on
each form.

Engine and parallelism::

    python -m repro.cli <name> --engine reference   # bit-identical check
    python -m repro.cli experiments --jobs 4        # full sweep, 4 procs

Observability (see ``docs/observability.md``)::

    python -m repro.cli <name> --scale 0.25 --profile
    python -m repro.cli <name> --trace-out trace.jsonl --trace-sample 100
    python -m repro.cli report
    python -m repro.cli compare old/BENCH_obs.json new/BENCH_obs.json

Run history (every invocation lands in a sqlite store unless
``--no-store``; path from ``--store``, ``REPRO_STORE`` or
``<--json-out>/history.db``)::

    python -m repro.cli history list
    python -m repro.cli history top --metric accesses_per_sec
    python -m repro.cli history query 'SELECT workload, MAX(error) \
        FROM results GROUP BY workload'
    python -m repro.cli compare store:last-1 store:last

With ``--jobs > 1`` every worker's heartbeats land in the store's
``events`` table; on a TTY they also redraw a live status line on
stderr.

Resilience (see ``docs/robustness.md``)::

    python -m repro.cli <name> --fault-rate 1e-3 --fault-seed 3
    python -m repro.cli experiments --jobs 4 --timeout 900 --retries 2
    python -m repro.cli experiments --jobs 4 --resume
    python -m repro.cli frontier --error-budget 0.05 --voltage-steps 8 \
        --jobs 4 --resume
    python -m repro.cli replay results/trace.npz

Every recorded run commits each finished (workload, config) result to
the store's ``memo`` table; ``--resume`` adopts the rows an earlier run
of the same workloads, seed, scale, engine and git SHA left there, so a
killed sweep picks up where it stopped.

Typed failures map to distinct exit codes — 2 for configuration
errors (including an unknown experiment name), 3 for malformed trace
files, 4 for simulation faults — with a one-line message on stderr;
``--log-level debug`` additionally prints the full traceback.

``--profile`` prints a per-phase timing breakdown and writes the event
trace and metrics snapshot next to the JSON tables. Every experiment
additionally serializes its tables to ``results/json/<name>.json`` and
updates the cumulative ``results/json/BENCH_obs.json`` run summary;
``report`` renders that summary back as text and ``compare`` diffs two
summaries, exiting 1 on a regression.

``--version`` (or ``-V``) prints the package version and exits.

Third-party strategies installed under the ``repro.experiments`` entry
point appear in ``list`` and run exactly like the built-ins — see
``docs/experiments.md``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Optional

from repro.errors import ConfigError, ReproError
from repro.harness.strategy import experiment_names, registry, run_strategies
from repro.obs import Observability, configure_logging, get_logger
from repro.obs.output import (
    DEFAULT_JSON_DIR,
    render_report,
    update_bench_summary,
)

__all__ = ["experiment_names", "main"]

log = get_logger("cli")


def _main_compare(argv) -> int:
    """The ``compare`` subcommand: diff two summaries or store runs.

    Either positional may be a ``BENCH_obs.json`` path or a ``store:``
    reference (``store:last``, ``store:last-1``, ``store:<id>``) into
    the run-history store — so the CI perf gate can diff against
    recorded history instead of a cached file.
    """
    from repro.obs.compare import compare_bench
    from repro.obs.store import default_store_path

    parser = argparse.ArgumentParser(
        prog="repro compare",
        description="Diff two BENCH_obs.json summaries (or store: run "
        "refs); exit 1 on regression.",
    )
    parser.add_argument(
        "old", help="baseline BENCH_obs.json path or store: ref"
    )
    parser.add_argument(
        "new", help="candidate BENCH_obs.json path or store: ref"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="tolerance: relative for wall times, absolute for "
        "hit/miss rates and error (default 0.05)",
    )
    parser.add_argument(
        "--wall-threshold",
        type=float,
        default=None,
        help="separate (relative) tolerance for the noisy wall-time "
        "metrics; defaults to --threshold",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="history database for store: refs (default: REPRO_STORE "
        "or results/json/history.db)",
    )
    args = parser.parse_args(argv)
    comparison = compare_bench(
        args.old, args.new,
        threshold=args.threshold, wall_threshold=args.wall_threshold,
        store_path=args.store or default_store_path(),
    )
    print(comparison.render())
    return 1 if comparison.regressions else 0


def _replay_engines(trace, spec, engine: Optional[str]) -> int:
    """Run a trace under one engine — or both, diffing the results.

    With ``engine="both"`` the trace is simulated twice on fresh
    hierarchies and every functional field of the two
    :class:`~repro.hierarchy.system.SystemResult` dicts must agree
    (engines are bit-identical by contract); a mismatch prints the
    offending fields and returns 1.
    """
    from repro.harness.runner import run_trace

    engines = ("batched", "reference") if engine == "both" else (engine,)
    results = {}
    for name in engines:
        record = run_trace(trace, spec, engine=name)
        results[name or "batched"] = record
        result = record.system
        shown = name or "batched"
        print(
            f"  [{shown}] cycles={result.cycles} "
            f"llc_miss_rate={result.llc_miss_rate:.4f} "
            f"traffic_bytes={result.traffic_bytes}"
        )
    if engine == "both":
        batched = results["batched"].system.to_dict()
        reference = results["reference"].system.to_dict()
        diff = [k for k in batched if batched[k] != reference.get(k)]
        if diff:
            print(
                f"ENGINE MISMATCH on {sorted(diff)} — engines must be "
                "bit-identical", file=sys.stderr,
            )
            return 1
        print("  engines agree bit-identically")
    return 0


def _main_replay(argv) -> int:
    """The ``replay`` subcommand: simulate a saved ``.npz`` trace.

    Exercises the hardened trace loader end to end: a missing,
    truncated or version-skewed file surfaces as a
    :class:`~repro.errors.TraceFormatError` (exit code 3) naming the
    file and offending field. ``--engine both`` replays twice and
    verifies the engines agree bit-identically.
    """
    from repro.harness.runner import ConfigSpec
    from repro.trace.io import load_trace

    parser = argparse.ArgumentParser(
        prog="repro replay",
        description="Simulate a trace saved with repro.trace.io.save_trace.",
    )
    parser.add_argument("trace", help="trace .npz file")
    parser.add_argument(
        "--config",
        default="baseline",
        choices=("baseline", "dopp", "uni"),
        help="LLC organization to replay under (default baseline)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=("batched", "reference", "both"),
        help="simulation engine; 'both' verifies bit-identical replay "
        "(default: batched)",
    )
    args = parser.parse_args(argv)
    trace = load_trace(args.trace)
    spec = ConfigSpec(args.config)
    print(f"replaying {trace.name}: {len(trace)} accesses under {spec.label()}")
    return _replay_engines(trace, spec, args.engine)


def _main_ingest(argv) -> int:
    """The ``ingest`` subcommand: import an external trace format.

    Streams the input through a format adapter (bounded by ``--chunk``
    records, gzip-aware), infers annotated regions, writes a ``.npz``
    trace with ``--out``, and with ``--simulate`` replays the imported
    trace — under both engines by default, verifying they agree.
    Malformed input exits 3 with path:line context (see
    ``docs/workloads.md``).
    """
    from repro.harness.runner import ConfigSpec
    from repro.ingest import IngestOptions, adapter_names, ingest_trace
    from repro.ingest.values import value_model_names
    from repro.trace.io import save_trace
    from repro.trace.record import DType

    parser = argparse.ArgumentParser(
        prog="repro ingest",
        description="Import an external memory trace (lackey, dinero, "
        "CSV, JSONL; .gz transparently) into a repro trace.",
    )
    parser.add_argument("input", help="trace file to ingest")
    parser.add_argument(
        "--format",
        default=None,
        choices=adapter_names(),
        help="input format (default: detect from the file suffix)",
    )
    parser.add_argument("--out", default=None, help="write the trace here (.npz)")
    parser.add_argument("--name", default=None, help="trace name (default: file stem)")
    parser.add_argument(
        "--chunk",
        type=int,
        default=65536,
        help="records per streaming chunk — bounds parser memory (default 65536)",
    )
    parser.add_argument(
        "--block-size", type=int, default=64, help="cache block size (default 64)"
    )
    parser.add_argument(
        "--gap-blocks",
        type=int,
        default=64,
        help="split inferred regions at address gaps larger than this many "
        "blocks (default 64)",
    )
    parser.add_argument(
        "--dtype",
        default="F32",
        choices=[d.name for d in DType],
        help="declared element type for inferred regions (default F32)",
    )
    parser.add_argument(
        "--approx",
        default="auto",
        choices=("auto", "all", "none"),
        help="annotation policy: auto (clusters >= --approx-min-blocks "
        "become approximate), all, or none (default auto)",
    )
    parser.add_argument(
        "--approx-min-blocks",
        type=int,
        default=2,
        help="auto policy: smaller clusters stay precise (default 2)",
    )
    parser.add_argument(
        "--value-model",
        default="gradient",
        choices=value_model_names(),
        help="synthetic values for address-only formats (default gradient)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="value-model seed (default 7)"
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=1,
        help="stripe single-threaded formats across N cores (default 1)",
    )
    parser.add_argument(
        "--no-spill",
        action="store_true",
        help="re-stream gzip inputs per pass instead of decompressing "
        "once into a temporary spill file",
    )
    parser.add_argument(
        "--simulate",
        action="store_true",
        help="replay the imported trace after ingesting",
    )
    parser.add_argument(
        "--config",
        default="dopp",
        choices=("baseline", "dopp", "uni"),
        help="LLC organization for --simulate (default dopp)",
    )
    parser.add_argument(
        "--engine",
        default="both",
        choices=("batched", "reference", "both"),
        help="engine for --simulate; 'both' verifies bit-identical "
        "replay (default both)",
    )
    args = parser.parse_args(argv)

    options = IngestOptions(
        format=args.format,
        chunk_size=args.chunk,
        block_size=args.block_size,
        gap_blocks=args.gap_blocks,
        dtype=DType[args.dtype],
        approx=args.approx,
        approx_min_blocks=args.approx_min_blocks,
        value_model=args.value_model,
        seed=args.seed,
        cores=args.cores,
        name=args.name,
        spill=not args.no_spill,
    )
    trace = ingest_trace(args.input, options)
    stats = trace.ingest_stats
    print(
        f"ingested {trace.name} [{stats['format']}]: {stats['records']} "
        f"accesses in {stats['batches']} chunks (max {stats['max_batch']} "
        f"<= chunk {stats['chunk_size']})"
    )
    print(
        f"  regions: {stats['regions']} inferred, {stats['approx_regions']} "
        f"approximate ({100 * stats['approx_fraction']:.1f}% of "
        f"{stats['footprint_bytes']} bytes); values: "
        + ("embedded" if stats["embedded_values"]
           else f"synthetic ({stats['value_model']})")
    )
    if args.out:
        save_trace(trace, args.out)
        print(f"  trace written to {args.out}")
    if args.simulate:
        spec = ConfigSpec(args.config)
        print(f"replaying under {spec.label()}")
        return _replay_engines(trace, spec, args.engine)
    return 0


def _package_version() -> str:
    """The package version (``--version`` / ``repro -V``)."""
    from repro import __version__

    return __version__


def _common_options() -> argparse.ArgumentParser:
    """The flag set shared by every experiment-running form.

    Built once as an argparse *parent* parser (``add_help=False``) and
    attached to both the ``run`` and ``experiments`` subparsers via
    ``parents=[...]`` — a flag added here appears on every form, so
    the two can never drift apart.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--version",
        "-V",
        action="version",
        version=f"repro {_package_version()}",
        help="print the package version and exit",
    )
    common.add_argument("--seed", type=int, default=None, help="data seed (default 7)")
    common.add_argument(
        "--scale", type=float, default=None, help="dataset scale (default 1.0)"
    )
    common.add_argument(
        "--workloads", nargs="*", default=None, help="benchmark subset"
    )
    common.add_argument(
        "--engine",
        default=None,
        choices=("batched", "reference"),
        help="simulation engine (default: batched; both are bit-identical)",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="prefetch simulations across N worker processes (default 1)",
    )
    resil = common.add_argument_group(
        "resilience", "crash-tolerant sweeps (docs/robustness.md)"
    )
    resil.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="seconds allowed per parallel workload task before its "
        "worker is killed and retried (default: no timeout)",
    )
    resil.add_argument(
        "--retries",
        type=int,
        default=0,
        help="times to retry failed/timed-out parallel tasks with "
        "exponential backoff (default 0)",
    )
    resil.add_argument(
        "--resume",
        action="store_true",
        help="adopt results earlier runs committed to the history store "
        "before simulating (skips finished pairs; byte-identical output)",
    )
    frontier = common.add_argument_group(
        "frontier", "closed-loop error-budget search (docs/robustness.md)"
    )
    frontier.add_argument(
        "--error-budget",
        type=float,
        default=None,
        help="frontier experiment: maximum acceptable output error per "
        "workload (default 0.1)",
    )
    frontier.add_argument(
        "--voltage-steps",
        type=int,
        default=None,
        help="frontier experiment: voltage-ladder length, nominal plus "
        "scaled steps (default 8)",
    )
    faults = common.add_argument_group(
        "fault injection", "deterministic seeded faults (docs/robustness.md)"
    )
    faults.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-read probability of a transient bit-flip fault "
        "(default 0 = off)",
    )
    faults.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="fault-stream seed (independent of --seed; default 0)",
    )
    faults.add_argument(
        "--fault-flip-bits",
        type=int,
        default=1,
        help="bits flipped per faulty read (default 1)",
    )
    faults.add_argument(
        "--fault-burst-rate",
        type=float,
        default=0.0,
        help="per-read probability of starting a fault burst (default 0)",
    )
    faults.add_argument(
        "--fault-burst-len",
        type=int,
        default=8,
        help="reads per fault burst (default 8)",
    )
    faults.add_argument(
        "--fault-stuck-bits",
        type=int,
        default=0,
        help="permanently stuck bit positions in the approximate data "
        "array (default 0)",
    )
    faults.add_argument(
        "--fault-targets",
        nargs="*",
        default=["approx_data"],
        help="structures to inject into: approx_data, llc, dram "
        "(default: approx_data)",
    )
    common.add_argument("--out", default=None, help="directory to save text tables")
    common.add_argument(
        "--json-out",
        default=DEFAULT_JSON_DIR,
        help=f"directory for JSON tables and BENCH_obs.json (default {DEFAULT_JSON_DIR})",
    )
    common.add_argument(
        "--log-level",
        default="WARNING",
        type=str.upper,
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="logging level for the repro logger",
    )
    common.add_argument(
        "--profile",
        action="store_true",
        help="enable observability: per-phase timing breakdown, event trace "
        "and metrics snapshot under --json-out",
    )
    common.add_argument(
        "--trace-out",
        default=None,
        help="write a JSONL event trace to this path (implies tracing)",
    )
    common.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        help="emit 1-in-N traced events (default 1 = every event)",
    )
    common.add_argument(
        "--metrics-out",
        default=None,
        help="write a metrics JSON snapshot to this path (implies metrics)",
    )
    history = common.add_argument_group(
        "run history", "sqlite run-history store (docs/observability.md)"
    )
    history.add_argument(
        "--store",
        default=None,
        help="record this invocation into this history database "
        "(default: REPRO_STORE or <--json-out>/history.db)",
    )
    history.add_argument(
        "--no-store",
        action="store_true",
        help="skip recording this invocation in the history store",
    )
    return common


def _run_parser(prog: str = "repro") -> argparse.ArgumentParser:
    """Parser for the ``run <name> [name ...]`` (and bare-name) form."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Run one or more registered experiments.",
        parents=[_common_options()],
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="experiment",
        help="registered experiment name(s); 'repro list' prints them",
    )
    return parser


def _experiments_parser(prog: str = "repro experiments") -> argparse.ArgumentParser:
    """Parser for the ``experiments`` / ``all`` sweep forms."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Sweep several experiments (default: every "
        "registered one).",
        parents=[_common_options()],
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help="the names to sweep (default: all registered)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="render the strategy registry (name, description, "
        "requirements) and exit",
    )
    return parser


def _fault_config(args):
    """Build the ``--fault-*`` group's FaultConfig (None when off).

    Validation lives in
    :class:`~repro.resilience.faults.FaultConfig` itself — a bad knob
    raises :class:`~repro.errors.ConfigError` naming the field, which
    :func:`main` maps to exit code 2.
    """
    if not (args.fault_rate or args.fault_burst_rate or args.fault_stuck_bits):
        return None
    from repro.resilience.faults import FaultConfig

    return FaultConfig(
        seed=args.fault_seed,
        read_rate=args.fault_rate,
        flip_bits=args.fault_flip_bits,
        burst_rate=args.fault_burst_rate,
        burst_len=args.fault_burst_len,
        stuck_bits=args.fault_stuck_bits,
        targets=tuple(args.fault_targets),
    )


def main(argv=None) -> int:
    """CLI entry point.

    Typed :class:`~repro.errors.ReproError` failures are caught here —
    the only place — and mapped to their exit codes (2 config, 3 trace,
    4 simulation) with a one-line stderr message. With the repro
    logger at DEBUG the full traceback is printed first.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(argv)
    except ReproError as exc:
        if get_logger("cli").isEnabledFor(logging.DEBUG):
            import traceback

            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def _dispatch(argv) -> int:
    """Route subcommands, then hand experiment runs to the pipeline."""
    if argv and argv[0] in ("--version", "-V"):
        from repro import __version__

        print(f"repro {__version__}")
        return 0
    if argv and argv[0] == "compare":
        return _main_compare(argv[1:])
    if argv and argv[0] == "replay":
        return _main_replay(argv[1:])
    if argv and argv[0] == "ingest":
        return _main_ingest(argv[1:])
    if argv and argv[0] == "history":
        from repro.obs.history import main_history

        return main_history(argv[1:])

    head = argv[0] if argv else None
    if head == "list":
        args = _experiments_parser(prog="repro list").parse_args(argv[1:])
        configure_logging(args.log_level)
        for name in experiment_names():
            print(name)
        return 0
    if head == "report":
        parser = _experiments_parser(prog="repro report")
        args = parser.parse_args(argv[1:])
        configure_logging(args.log_level)
        print(render_report(args.json_out))
        return 0
    if head == "run":
        parser = _run_parser(prog="repro run")
        args = parser.parse_args(argv[1:])
        names = list(dict.fromkeys(args.experiments))
    elif head in ("all", "experiments"):
        parser = _experiments_parser(prog=f"repro {head}")
        args = parser.parse_args(argv[1:])
        if head == "experiments" and args.list:
            print(registry.table().render())
            return 0
        names = list(dict.fromkeys(args.experiments)) or experiment_names()
    else:
        # Legacy form: repro <name> [name ...] --flags
        parser = _run_parser()
        args = parser.parse_args(argv)
        names = list(dict.fromkeys(args.experiments))
    return _run_pipeline(parser, args, names, argv)


def _run_pipeline(parser, args, names, argv) -> int:
    """Validate the parsed flags and run the strategies.

    All experiment mechanics — context construction, ``--jobs``
    prefetch with fan-splitting, resume, observability phases and
    history-store recording — live in
    :func:`repro.harness.strategy.run_strategies`, driven by each
    strategy's declared requirements. The CLI's own job is flag
    validation plus building (and afterwards finalizing) the
    observability bundle.
    """
    configure_logging(args.log_level)
    # Resolve every name up front: an unknown experiment raises the
    # typed UnknownExperimentError (exit code 2) before any work.
    strategies = [registry.get(name) for name in names]

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.trace_sample < 1:
        parser.error(f"--trace-sample must be >= 1, got {args.trace_sample}")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive, got {args.timeout}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.resume and args.no_store:
        parser.error("--resume reads the history store; drop --no-store")
    # Strategy-specific knobs travel as an options mapping — validated
    # by the consuming strategy (FrontierOptions names the offending
    # field on a bad value), not by per-experiment CLI branches.
    strategy_options = {
        key: value
        for key, value in (
            ("error_budget", args.error_budget),
            ("voltage_steps", args.voltage_steps),
        )
        if value is not None
    }
    if args.workloads:
        from repro.workloads.registry import workload_names

        known = workload_names()
        unknown = [w for w in args.workloads if w not in known]
        if unknown:
            raise ConfigError(
                f"unknown workload(s) {unknown}; choose from {known}",
                field="workloads",
            )
    faults = _fault_config(args)

    enabled = args.profile or bool(args.trace_out) or bool(args.metrics_out)
    stem = names[0] if len(names) == 1 else "experiments"
    trace_path = args.trace_out
    if args.profile and trace_path is None:
        trace_path = os.path.join(args.json_out, f"trace_{stem}.jsonl")
    metrics_path = args.metrics_out
    if args.profile and metrics_path is None:
        metrics_path = os.path.join(args.json_out, f"metrics_{stem}.json")
    obs = (
        Observability(
            enabled=enabled, trace_path=trace_path, trace_sample=args.trace_sample
        )
        if enabled
        else Observability.disabled()
    )

    run_strategies(
        strategies,
        seed=args.seed,
        scale=args.scale,
        workloads=args.workloads,
        engine=args.engine,
        faults=faults,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        resume=args.resume,
        obs=obs,
        out=args.out,
        json_dir=args.json_out,
        echo=print,
        store_path=args.store,
        record_history=not args.no_store,
        argv=argv,
        strategy_options=strategy_options,
    )

    if enabled:
        if metrics_path:
            obs.registry.save_json(metrics_path)
            log.info("metrics snapshot written to %s", metrics_path)
        obs.close()
        update_bench_summary(args.json_out, profile=obs.profiler.report())
        if args.profile:
            print()
            print(obs.profiler.render())
            if trace_path and obs.jsonl is not None:
                print(f"\n[event trace: {obs.jsonl.written} events -> {trace_path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
