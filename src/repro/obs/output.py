"""Machine-readable experiment output.

Two artifacts make runs chartable across PRs:

* ``results/json/<experiment>.json`` — every table an experiment
  driver returned, serialized via :meth:`Table.as_dict` (title,
  headers, rows, notes), one file per experiment;
* ``results/json/BENCH_obs.json`` — this invocation's run summary
  (:func:`bench_summary`): wall time per experiment, per-(workload,
  config) simulation throughput and hit rates, and the phase-profile
  breakdown. Each invocation replaces the file; the history across
  invocations lives in the run-history store
  (:mod:`repro.obs.store`), whose ``history export`` of a run equals
  the run's ``BENCH_obs.json`` plus a ``store`` block.

Both are plain JSON so future tooling (or ``repro.cli report``) can
render them without importing the simulator.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

BENCH_SCHEMA = "repro-bench/v1"
BENCH_FILENAME = "BENCH_obs.json"
DEFAULT_JSON_DIR = os.path.join("results", "json")


def write_json(path: str, obj) -> str:
    """Pretty-print ``obj`` to ``path``, creating parent directories.

    The write is atomic: the JSON lands in a same-directory temp file
    that is ``os.replace``d over ``path``, so a crash (or SIGKILL) at
    any instant leaves either the old file or the new one — never a
    truncated one.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, default=str)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load_json(path: str):
    """Load one JSON file."""
    with open(path) as fh:
        return json.load(fh)


def save_experiment_json(name: str, tables: Dict[str, object], directory: str) -> str:
    """Serialize an experiment's tables to ``<directory>/<name>.json``.

    ``tables`` maps sub-table keys (``""`` for single-table
    experiments) to :class:`~repro.harness.reporting.Table` objects.
    """
    payload = {
        "experiment": name,
        "tables": {key or "main": table.to_dict() for key, table in tables.items()},
    }
    return write_json(os.path.join(directory, f"{name}.json"), payload)


def bench_summary(
    experiments: Dict[str, dict],
    runs: List[dict],
    context: Optional[dict],
    profile: Optional[dict] = None,
) -> dict:
    """One invocation's BENCH summary, the ``BENCH_obs.json`` payload.

    ``experiments`` maps each experiment to ``{"wall_s", "tables"}``,
    ``runs`` holds one ``RunRecord.summary_row`` per (workload, config)
    and ``context`` the ``ExperimentContext.context_summary`` (None
    without a context); ``profile`` is the phase profile of a profiled
    run. The history store's ``export_run`` builds its export here too.
    """
    summary = {
        "schema": BENCH_SCHEMA,
        "experiments": experiments,
        "runs": runs,
        "context": context,
    }
    if profile is not None:
        summary["profile"] = profile
    return summary


def render_report(directory: str) -> str:
    """Human-readable summary of a ``results/json`` directory.

    Used by ``python -m repro.cli report``. Imports Table lazily to
    keep this module importable without the harness.
    """
    from repro.harness.reporting import Table

    lines: List[str] = []
    bench_path = os.path.join(directory, BENCH_FILENAME)
    if not os.path.isdir(directory):
        return f"no JSON results at {directory!r}; run an experiment first"
    if os.path.exists(bench_path):
        bench = load_json(bench_path)
        exps = bench.get("experiments", {})
        if exps:
            table = Table(
                "Experiment wall time", ["experiment", "wall s", "tables"], precision=2
            )
            for name, entry in sorted(exps.items()):
                table.add_row(
                    name, entry.get("wall_s"), ", ".join(entry.get("tables", []))
                )
            lines.append(table.render())
        runs = bench.get("runs", [])
        if runs:
            table = Table(
                "Simulated runs",
                ["workload", "config", "sim s", "acc/s", "LLC miss %", "back-inv"],
                precision=2,
            )
            for r in runs:
                table.add_row(
                    r.get("workload"),
                    r.get("config"),
                    r.get("sim_wall_s"),
                    r.get("accesses_per_sec"),
                    100.0 * r.get("llc_miss_rate", 0.0),
                    r.get("back_invalidations"),
                )
            lines.append("")
            lines.append(table.render())
        stages = (bench.get("profile") or {}).get("stages", {})
        if stages:
            table = Table("Latest phase profile (by stage)", ["stage", "seconds"], precision=3)
            for stage, secs in sorted(stages.items(), key=lambda kv: -kv[1]):
                table.add_row(stage, secs)
            lines.append("")
            lines.append(table.render())
    else:
        lines.append(f"(no {BENCH_FILENAME} in {directory!r} yet)")
    table_files = sorted(
        f
        for f in os.listdir(directory)
        if f.endswith(".json") and f != BENCH_FILENAME
    )
    if table_files:
        lines.append("")
        lines.append("serialized tables: " + ", ".join(table_files))
    return "\n".join(lines)
