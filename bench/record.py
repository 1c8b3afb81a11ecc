#!/usr/bin/env python3
"""Measure run-to-run spread and write a baseline record.

    python3 bench/record.py          # writes bench/results/<HEAD sha>.json

Runs ``bench/run.py`` the way an outside caller does: ``SETS`` sets of
``RUNS`` runs per workload, each run a fresh process with its own
seed (set k uses seeds ``k*RUNS + 1 ...``), workloads interleaved so
slow drift of the host hits them alike. For every end-to-end metric,
and for the raw host times printed next to them, it records each set's
median, quartiles, n and spread (quartile distance over median), and
how far the second set's median moved from the first's. One traced run
per workload at seed 7 adds the per-layer table, including the timers
the result line leaves out.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

SETS = 2
RUNS = 10
#: Declared metrics, then the raw host times printed next to them.
RECORDED = list(run.END_TO_END) + [m for m in run.PRINTED if m != "ops_failed_frac"]


def one_run(workload: str, seed: int) -> dict:
    """One untraced ``run.py`` process, exactly as an outside caller runs it."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(run.DEFAULT_SECONDS), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    result["duration_s"] = time.monotonic() - start
    # The raw host times are printed but not in the result line.
    for line in lines:
        name, *rest = line.split() or [""]
        if name in run.PRINTED and rest:
            result["metrics"][name] = {"value": float(rest[0])}
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True,
        check=True,
    ).stdout.strip()
    names = [w.name for w in run.WORKLOADS]
    sets, durations = [], []
    for k in range(SETS):
        samples = {name: {m: [] for m in RECORDED} for name in names}
        seeds = [k * RUNS + i + 1 for i in range(RUNS)]
        for seed in seeds:
            for name in names:
                result = one_run(name, seed)
                durations.append(result["duration_s"])
                for metric in RECORDED:
                    samples[name][metric].append(result["metrics"][metric]["value"])
                print(f"set {k + 1} seed {seed} {name}: norm_cpu_s "
                      f"{result['metrics']['norm_cpu_s']['value']:.3f}, wall_s "
                      f"{result['metrics']['wall_s']['value']:.3f} "
                      f"({result['duration_s']:.1f} s)", flush=True)
        sets.append({
            "seeds": seeds,
            "workloads": {
                name: {m: summarize(v) for m, v in per.items()}
                for name, per in samples.items()
            },
        })
    drift = {
        name: {
            m: sets[-1]["workloads"][name][m]["median"]
            / sets[0]["workloads"][name][m]["median"] - 1.0
            for m in RECORDED
        }
        for name in names
    }
    traced = {}
    for wl in run.WORKLOADS:
        result = run.measure(wl, run.DEFAULT_SEED, run.DEFAULT_SECONDS, trace=True)
        if not result.correct:
            raise SystemExit(f"traced {wl.name} failed")
        traced[wl.name] = result.printed
    record = {
        "commit": commit,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "seconds": run.DEFAULT_SECONDS,
        "units": run.ALL_UNITS,
        "sets": sets,
        "median_change_set2_vs_set1": drift,
        "traced_seed7": traced,
        "run_duration_s": summarize(durations),
    }
    out = os.path.join(run.BENCH, "results", f"{commit}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name in names:
        for m in RECORDED:
            spreads = " ".join(f"{s['workloads'][name][m]['spread']:.3f}" for s in sets)
            print(f"{name:<14} {m:<15} spread {spreads}  median change "
                  f"{drift[name][m]:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
