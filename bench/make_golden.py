#!/usr/bin/env python3
"""Regenerate ``bench/golden/seed<N>.json`` with the reference engine.

    python3 bench/make_golden.py            # seeds 7 and 11

Runs every workload of ``bench/run.py`` once per seed under
``--engine reference`` and keeps each BENCH_obs.json row (host-time and
engine fields removed) plus the experiment's table JSON. Only needed
when a change is meant to alter simulated results; ``run.py`` then
checks the batched engine against these files bit for bit.
"""

import json
import os
import sys

import run


def main(seeds) -> int:
    os.makedirs(run.GOLDEN, exist_ok=True)
    for seed in seeds:
        records = {}
        for wl in run.WORKLOADS:
            rep = run.run_rep(wl, seed, "plain", timeout=3600.0,
                              extra=("--engine", "reference"))
            if not rep.run.ok():
                print(f"{wl.name} failed at seed {seed}", file=sys.stderr)
                return 1
            records[wl.name] = dict(args=wl.cli_args(seed),
                                    **run.to_record(rep.rows, rep.tables))
            print(f"seed {seed} {wl.name}: {len(rep.rows)} rows, "
                  f"{len(rep.tables)} tables ({rep.run.wall_s:.1f} s)")
        path = os.path.join(run.GOLDEN, f"seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"seed": seed, "engine": "reference", "workloads": records},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [run.DEFAULT_SEED, run.HELDOUT_SEED]))
