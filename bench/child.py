"""Child processes of ``bench/run.py`` (not meant to be run by hand).

    python bench/child.py setup OUT_DIR SEED SCALE [APP ...]
        Import ``repro``, build ``ExperimentContext(SEED, SCALE)`` and
        generate every app's trace -- the set-up each CLI invocation
        repeats. ``setup_s`` (wall) and ``setup_cpu_s`` (process CPU)
        are timed from before the import.

    python bench/child.py plain OUT_DIR -- <repro.cli args>
    python bench/child.py traced OUT_DIR -- <repro.cli args>
        Call ``repro.cli.main`` in this process, untraced or with the
        timing wrappers of ``bench/layers.py`` installed first; the
        traced form writes the spans and aggregates to
        ``OUT_DIR/layers.json``.

Every mode runs a metronome thread (:class:`Metronome`) and writes
``OUT_DIR/child.json`` with the metronome's ``table_unit_s`` and
``loop_unit_s`` (and the set-up times for the set-up child).
``run.py`` puts the checkout's ``src`` on ``PYTHONPATH``; this script's
own directory is on ``sys.path`` as for any script, which is how the
traced form finds ``layers``.
"""

import json
import os
import sys
import threading
from time import perf_counter, process_time

#: Keys of the metronome's table: ~20 MB, well past the core's own
#: caches, as the simulator's tag and set tables are.
TABLE_KEYS = 1 << 18
#: Dict updates per table unit (~2 ms of pure Python here).
UNIT_OPS = 2000
#: Iterations of the loop unit (~1 ms here).
LOOP_OPS = 4000
#: Pause between ticks: the metronome holds the GIL ~10% of the time.
PAUSE_S = 0.03


def table_unit(table: dict, state: int) -> int:
    """One fixed unit of dict updates at pseudo-random keys of ``table``.

    Returns the generator state for the next unit, so successive units
    touch different keys.
    """
    for _ in range(UNIT_OPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & (TABLE_KEYS - 1)
        table[key] = table[key] + 1
    return state


def loop_unit() -> int:
    """One fixed unit of integer arithmetic that touches no memory."""
    x = 1
    for i in range(LOOP_OPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if x & 1:
            x ^= i
    return x


def trimmed_mean(samples) -> float:
    """Mean without the fastest and slowest tenth (of at least one sample)."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class Metronome:
    """Times two fixed units of work every ``PAUSE_S`` while the child runs.

    Other tenants of the host slow its cores by up to 2x for seconds to
    minutes at a time. The metronome shares the child's core, the GIL
    and the memory hierarchy, so it is slowed in the same intervals as
    the program; ``run.py`` rescales each child's times by the
    metronome's mean unit times. The table unit misses the core's
    caches on every update and the loop unit never leaves registers:
    the program sits between the two, and tenants that thrash memory
    slow the first more, tenants that share the core the second. The
    table is filled before the child's work starts, so it adds a fixed
    amount to the child's peak RSS.
    """

    def __init__(self):
        self.table_samples = []
        self.loop_samples = []
        self._table = dict.fromkeys(range(TABLE_KEYS), 0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        state = 1
        while True:
            start = perf_counter()
            state = table_unit(self._table, state)
            middle = perf_counter()
            loop_unit()
            self.table_samples.append(middle - start)
            self.loop_samples.append(perf_counter() - middle)
            if self._stop.wait(PAUSE_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def report(self) -> dict:
        return {"table_unit_s": trimmed_mean(self.table_samples),
                "loop_unit_s": trimmed_mean(self.loop_samples)}


def _setup(seed: str, scale: str, apps) -> dict:
    start, cpu = perf_counter(), process_time()
    from repro.harness.runner import ExperimentContext

    ctx = ExperimentContext(seed=int(seed), scale=float(scale), workloads=apps or None)
    for name in ctx.names:
        ctx.trace(name)
    return {"setup_s": perf_counter() - start, "setup_cpu_s": process_time() - cpu}


def _cli(argv, report_path=None) -> int:
    tracer = None
    if report_path is not None:
        import layers

        tracer = layers.install()
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        if tracer is not None:
            layers.write_report(tracer, report_path)


def main(argv) -> int:
    mode, out, rest = argv[0], argv[1], argv[2:]
    if mode not in ("setup", "plain", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    result, code = {}, 0
    with Metronome() as metronome:
        if mode == "setup":
            result = _setup(rest[0], rest[1], rest[2:])
        else:
            report = os.path.join(out, "layers.json") if mode == "traced" else None
            code = _cli(rest[rest.index("--") + 1:], report)
    result.update(metronome.report())
    with open(os.path.join(out, "child.json"), "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
