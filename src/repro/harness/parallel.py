"""Process-pool prefetch for the experiment harness (``--jobs N``).

The per-(workload, config) pipeline — trace generation, simulation,
energy accounting and error evaluation — is embarrassingly parallel:
runs never share mutable state, only the memo dictionaries inside
:class:`~repro.harness.runner.ExperimentContext`. :func:`prefetch_pairs`
fans explicit (workload, config) pairs out across worker processes and
merges the finished :class:`~repro.harness.runner.RunRecord` objects
back into the parent context's memo, so the (sequential) experiment
drivers then find every simulation already cached. The generic driver
passes the cartesian product of its strategies' declared specs; the
frontier search passes each round's per-workload probes.

Determinism: each worker rebuilds its context from the same
(seed, scale, engine) triple, so a run computed in a child is
bit-identical to one computed in the parent; results are merged in
task-submission order (workloads in context order, specs in pair
order), and ``run_summaries`` additionally sorts by (workload,
config) — a ``--jobs 4`` sweep therefore emits exactly the same
tables and BENCH rows as ``--jobs 1``.

Workers are spawned per workload (one task covers all of a workload's
configs) so the expensive trace generation happens once per worker,
mirroring the parent's memoization. When there are fewer workloads
than ``--jobs`` workers (few workloads swept on many cores), each
workload's config fan is split into (workload, config-chunk) units so
every worker gets a slice; each chunk worker regenerates its
workload's trace, a cost that only pays off when cores would otherwise
sit idle, which is exactly the case the split is gated on. Splitting
never changes results.

Resilience (``docs/robustness.md``): a worker that dies (OOM kill,
segfault) or exceeds ``timeout`` no longer hangs or poisons the whole
sweep — the pool is torn down, finished results are kept, and the
failed workloads are retried up to ``retries`` times with exponential
backoff; the final failure is a typed
:class:`~repro.errors.SimulationFault` naming every (workload, config)
that could not be computed. Merged records enter the memo through
:meth:`~repro.harness.runner.ExperimentContext.remember_run`, which
also commits them to the history store's memo, so an interrupted
sweep resumes instead of restarting.

Cancellation: every prefetch runs under a :class:`CancelToken`. While
the pool is live, SIGINT/SIGTERM are routed through
:func:`cancellation_signals` onto that token (main thread only), so an
interrupted sweep tears the pool down cleanly, keeps and commits
every record already merged, and surfaces as the typed
:class:`~repro.errors.Cancelled` (exit code 130) rather than a raw
``KeyboardInterrupt`` traceback mid-merge. Workers ignore SIGINT, die
on SIGTERM and exit once orphaned (:func:`_init_worker`).

Run events: workers put theirs (heartbeats, engine fallbacks) on their
pool's own queue, and the parent re-emits them into its context while
it polls for results. The queue is dropped with the pool, so a worker
killed mid-put cannot wedge the next round.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import Cancelled, SimulationFault
from repro.harness.runner import ConfigSpec, ExperimentContext
from repro.obs import EVENT_WORKER_RETRY, get_logger
from repro.obs.livestream import HEARTBEAT_KIND, make_heartbeat

log = get_logger("harness.parallel")

#: Seconds between cancellation checks (and event-queue drains) while
#: awaiting a worker future.
_POLL_S = 0.1

#: Seconds between a worker's checks that its parent is still alive.
_ORPHAN_POLL_S = 0.5

#: Inside a pool worker: the pool's event queue (set by
#: :func:`_init_worker`; None in the parent and once the queue broke).
_worker_events = None


class CancelToken:
    """Cooperative, thread-safe cancellation flag for a sweep.

    Created per prefetch (or handed in by a caller that wants to
    cancel from another thread). Setting it is idempotent; the first
    reason wins.
    """

    def __init__(self):
        """Create an unset token."""
        self._event = threading.Event()
        self.reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (first caller's ``reason`` is kept)."""
        if self.reason is None:
            self.reason = reason
        self._event.set()

    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._event.is_set()


@contextmanager
def cancellation_signals(
    token: CancelToken, signals=(signal.SIGINT, signal.SIGTERM)
):
    """Route SIGINT/SIGTERM onto ``token`` for the guarded block.

    Installed around the worker pool so an interrupt becomes a clean
    cancellation — pool teardown, memo commit, typed
    :class:`~repro.errors.Cancelled` — instead of a
    ``KeyboardInterrupt`` traceback from whatever bytecode the merge
    loop happened to be on. Previous handlers are restored on exit.
    No-op outside the main thread (Python only delivers signals
    there), so a sweep started from another thread still runs.
    """
    if threading.current_thread() is not threading.main_thread():
        yield token
        return

    def _handler(signum, frame):
        """Turn the delivered signal into a token cancellation."""
        token.cancel(f"received {signal.Signals(signum).name}")

    previous = {}
    for sig in signals:
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            continue
    try:
        yield token
    finally:
        for sig, prev in previous.items():
            signal.signal(sig, prev)


class _RoundCancelled(Exception):
    """Internal: the current round observed a set CancelToken."""


def _wait_result(
    future, timeout: Optional[float], cancel: CancelToken, drain
):
    """Await one future in short slices so cancellation stays live.

    ``future.result(timeout)`` would block the merge loop for the whole
    task timeout (possibly forever); polling in :data:`_POLL_S` slices
    lets a set token abort within ~100 ms while preserving the
    original semantics: ``timeout`` is still measured from this call.
    Each slice first calls ``drain`` to re-emit the workers' queued
    run events.

    Raises:
        _RoundCancelled: the token was set while waiting.
        FutureTimeout: ``timeout`` elapsed without a result.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        drain()
        if cancel.cancelled():
            raise _RoundCancelled()
        slice_s = _POLL_S
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise FutureTimeout()
            slice_s = min(slice_s, remaining)
        try:
            return future.result(timeout=slice_s)
        except FutureTimeout:
            continue


def _init_worker(events) -> None:
    """Pool initializer: signal dispositions, orphan watchdog, event queue.

    The pool forks inside :func:`cancellation_signals`; an inherited
    handler would answer SIGTERM by cancelling a token copy nothing
    reads, so :func:`_terminate_pool` would always end in SIGKILL. The
    parent owns Ctrl-C. A worker whose parent died exits rather than
    linger as an orphan holding both ends of its pipes.
    """
    global _worker_events
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _worker_events = events
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()


def _exit_when_orphaned(parent: int) -> None:
    """Worker watchdog thread: exit once the parent process is gone."""
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _send_event(event: dict) -> None:
    """Worker context listener: put one run event on the pool's queue.

    Never raises: once the queue breaks (parent gone), forwarding
    turns itself off so the simulation finishes regardless.
    """
    global _worker_events
    if _worker_events is None:
        return
    try:
        _worker_events.put(event)
    except Exception:
        _worker_events = None


def _run_task(task: dict):
    """Worker: simulate one workload under every requested config.

    Runs in a child process; builds a fresh context (observability
    disabled — sinks and registries don't cross process boundaries)
    and returns picklable records only. Specs arrive with their fault
    configs already resolved by the parent, so a worker's memo keys
    match the parent's exactly.

    The context's run events reach the parent through
    :func:`_send_event`: one heartbeat at task start, one after the
    trace is generated, one per completed (workload, config)
    simulation / error evaluation and one when the unit is done —
    accesses/sec, slow-path fraction and RSS ride along so a thrashing
    worker is visible mid-run (see :mod:`repro.obs.livestream`).
    """
    ctx = ExperimentContext(
        seed=task["seed"],
        scale=task["scale"],
        workloads=[task["workload"]],
        engine=task["engine"],
    )
    ctx.listener = _send_event
    name = task["workload"]
    run_specs = task["run_specs"]
    error_specs = task["error_specs"]
    total = len(run_specs) + len(error_specs)
    done = 0

    def beat(phase: str, **fields) -> None:
        """Emit one heartbeat for this unit."""
        ctx.emit(
            HEARTBEAT_KIND,
            **make_heartbeat(
                task["unit"], phase, workload=name, total=total, **fields
            ),
        )

    beat("start")
    if run_specs or error_specs:
        ctx.trace(name)
        beat("trace")
    runs = []
    for spec in run_specs:
        record = ctx.run(name, spec)
        runs.append((spec, record))
        done += 1
        stats = record.engine_stats or {}
        beat(
            "run", config=spec.label(), done=done,
            accesses=record.accesses,
            accesses_per_sec=record.accesses_per_sec,
            slow_path_fraction=stats.get("slow_fraction"),
        )
    errors = {}
    for spec in error_specs:
        errors[spec] = ctx.error(name, spec)
        done += 1
        beat("error", config=spec.label(), done=done)
    beat("done", done=done)
    return name, runs, errors


def _split_fan(task: dict, nchunks: int) -> List[dict]:
    """Split one workload task's config fan into ``nchunks`` units.

    Specs are dealt round-robin (``[k::nchunks]``) so heterogeneous
    per-config costs spread across chunks; ``nchunks`` is clamped to
    the longer spec list, so no chunk is empty. Unit ``k`` is named
    ``<workload>#k`` for progress display. Chunking never changes
    results — every (workload, spec) pair is simulated from the same
    fresh per-worker context regardless of which unit carries it, and
    the parent merges records into the same memo keys.
    """
    run_specs = task["run_specs"]
    error_specs = task["error_specs"]
    nchunks = max(1, min(nchunks, max(len(run_specs), len(error_specs), 1)))
    if nchunks == 1:
        return [task]
    return [
        dict(
            task,
            unit=f"{task['workload']}#{k}",
            run_specs=run_specs[k::nchunks],
            error_specs=error_specs[k::nchunks],
        )
        for k in range(nchunks)
    ]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even if its workers are wedged.

    ``shutdown(wait=True)`` would join workers that may never exit (the
    original hang this module had on a worker death); instead cancel
    queued work and terminate any process still alive. The process
    handles must be snapshotted first: ``shutdown`` drops the pool's
    ``_processes`` dict even with ``wait=False``.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():  # ignored SIGTERM: escalate
            proc.kill()
            proc.join(timeout=5)


def _run_round(
    tasks: List[dict],
    workers: int,
    timeout: Optional[float],
    cancel: CancelToken,
    emit,
):
    """Run one batch of tasks; returns ``(completed, failed)``.

    ``completed`` holds ``(task, worker result)`` pairs; ``failed``
    holds ``(task, reason)`` pairs. A worker death, timeout or set
    ``cancel`` token aborts the round: results already finished are
    kept, everything else is reported failed so the caller can retry
    it in a fresh pool (or, on cancellation, raise
    :class:`~repro.errors.Cancelled` after merging what completed).
    Run events the workers queue are passed to ``emit`` (the parent
    context's :meth:`~repro.harness.runner.ExperimentContext.emit`).
    """
    completed: List[Tuple[dict, tuple]] = []
    failed: List[Tuple[dict, str]] = []
    events = multiprocessing.SimpleQueue()

    def drain() -> None:
        """Re-emit every run event the workers have queued so far."""
        while not events.empty():
            event = events.get()
            emit(event.pop("kind"), **event)

    pool = ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(events,)
    )
    futures = [(task, pool.submit(_run_task, task)) for task in tasks]
    abort: Optional[str] = None
    for task, future in futures:
        if abort is not None:
            # The pool is compromised; salvage finished futures only.
            if future.done() and not future.cancelled():
                try:
                    completed.append((task, future.result()))
                except Exception as exc:
                    failed.append((task, repr(exc)))
            else:
                failed.append((task, abort))
            continue
        try:
            completed.append(
                (task, _wait_result(future, timeout, cancel, drain))
            )
        except _RoundCancelled:
            failed.append((task, "cancelled"))
            abort = "pool torn down after cancellation"
        except FutureTimeout:
            failed.append(
                (task, f"worker exceeded the {timeout:g}s timeout")
            )
            abort = "pool torn down after a worker timeout"
        except BrokenProcessPool as exc:
            failed.append((task, f"worker process died ({exc})"))
            abort = "pool torn down after a worker death"
        except Exception as exc:
            # A deterministic in-task failure; the pool itself is fine.
            failed.append((task, repr(exc)))
    # Every finished task put its events before returning its result.
    drain()
    if abort is not None:
        _terminate_pool(pool)
    else:
        pool.shutdown()
    events.close()
    return completed, failed


def prefetch_pairs(
    ctx: ExperimentContext,
    run_pairs: Sequence[Tuple[str, ConfigSpec]] = (),
    error_pairs: Sequence[Tuple[str, ConfigSpec]] = (),
    jobs: int = 1,
    *,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 1.0,
    cancel: Optional[CancelToken] = None,
) -> int:
    """Simulate (workload, spec) pairs across ``jobs`` worker processes.

    Groups the pairs into one task per workload (``ctx.names`` order,
    specs in first-seen order), splits a workload's config fan when
    there are fewer tasks than workers (see :func:`_split_fan`), and
    merges the results into ``ctx``'s memo. Pairs already memoized are
    skipped; fault configs are resolved through
    :meth:`ExperimentContext.apply_faults` first so worker memo keys,
    parent memo keys and stored memo digests all agree. Returns the
    number of simulations fetched. Worker run events (heartbeats,
    engine fallbacks) and retries are emitted into ``ctx``.

    Args:
        run_pairs: (workload, spec) pairs to simulate.
        error_pairs: (workload, spec) pairs whose output error to
            evaluate (baseline pairs are skipped: their error is 0).
        timeout: seconds allowed per task, measured from the
            completion of the previously merged task (None = wait
            forever). A timeout kills the pool and counts as a failure.
        retries: rounds to re-run failed tasks in a fresh pool.
        backoff: base delay before retry ``k``, growing as
            ``backoff * 2**(k-1)`` seconds.
        cancel: optional :class:`CancelToken` another thread may set.
            A fresh token is created when omitted; either way
            SIGINT/SIGTERM route onto it while the pool is live (main
            thread only).

    Raises:
        SimulationFault: tasks still failing after every retry; the
            message names each failed (workload, configs) pair.
        Cancelled: the token was set; completed records were merged
            (and committed) before raising.
    """
    needs: Dict[str, Tuple[List[ConfigSpec], List[ConfigSpec]]] = {}

    def _need(name: str, spec: ConfigSpec, side: int, memo: dict) -> None:
        """Queue one unmemoized (workload, spec) pair for its task."""
        spec = ctx.apply_faults(spec)
        bucket = needs.setdefault(name, ([], []))[side]
        if (name, spec) not in memo and spec not in bucket:
            bucket.append(spec)

    for name, spec in run_pairs:
        _need(name, spec, 0, ctx._runs)
    for name, spec in error_pairs:
        if spec.kind != "baseline":  # baseline error is 0 by definition
            _need(name, spec, 1, ctx._errors)
    tasks = []
    for name in ctx.names:
        run_specs, error_specs = needs.get(name, ([], []))
        if run_specs or error_specs:
            tasks.append(
                {
                    "workload": name,
                    "unit": name,
                    "seed": ctx.seed,
                    "scale": ctx.scale,
                    "engine": ctx.engine,
                    "run_specs": run_specs,
                    "error_specs": error_specs,
                }
            )
    if not tasks:
        return 0
    if len(tasks) < jobs:
        want = -(-jobs // len(tasks))  # ceil: chunks per workload
        units = [unit for task in tasks for unit in _split_fan(task, want)]
        if len(units) > len(tasks):
            log.info(
                "splitting %d workload fans into %d (workload, "
                "config-chunk) units for %d workers",
                len(tasks), len(units), jobs,
            )
        tasks = units
    workers = max(1, min(jobs, len(tasks)))
    log.info(
        "prefetching %d workload tasks across %d workers", len(tasks), workers
    )
    token = cancel if cancel is not None else CancelToken()
    with cancellation_signals(token):
        return _prefetch_rounds(
            ctx, tasks, workers, timeout, retries, backoff, token
        )


def _prefetch_rounds(
    ctx: ExperimentContext,
    tasks: List[dict],
    workers: int,
    timeout: Optional[float],
    retries: int,
    backoff: float,
    cancel: CancelToken,
) -> int:
    """Run the retry loop of :func:`prefetch_pairs`; returns runs fetched.

    Raises :class:`~repro.errors.Cancelled` when ``cancel`` is set —
    *after* merging and committing whatever the aborted round had
    already completed, so a resumed sweep keeps that work.
    """
    fetched = 0
    with ctx.obs.profiler.phase(f"parallel/jobs{workers}"):
        pending = tasks
        attempt = 0
        while True:
            completed, failed = _run_round(
                pending, max(1, min(workers, len(pending))), timeout, cancel,
                ctx.emit,
            )
            for task, (name, runs, errors) in completed:
                for spec, record in runs:
                    ctx.remember_run(name, spec, record)
                    fetched += 1
                for spec, err in errors.items():
                    ctx.remember_error(name, spec, err)
            if cancel.cancelled():
                raise Cancelled(
                    f"sweep cancelled ({cancel.reason}); "
                    f"{fetched} completed simulation"
                    f"{'' if fetched == 1 else 's'} kept"
                )
            if not failed:
                break
            if attempt >= retries:
                detail = "; ".join(
                    "{} [{}]: {}".format(
                        task["workload"],
                        ", ".join(
                            s.label()
                            for s in task["run_specs"] + task["error_specs"]
                        ) or "no specs",
                        reason,
                    )
                    for task, reason in failed
                )
                raise SimulationFault(
                    f"parallel sweep failed after {attempt} retr"
                    f"{'y' if attempt == 1 else 'ies'} for: {detail}"
                )
            attempt += 1
            delay = backoff * (2 ** (attempt - 1))
            for task, reason in failed:
                log.warning(
                    "retrying %s (attempt %d/%d in %.1fs): %s",
                    task["workload"], attempt, retries, delay, reason,
                )
                ctx.emit(
                    EVENT_WORKER_RETRY,
                    unit=task["unit"], workload=task["workload"],
                    attempt=attempt, delay_s=delay, error=reason,
                )
            time.sleep(delay)
            pending = [task for task, _ in failed]
    return fetched
