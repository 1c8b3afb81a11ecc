"""Checkpoint/resume journal for long sweeps.

A multi-hour ``--jobs N`` sweep used to be all-or-nothing: one killed
worker (OOM, preemption, Ctrl-C) threw away every completed
simulation. :class:`SweepJournal` makes sweeps resumable by journaling
each completed (workload, config) result to disk as it finishes:

* one pickle file per completed record, written atomically
  (tmp + ``os.replace``) so a crash mid-write can never corrupt an
  entry — a truncated leftover is skipped on load;
* a ``meta.json`` fingerprint of the context knobs that determine
  results (seed, scale, engine); resuming against a journal written
  under different knobs raises a typed
  :class:`~repro.errors.ConfigError` instead of silently mixing
  incompatible results;
* ``--resume`` loads every journaled record into the context's memo
  before the sweep starts, so the parallel prefetch (and the
  sequential drivers behind it) skip finished pairs — and because the
  memo merge path is the same one a live worker uses, a resumed
  sweep's output is byte-identical to an uninterrupted run (modulo
  wall-clock fields).

Records reach the journal through
:meth:`~repro.harness.runner.ExperimentContext.remember_run` /
``remember_error`` — the one place a result enters the context memo —
so sequential and ``--jobs N`` runs journal alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Optional, Tuple

from repro.errors import ConfigError
from repro.obs import get_logger

log = get_logger("resilience.checkpoint")

_META_FILENAME = "meta.json"
_SCHEMA = "repro-checkpoint/v1"


def context_fingerprint(ctx) -> dict:
    """The context knobs that determine simulation results."""
    return {
        "schema": _SCHEMA,
        "seed": ctx.seed,
        "scale": ctx.scale,
        "engine": ctx.engine or "default",
    }


def spec_digest(workload: str, spec) -> str:
    """Stable digest naming one (workload, config) pair on disk."""
    blob = json.dumps(
        {"workload": workload, "spec": spec.to_dict()}, sort_keys=True
    )
    return hashlib.sha1(blob.encode()).hexdigest()[:16]


class SweepJournal:
    """On-disk journal of completed (workload, config) results.

    Args:
        directory: journal directory (created on first write).
        meta: context fingerprint (see :func:`context_fingerprint`);
            checked against an existing journal's ``meta.json``.

    Raises:
        ConfigError: ``directory`` exists but is not a directory, or
            holds a journal written under a different (seed, scale,
            engine) fingerprint.
    """

    def __init__(self, directory: str, meta: dict):
        if os.path.exists(directory) and not os.path.isdir(directory):
            raise ConfigError(
                "checkpoint path exists and is not a directory; pass a "
                "directory to --checkpoint-dir",
                path=directory,
            )
        self.directory = directory
        self.meta = dict(meta)
        meta_path = os.path.join(directory, _META_FILENAME)
        if os.path.exists(meta_path):
            try:
                with open(meta_path) as fh:
                    existing = json.load(fh)
            except (OSError, ValueError):
                existing = None  # corrupt meta: rewritten below
            if existing is not None and existing != self.meta:
                raise ConfigError(
                    f"checkpoint was written under {existing}, current context "
                    f"is {self.meta}; use a different --checkpoint-dir or "
                    "delete the stale journal",
                    path=meta_path,
                )
        self._meta_written = False

    # -------------------------------------------------------------- writing

    def _ensure_meta(self) -> None:
        if self._meta_written:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, _META_FILENAME)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        self._meta_written = True

    def _write(self, kind: str, workload: str, spec, payload) -> str:
        self._ensure_meta()
        name = f"{kind}-{workload}-{spec_digest(workload, spec)}.pkl"
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(
                {"kind": kind, "workload": workload, "spec": spec,
                 "payload": payload},
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        os.replace(tmp, path)
        return path

    def record_run(self, workload: str, spec, record) -> str:
        """Journal one completed simulation record."""
        return self._write("run", workload, spec, record)

    def record_error(self, workload: str, spec, error: float) -> str:
        """Journal one completed output-error evaluation."""
        return self._write("error", workload, spec, error)

    # -------------------------------------------------------------- loading

    def load_into(self, ctx) -> Tuple[int, int]:
        """Merge journaled records into a context's memo.

        Already-memoized pairs and workloads outside the context are
        left untouched; unreadable entries (e.g. truncated by a crash
        before the atomic rename, or from an older code version) are
        skipped with a warning. Returns ``(runs, errors)`` adopted.
        """
        if not os.path.isdir(self.directory):
            return (0, 0)
        runs = errors = 0
        names = set(ctx.names)
        for filename in sorted(os.listdir(self.directory)):
            if not filename.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, filename)
            try:
                with open(path, "rb") as fh:
                    entry = pickle.load(fh)
                kind = entry["kind"]
                workload = entry["workload"]
                spec = entry["spec"]
                payload = entry["payload"]
            except Exception as exc:  # corrupt/stale entry: recompute it
                log.warning("skipping unreadable checkpoint %s: %s", path, exc)
                continue
            if workload not in names:
                continue
            key = (workload, spec)
            if kind == "run" and key not in ctx._runs:
                ctx._runs[key] = payload
                runs += 1
            elif kind == "error" and key not in ctx._errors:
                ctx._errors[key] = float(payload)
                errors += 1
        return (runs, errors)


def open_journal(directory: str, ctx) -> Optional[SweepJournal]:
    """Build a journal for ``ctx`` at ``directory`` (None disables)."""
    if not directory:
        return None
    return SweepJournal(directory, context_fingerprint(ctx))
