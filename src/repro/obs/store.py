"""Sqlite-backed run-history store (``--store`` / ``repro history``).

Every harness invocation appends one row to ``runs`` and one row per
simulated (workload, config) to ``results``, so the performance and
accuracy trajectory — the paper's trend claims: error vs. map bits,
traffic and energy deltas, ``accesses_per_sec`` — is a SQL query over
history instead of a diff between whichever ``BENCH_obs.json`` files
happened to be saved.

Schema (version |SCHEMA_VERSION|, migrated automatically on open):

=================  ==========================================================
table              contents
=================  ==========================================================
``runs``           one harness invocation: start time, wall/CPU seconds,
                   git SHA, config hash, experiment names + wall times
                   + table keys, workloads, engine, seed/scale/jobs,
                   argv, context JSON
``results``        one (workload, config) simulation: the indexed BENCH
                   columns plus the verbatim summary row and the full
                   nested ``RunRecord.to_dict()`` JSON
``metrics``        flat (name, value) rows per run/result — per-site fault
                   counters land here as ``faults.<site>.<counter>``, a
                   profiled run's phase profile as run-level
                   ``profile.stages.<stage>`` and
                   ``profile.phases.<phase>.<field>`` rows
``events``         the run events of ``ExperimentContext.emit``: worker
                   heartbeats, worker retries, controller decisions,
                   cancellation
``engine_stats``   flattened per-class engine tallies per result
                   (``fast.read_hit`` …; see ``docs/engine.md``)
``memo``           the resume memo: one pickled ``(spec, record or error)``
                   per (kind, workload, spec digest, seed, scale, engine),
                   committed as each result enters the context memo
=================  ==========================================================

The schema version lives in sqlite's ``PRAGMA user_version``; opening
an old store applies every migration in :data:`MIGRATIONS` in order,
so a fresh database and an upgraded one are structurally identical
(creation itself is "create v1, then migrate to head"). Version 3
added a ``jobs`` table for a since-removed job daemon; version 4 drops
it again, so v4 holds exactly the v2 tables; version 5 adds ``memo``.

Concurrency: the store is opened in WAL journal mode with a 5 s
``busy_timeout``, so a recording run and concurrent ``repro history``
reader processes coexist without ``database is locked`` errors — WAL
readers never block the writer and vice versa.
The connection is created with ``check_same_thread=False`` and every
method serializes on an internal :class:`threading.RLock`, making one
:class:`RunStore` instance safe to share across threads (each
write method is execute+commit atomic under the lock, so transactions
from different threads never interleave).

Store *refs* name runs without knowing their ids: ``store:last`` is
the newest run, ``store:last-1`` the one before it, ``store:<id>`` an
explicit row id. ``repro compare store:last-1 store:last`` diffs the
two most recent runs with the same machinery (and thresholds) as the
file-based BENCH diff — :meth:`RunStore.export_run` reconstructs a
BENCH-shaped summary from the stored rows.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import subprocess
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.logs import get_logger
from repro.obs.output import bench_summary

log = get_logger("obs.store")

#: Current schema version (``PRAGMA user_version``).
SCHEMA_VERSION = 5

#: Default on-disk location, overridable with ``REPRO_STORE``.
DEFAULT_STORE_PATH = os.path.join("results", "json", "history.db")

#: Prefix marking a run reference (``store:last``, ``store:last-1``,
#: ``store:<id>``) in CLI arguments that otherwise take file paths.
STORE_REF_PREFIX = "store:"

#: Seconds sqlite retries a locked database before giving up — applied
#: both as the connect timeout and the connection's ``busy_timeout``.
BUSY_TIMEOUT_S = 5.0

#: The v1 tables. Nothing writes the ``results`` column after ``error``
#: any more; it stays so that stores need no migration.
_SCHEMA_V1 = (
    """
    CREATE TABLE IF NOT EXISTS runs (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        started_unix REAL NOT NULL,
        wall_s REAL,
        git_sha TEXT,
        config_hash TEXT,
        experiments TEXT,
        workloads TEXT,
        engine TEXT,
        seed INTEGER,
        scale REAL,
        jobs INTEGER,
        argv TEXT,
        context TEXT,
        finished INTEGER NOT NULL DEFAULT 0
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS results (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        workload TEXT NOT NULL,
        config TEXT NOT NULL,
        sim_wall_s REAL,
        accesses INTEGER,
        accesses_per_sec REAL,
        cycles INTEGER,
        llc_miss_rate REAL,
        l1_hit_rate REAL,
        l2_hit_rate REAL,
        traffic_bytes INTEGER,
        error REAL,
        engine_used TEXT,
        slow_path_fraction REAL,
        summary TEXT NOT NULL,
        record TEXT
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS metrics (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        result_id INTEGER REFERENCES results(id) ON DELETE CASCADE,
        name TEXT NOT NULL,
        value REAL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS engine_stats (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        result_id INTEGER NOT NULL REFERENCES results(id) ON DELETE CASCADE,
        key TEXT NOT NULL,
        value REAL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_results_run ON results(run_id)",
    "CREATE INDEX IF NOT EXISTS idx_metrics_run ON metrics(run_id, name)",
)

_MIGRATION_V2 = (
    # Live worker progress: heartbeats and other observability events
    # land per run so a stuck worker is diagnosable after the fact.
    """
    CREATE TABLE IF NOT EXISTS events (
        id INTEGER PRIMARY KEY AUTOINCREMENT,
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        ts_unix REAL NOT NULL,
        kind TEXT NOT NULL,
        unit TEXT,
        payload TEXT
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_events_run ON events(run_id, kind)",
    "ALTER TABLE runs ADD COLUMN cpu_s REAL",
)


def _migrate_1_to_2(conn: sqlite3.Connection) -> None:
    """v1 → v2: add the ``events`` table and the ``runs.cpu_s`` column."""
    for stmt in _MIGRATION_V2:
        conn.execute(stmt)


def _drop_jobs(conn: sqlite3.Connection) -> None:
    """v2 → v3 → v4: drop the retired ``jobs`` table, if present.

    v3 only added that table, so both steps share this migration: a v2
    store passes through v3 without ever creating it.
    """
    conn.execute("DROP INDEX IF EXISTS idx_jobs_state")
    conn.execute("DROP TABLE IF EXISTS jobs")


_MIGRATION_V5 = (
    # The resume memo: one row per result a context computed, keyed by
    # everything that determines it, so --resume adopts what a killed
    # run finished. Rows go with their run on `history gc`.
    """
    CREATE TABLE IF NOT EXISTS memo (
        kind TEXT NOT NULL,
        workload TEXT NOT NULL,
        digest TEXT NOT NULL,
        seed INTEGER NOT NULL,
        scale REAL NOT NULL,
        engine TEXT NOT NULL,
        run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
        payload BLOB NOT NULL,
        PRIMARY KEY (kind, workload, digest, seed, scale, engine)
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_memo_run ON memo(run_id)",
)


def _add_memo(conn: sqlite3.Connection) -> None:
    """v4 → v5: add the ``memo`` table behind ``--resume``."""
    for stmt in _MIGRATION_V5:
        conn.execute(stmt)


#: version N -> migration applying everything needed to reach N+1.
#: Opening a store walks from ``user_version`` to :data:`SCHEMA_VERSION`.
MIGRATIONS = {1: _migrate_1_to_2, 2: _drop_jobs, 3: _drop_jobs, 4: _add_memo}


def default_store_path(json_dir: Optional[str] = None) -> str:
    """Resolve the store path: ``REPRO_STORE`` env, else the default.

    With ``json_dir`` given (the CLI's ``--json-out``), the fallback is
    ``<json_dir>/history.db`` so redirected output directories carry
    their history alongside the JSON artifacts.
    """
    env = os.environ.get("REPRO_STORE")
    if env:
        return env
    if json_dir:
        return os.path.join(json_dir, "history.db")
    return DEFAULT_STORE_PATH


def is_store_ref(source: str) -> bool:
    """True when ``source`` is a ``store:`` run reference, not a path."""
    return isinstance(source, str) and source.startswith(STORE_REF_PREFIX)


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit SHA, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def config_digest(obj) -> str:
    """Short stable hash of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _json_or_none(value) -> Optional[str]:
    """Serialize ``value`` to JSON, passing None through."""
    return None if value is None else json.dumps(value, default=str)


def _load_or_none(blob: Optional[str]):
    """Inverse of :func:`_json_or_none`."""
    return None if blob is None else json.loads(blob)


def _flatten_engine_stats(stats: Dict) -> Dict[str, float]:
    """The ``engine_stats`` table's (key, value) rows for one result.

    The engine's nested per-class tallies (``fast``/``slow``/``aux``
    groups plus ``accesses`` and ``slow_fraction``; see
    ``docs/engine.md``) become dotted keys — ``fast.read_hit``.
    """
    out: Dict[str, float] = {
        "accesses": stats.get("accesses", 0),
        "slow_fraction": stats.get("slow_fraction", 0.0),
    }
    for group in ("fast", "slow", "aux"):
        for key, value in stats.get(group, {}).items():
            out[f"{group}.{key}"] = value
    return out


class RunStore:
    """One sqlite database of run history.

    Opens (creating and migrating as needed) eagerly; use as a context
    manager or call :meth:`close`. All writes commit immediately — a
    crashed harness leaves the completed rows behind, which is the
    point of a history store.

    The connection runs in WAL mode with a :data:`BUSY_TIMEOUT_S`
    busy timeout and is safe to share across threads: every method
    holds an internal reentrant lock for its whole execute+commit (or
    execute+fetch) span, so writer and reader threads never interleave
    transactions.
    """

    def __init__(self, path: str):
        """Open (or create) the store at ``path``."""
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            path, timeout=BUSY_TIMEOUT_S, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        try:
            # WAL lets history readers run while a run records.
            # Silently unavailable on some filesystems (and :memory:);
            # the busy timeout still prevents hard lock errors there.
            self._conn.execute("PRAGMA journal_mode = WAL")
        except sqlite3.DatabaseError:  # pragma: no cover - exotic fs
            pass
        self._conn.execute(f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT_S * 1000)}")
        self._ensure_schema()

    # ------------------------------------------------------------ lifecycle

    def _ensure_schema(self) -> None:
        """Create a fresh schema or migrate an old one to head.

        Creation is "build v1, then run every migration", so a database
        created today and one upgraded from v1 are structurally
        identical.
        """
        with self._lock:
            version = self._conn.execute("PRAGMA user_version").fetchone()[0]
            if version == 0:
                for stmt in _SCHEMA_V1:
                    self._conn.execute(stmt)
                version = 1
            if version > SCHEMA_VERSION:
                raise ConfigError(
                    f"store {self.path!r} has schema version {version}, newer "
                    f"than this build's {SCHEMA_VERSION}; upgrade repro",
                    field="store",
                )
            while version < SCHEMA_VERSION:
                MIGRATIONS[version](self._conn)
                version += 1
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            self._conn.commit()

    @property
    def schema_version(self) -> int:
        """The database's current ``PRAGMA user_version``."""
        with self._lock:
            return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "RunStore":
        """Context-manager entry; returns self."""
        return self

    def __exit__(self, *exc) -> None:
        """Context-manager exit; closes the connection."""
        self.close()

    # --------------------------------------------------------------- writes

    def start_run(
        self,
        *,
        experiments: Optional[Sequence[str]] = None,
        workloads: Optional[Sequence[str]] = None,
        engine: Optional[str] = None,
        seed: Optional[int] = None,
        scale: Optional[float] = None,
        jobs: Optional[int] = None,
        argv: Optional[Sequence[str]] = None,
        context: Optional[dict] = None,
        sha: Optional[str] = None,
        config_hash: Optional[str] = None,
        started_unix: Optional[float] = None,
    ) -> int:
        """Insert the invocation row up front; returns its run id.

        Recording starts before simulation so live events have a run to
        attach to; :meth:`finish_run` stamps the final timings and
        flips ``finished``.
        """
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO runs (started_unix, git_sha, config_hash, "
                "experiments, workloads, engine, seed, scale, jobs, argv, "
                "context) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    time.time() if started_unix is None else started_unix,
                    sha,
                    config_hash,
                    _json_or_none(
                        {name: {} for name in experiments}
                        if experiments
                        else None
                    ),
                    _json_or_none(list(workloads) if workloads else None),
                    engine,
                    seed,
                    scale,
                    jobs,
                    _json_or_none(list(argv) if argv else None),
                    _json_or_none(context),
                ),
            )
            self._conn.commit()
            return cur.lastrowid

    def finish_run(
        self,
        run_id: int,
        *,
        wall_s: Optional[float] = None,
        cpu_s: Optional[float] = None,
        experiments: Optional[Dict[str, dict]] = None,
        context: Optional[dict] = None,
    ) -> None:
        """Stamp final timings / experiment wall times on a run row."""
        with self._lock:
            self._conn.execute(
                "UPDATE runs SET wall_s = ?, cpu_s = ?, finished = 1, "
                "experiments = COALESCE(?, experiments), "
                "context = COALESCE(?, context) WHERE id = ?",
                (
                    wall_s,
                    cpu_s,
                    _json_or_none(experiments),
                    _json_or_none(context),
                    run_id,
                ),
            )
            self._conn.commit()

    def add_result(
        self, run_id: int, summary: dict, record: Optional[dict] = None
    ) -> int:
        """Insert one (workload, config) result row; returns its id.

        ``summary`` is a BENCH run row
        (:meth:`~repro.harness.runner.RunRecord.summary_row`); its
        queryable metrics become indexed columns while the verbatim
        dict is kept for lossless export. ``record`` is the full nested
        ``RunRecord.to_dict()``. Per-site fault counters and flattened
        engine stats fan out into the ``metrics`` and ``engine_stats``
        tables so error-vs-fault-rate curves are one SQL join away.
        """
        with self._lock:
            cur = self._conn.execute(
                "INSERT INTO results (run_id, workload, config, sim_wall_s, "
                "accesses, accesses_per_sec, cycles, llc_miss_rate, "
                "l1_hit_rate, l2_hit_rate, traffic_bytes, error, "
                "slow_path_fraction, summary, record) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    summary.get("workload"),
                    summary.get("config"),
                    summary.get("sim_wall_s"),
                    summary.get("accesses"),
                    summary.get("accesses_per_sec"),
                    summary.get("cycles"),
                    summary.get("llc_miss_rate"),
                    summary.get("l1_hit_rate"),
                    summary.get("l2_hit_rate"),
                    summary.get("traffic_bytes"),
                    summary.get("error"),
                    summary.get("slow_path_fraction"),
                    json.dumps(summary, default=str),
                    _json_or_none(record),
                ),
            )
            result_id = cur.lastrowid
            sites = (summary.get("faults") or {}).get("sites") or {}
            self._insert_metrics(
                run_id,
                {
                    f"faults.{site}.{name}": value
                    for site, counters in sorted(sites.items())
                    for name, value in sorted(counters.items())
                },
                result_id,
            )
            engine_stats = summary.get("engine_stats")
            if engine_stats:
                self._conn.executemany(
                    "INSERT INTO engine_stats (result_id, key, value) "
                    "VALUES (?, ?, ?)",
                    [
                        (result_id, key, float(value))
                        for key, value in _flatten_engine_stats(
                            engine_stats
                        ).items()
                    ],
                )
            self._conn.commit()
            return result_id

    def _insert_metrics(
        self, run_id: int, metrics: Dict[str, object],
        result_id: Optional[int] = None,
    ) -> None:
        """Insert flat (name, value) metric rows, without committing."""
        self._conn.executemany(
            "INSERT INTO metrics (run_id, result_id, name, value) "
            "VALUES (?, ?, ?, ?)",
            [
                (run_id, result_id, name,
                 None if value is None else float(value))
                for name, value in metrics.items()
            ],
        )

    def add_profile(self, run_id: int, report: dict) -> None:
        """Land a phase profile as run-level ``profile.…`` metric rows.

        ``report`` is :meth:`~repro.obs.profiling.PhaseProfiler.report`:
        each stage becomes ``profile.stages.<stage>`` and each phase
        field ``profile.phases.<phase>.<field>``, all in one
        transaction. :meth:`export_run` rebuilds the same dict.
        """
        rows = {
            f"profile.stages.{stage}": seconds
            for stage, seconds in report.get("stages", {}).items()
        }
        for phase, stat in report.get("phases", {}).items():
            for field, value in stat.items():
                rows[f"profile.phases.{phase}.{field}"] = value
        with self._lock:
            self._insert_metrics(run_id, rows)
            self._conn.commit()

    def _profile_for(self, run_id: int) -> Optional[dict]:
        """The phase profile :meth:`add_profile` landed, or None."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, value FROM metrics WHERE run_id = ? AND "
                "result_id IS NULL AND name LIKE 'profile.%' ORDER BY id",
                (run_id,),
            ).fetchall()
        if not rows:
            return None
        profile: dict = {"phases": {}, "stages": {}}
        for name, value in rows:
            group, key = name[len("profile."):].split(".", 1)
            if group == "stages":
                profile["stages"][key] = value
                continue
            phase, field = key.rsplit(".", 1)
            profile["phases"].setdefault(phase, {})[field] = (
                int(value) if field == "count" else value
            )
        return profile

    def add_events(self, run_id: int, events: Iterable[dict]) -> int:
        """Bulk-insert run-event dicts (``ctx.events``); returns the count.

        Each dict needs ``kind``; ``ts_unix`` and ``unit`` are lifted
        out, everything else lands in the JSON payload.
        """
        rows = []
        for ev in events:
            ev = dict(ev)
            kind = ev.pop("kind", "event")
            ts = ev.pop("ts_unix", None)
            unit = ev.pop("unit", None)
            rows.append(
                (
                    run_id,
                    time.time() if ts is None else ts,
                    kind,
                    unit,
                    _json_or_none(ev) if ev else None,
                )
            )
        with self._lock:
            self._conn.executemany(
                "INSERT INTO events (run_id, ts_unix, kind, unit, payload) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )
            self._conn.commit()
        return len(rows)

    def remember(
        self, run_id: int, kind: str, workload: str, spec, value, *,
        seed: int, scale: float, engine: str,
    ) -> None:
        """Commit one memo row: ``(spec, value)`` pickled under its key.

        ``kind`` is ``run`` (``value`` a ``RunRecord``) or ``error``
        (an output-error float). The key is (kind, workload, spec
        digest, seed, scale, engine), the digest being
        :func:`config_digest` of ``{"workload", "spec"}``; a later run
        writing the same key replaces the row and becomes its owner.
        """
        payload = pickle.dumps((spec, value), protocol=pickle.HIGHEST_PROTOCOL)
        digest = config_digest({"workload": workload, "spec": spec.to_dict()})
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO memo (kind, workload, digest, seed, "
                "scale, engine, run_id, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (kind, workload, digest, seed, scale, engine, run_id, payload),
            )
            self._conn.commit()

    # ---------------------------------------------------------------- reads

    def memo_for(
        self, run_id: int, workloads: Sequence[str], *,
        seed: int, scale: float, engine: str,
    ) -> List[Tuple[str, str, object, object]]:
        """The memo rows run ``run_id`` may adopt, unpickled.

        Returns ``(kind, workload, spec, value)`` tuples for
        ``workloads`` under the same (seed, scale, engine), written by
        runs at ``run_id``'s git SHA. A payload that no longer unpickles
        is skipped with a warning, so its pair is simply recomputed.
        """
        marks = ", ".join("?" * len(workloads))
        with self._lock:
            rows = self._conn.execute(
                "SELECT m.kind, m.workload, m.payload FROM memo m "
                "JOIN runs r ON r.id = m.run_id "
                f"WHERE m.workload IN ({marks}) AND m.seed = ? "
                "AND m.scale = ? AND m.engine = ? "
                "AND r.git_sha IS (SELECT git_sha FROM runs WHERE id = ?) "
                "ORDER BY m.kind, m.workload, m.digest",
                (*workloads, seed, scale, engine, run_id),
            ).fetchall()
        out = []
        for kind, workload, payload in rows:
            try:
                spec, value = pickle.loads(payload)
            except Exception as exc:
                log.warning(
                    "skipping unreadable %s memo row for %s in %s: %s",
                    kind, workload, self.path, exc,
                )
                continue
            out.append((kind, workload, spec, value))
        return out

    def run_ids(self) -> List[int]:
        """Every run id, oldest first."""
        with self._lock:
            return [
                row[0]
                for row in self._conn.execute("SELECT id FROM runs ORDER BY id")
            ]

    def resolve_ref(self, ref: str) -> int:
        """Resolve ``store:last[-N]`` / ``store:<id>`` to a run id.

        The bare forms (``last``, ``last-1``, ``7``) are accepted too.

        Raises:
            ConfigError: malformed ref, unknown id, or empty store.
        """
        name = ref[len(STORE_REF_PREFIX):] if is_store_ref(ref) else ref
        ids = self.run_ids()
        if not ids:
            raise ConfigError(
                f"store {self.path!r} has no recorded runs", field="store"
            )
        if name == "last":
            return ids[-1]
        if name.startswith("last-"):
            try:
                back = int(name[len("last-"):])
            except ValueError:
                back = -1
            if back < 0:
                raise ConfigError(
                    f"bad store ref {ref!r}: expected store:last, "
                    "store:last-N or store:<id>", field="store",
                )
            if back >= len(ids):
                raise ConfigError(
                    f"store ref {ref!r} reaches past history "
                    f"({len(ids)} runs recorded)", field="store",
                )
            return ids[-1 - back]
        try:
            run_id = int(name)
        except ValueError:
            raise ConfigError(
                f"bad store ref {ref!r}: expected store:last, store:last-N "
                "or store:<id>", field="store",
            ) from None
        if run_id not in ids:
            raise ConfigError(
                f"store {self.path!r} has no run {run_id}", field="store"
            )
        return run_id

    def run_row(self, run_id: int) -> dict:
        """One ``runs`` row as a dict with JSON columns decoded."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise ConfigError(
                f"store {self.path!r} has no run {run_id}", field="store"
            )
        out = dict(row)
        for key in ("experiments", "workloads", "argv", "context"):
            out[key] = _load_or_none(out.get(key))
        return out

    def results_for(self, run_id: int) -> List[dict]:
        """The verbatim summary rows of a run, (workload, config)-sorted."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT summary FROM results WHERE run_id = ? "
                "ORDER BY workload, config", (run_id,),
            ).fetchall()
        return [json.loads(row[0]) for row in rows]

    def records_for(self, run_id: int) -> Dict[Tuple[str, str], Optional[dict]]:
        """Full nested records keyed by (workload, config)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT workload, config, record FROM results "
                "WHERE run_id = ? ORDER BY workload, config", (run_id,),
            ).fetchall()
        return {
            (row[0], row[1]): _load_or_none(row[2]) for row in rows
        }

    def export_run(self, run_id: int) -> dict:
        """Reconstruct a run's BENCH summary from the stored rows.

        Built by :func:`~repro.obs.output.bench_summary`, like the
        run's own ``BENCH_obs.json``, which it equals apart from the
        run's provenance under ``store``. The result is accepted
        anywhere a loaded ``BENCH_obs.json`` dict is (notably
        :func:`repro.obs.compare.compare_bench` via ``store:`` refs).
        """
        run = self.run_row(run_id)
        out = bench_summary(
            run.get("experiments") or {},
            self.results_for(run_id),
            run.get("context"),
            self._profile_for(run_id),
        )
        out["store"] = {
            "path": self.path,
            "run_id": run_id,
            "started_unix": run.get("started_unix"),
            "git_sha": run.get("git_sha"),
            "config_hash": run.get("config_hash"),
        }
        return out

    def list_runs(self, limit: Optional[int] = None) -> List[dict]:
        """Newest-first run rows joined with their result counts."""
        sql = (
            "SELECT r.*, COUNT(s.id) AS results "
            "FROM runs r LEFT JOIN results s ON s.run_id = r.id "
            "GROUP BY r.id ORDER BY r.id DESC"
        )
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        with self._lock:
            rows = self._conn.execute(sql).fetchall()
        out = []
        for row in rows:
            decoded = dict(row)
            for key in ("experiments", "workloads", "argv", "context"):
                decoded[key] = _load_or_none(decoded.get(key))
            out.append(decoded)
        return out

    def top(
        self,
        metric: str = "accesses_per_sec",
        *,
        workload: Optional[str] = None,
        config: Optional[str] = None,
        limit: int = 10,
        best: str = "max",
    ) -> List[dict]:
        """Best results across all history by one indexed metric.

        ``metric`` must be a ``results`` column (it is validated against
        the table schema, so user input cannot inject SQL).
        """
        with self._lock:
            columns = {
                row[1]
                for row in self._conn.execute("PRAGMA table_info(results)")
            }
        if metric not in columns or metric in ("summary", "record"):
            queryable = sorted(columns - {"summary", "record"})
            raise ConfigError(
                f"unknown metric {metric!r}; choose from {queryable}",
                field="metric",
            )
        if best not in ("max", "min"):
            raise ConfigError(
                f"best must be 'max' or 'min', got {best!r}", field="best"
            )
        sql = (
            f"SELECT run_id, workload, config, {metric} AS value "
            f"FROM results WHERE {metric} IS NOT NULL"
        )
        params: List[object] = []
        if workload is not None:
            sql += " AND workload = ?"
            params.append(workload)
        if config is not None:
            sql += " AND config = ?"
            params.append(config)
        order = "DESC" if best == "max" else "ASC"
        sql += f" ORDER BY value {order}, run_id DESC LIMIT {int(limit)}"
        with self._lock:
            return [dict(row) for row in self._conn.execute(sql, params)]

    def query(self, sql: str, params: Sequence = ()) -> Tuple[List[str], List[tuple]]:
        """Raw SQL passthrough; returns (column names, rows).

        Backs ``repro history query 'SELECT …'`` — the escape hatch the
        cookbook in ``docs/observability.md`` builds on. The statement
        runs verbatim against the user's own local database.
        """
        with self._lock:
            cur = self._conn.execute(sql, params)
            headers = [d[0] for d in cur.description] if cur.description else []
            return headers, [tuple(row) for row in cur.fetchall()]

    def events_for(
        self, run_id: int, kind: Optional[str] = None
    ) -> List[dict]:
        """A run's event rows (oldest first), payloads decoded."""
        sql = "SELECT ts_unix, kind, unit, payload FROM events WHERE run_id = ?"
        params: List[object] = [run_id]
        if kind is not None:
            sql += " AND kind = ?"
            params.append(kind)
        sql += " ORDER BY id"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        out = []
        for ts, k, unit, payload in rows:
            ev = {"ts_unix": ts, "kind": k, "unit": unit}
            ev.update(_load_or_none(payload) or {})
            out.append(ev)
        return out

    def gc(self, keep: int) -> int:
        """Delete all but the newest ``keep`` runs; returns rows dropped.

        Foreign keys cascade, so a run's results, metrics, events,
        engine stats and memo rows go with it; the file is vacuumed
        afterwards.
        """
        if keep < 0:
            raise ConfigError(f"keep must be >= 0, got {keep}", field="keep")
        ids = self.run_ids()
        doomed = ids[: max(0, len(ids) - keep)]
        if not doomed:
            return 0
        with self._lock:
            self._conn.executemany(
                "DELETE FROM runs WHERE id = ?", [(i,) for i in doomed]
            )
            self._conn.commit()
            self._conn.execute("VACUUM")
        return len(doomed)


def load_bench_source(source: str, store_path: Optional[str] = None) -> dict:
    """Load a BENCH summary from a JSON path or a ``store:`` ref.

    The one-stop resolver for CLI arguments that accept either form
    (``repro compare``): ``store:`` refs open the history store at
    ``store_path`` (default: :func:`default_store_path`), anything else
    is read as a JSON file.
    """
    if is_store_ref(source):
        with RunStore(store_path or default_store_path()) as store:
            return store.export_run(store.resolve_ref(source))
    from repro.obs.output import load_json

    return load_json(source)
