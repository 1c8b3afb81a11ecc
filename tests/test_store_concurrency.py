"""Concurrent-access tests for the run-history store.

A run records into the sqlite store while ``repro history`` processes
read it, and one :class:`RunStore` may be shared across threads — so
the store must survive a writer thread racing reader processes
without ``database is locked`` errors. WAL journaling plus
``busy_timeout`` plus the per-store lock make that hold; these tests
would catch a regression on any of the three.
"""

import subprocess
import sys
import threading
from pathlib import Path

import repro
from repro.obs.store import RunStore

READER = """
import sys
from repro.obs.store import RunStore

store = RunStore(sys.argv[1])
for _ in range(40):
    store.list_runs()
    store.query("SELECT COUNT(*) FROM events")
store.close()
print("ok")
"""


def _src_path() -> str:
    """The ``src`` directory for subprocess PYTHONPATH."""
    return str(Path(repro.__file__).resolve().parent.parent)


def _writer(store_path: str, n: int, errors: list) -> None:
    """Append ``n`` runs + events on a second connection."""
    try:
        store = RunStore(store_path)
        for k in range(n):
            run_id = store.start_run(argv=["test", str(k)], seed=k, scale=0.1)
            store.add_events(run_id, [{"kind": "tick", "k": k}])
            store.finish_run(run_id)
        store.close()
    except Exception as exc:  # pragma: no cover - failure path
        errors.append(exc)


def test_writer_thread_with_reader_processes(tmp_path):
    """One writer thread + 3 reader subprocesses: nobody sees a lock error."""
    store_path = str(tmp_path / "history.db")
    RunStore(store_path).close()  # create the schema up front

    errors: list = []
    writer = threading.Thread(target=_writer, args=(store_path, 30, errors))
    writer.start()
    readers = [
        subprocess.Popen(
            [sys.executable, "-c", READER, store_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": _src_path(), "PATH": "/usr/bin:/bin"},
        )
        for _ in range(3)
    ]
    writer.join(timeout=120)
    assert not writer.is_alive()
    assert errors == []
    for proc in readers:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert b"database is locked" not in err
        assert out.strip() == b"ok"

    store = RunStore(store_path)
    assert len(store.list_runs()) == 30
    assert store.query("SELECT COUNT(*) FROM events")[1] == [(30,)]
    store.close()


def test_two_connections_interleaved_writes(tmp_path):
    """Two open connections to one db can both write (WAL + busy timeout)."""
    store_path = str(tmp_path / "history.db")
    a = RunStore(store_path)
    b = RunStore(store_path)
    ra = a.start_run(argv=["a"], seed=1, scale=0.1)
    rb = b.start_run(argv=["b"], seed=2, scale=0.1)
    a.add_events(ra, [{"kind": "tick"}])
    b.add_events(rb, [{"kind": "tick"}])
    a.finish_run(ra)
    b.finish_run(rb)
    assert len(a.list_runs()) == 2
    a.close()
    b.close()


def test_one_store_shared_across_threads(tmp_path):
    """A single RunStore instance is thread-safe under its internal lock."""
    store = RunStore(str(tmp_path / "history.db"))
    errors: list = []

    def hammer(tag: str) -> None:
        try:
            for k in range(20):
                run_id = store.start_run(argv=[tag, str(k)], seed=k, scale=0.1)
                store.finish_run(run_id)
                store.list_runs()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(f"t{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert errors == []
    assert len(store.list_runs()) == 80
    store.close()

