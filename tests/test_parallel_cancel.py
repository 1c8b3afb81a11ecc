"""Cancellation tests for the parallel harness and the strategy driver.

Exercises the chain a SIGINT during a ``--jobs`` prefetch rides:
:func:`~repro.harness.parallel.cancellation_signals` → the sweep's
:class:`~repro.harness.parallel.CancelToken` → the poll loop → pool
teardown → the typed :class:`~repro.errors.Cancelled` (exit code 130)
→ the history run's ``run_cancelled`` event.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import Cancelled
from repro.harness import parallel
from repro.harness.parallel import (
    CancelToken,
    cancellation_signals,
    prefetch_pairs,
)
from repro.harness.runner import ExperimentContext, dopp_spec
from repro.harness.strategy import run_strategies
from repro.obs.store import RunStore


class TestCancelToken:
    def test_first_reason_wins(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled()
        assert token.reason == "first"

    def test_default_reason(self):
        token = CancelToken()
        token.cancel()
        assert token.cancelled()
        assert token.reason


class TestCancellationSignals:
    def test_sigint_sets_token_once(self):
        token = CancelToken()
        with cancellation_signals(token, signals=(signal.SIGINT,)):
            os.kill(os.getpid(), signal.SIGINT)
            for _ in range(100):
                if token.cancelled():
                    break
                time.sleep(0.01)
        assert token.cancelled()
        assert "SIGINT" in token.reason

    def test_handlers_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with cancellation_signals(CancelToken(), signals=(signal.SIGINT,)):
            assert signal.getsignal(signal.SIGINT) is not before
        assert signal.getsignal(signal.SIGINT) is before

    def test_noop_off_main_thread(self):
        outcome = {}

        def run():
            token = CancelToken()
            before = signal.getsignal(signal.SIGINT)
            with cancellation_signals(token, signals=(signal.SIGINT,)):
                outcome["unchanged"] = signal.getsignal(signal.SIGINT) is before

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=10)
        assert outcome == {"unchanged": True}


class TestPrefetchCancel:
    def test_preset_token_raises_cancelled(self, small_scale_ctx):
        token = CancelToken()
        token.cancel("test cancel")
        with pytest.raises(Cancelled, match="test cancel"):
            prefetch_pairs(
                small_scale_ctx, _pairs(small_scale_ctx), jobs=2, cancel=token
            )

    def test_mid_sweep_cancel_keeps_completed(self, small_scale_ctx):
        token = CancelToken()
        timer = threading.Timer(0.2, token.cancel, args=("mid-sweep",))
        timer.start()
        try:
            with pytest.raises(Cancelled, match="mid-sweep"):
                prefetch_pairs(
                    small_scale_ctx,
                    _pairs(small_scale_ctx),
                    jobs=2,
                    cancel=token,
                )
        finally:
            timer.cancel()

    def test_uncancelled_sweep_completes(self, small_scale_ctx):
        fetched = prefetch_pairs(
            small_scale_ctx,
            _pairs(small_scale_ctx),
            jobs=2,
            cancel=CancelToken(),
        )
        assert fetched == 2


@pytest.fixture
def small_scale_ctx():
    """A tiny context for fast parallel sweeps."""
    return ExperimentContext(seed=3, scale=0.05, workloads=["swaptions", "kmeans"])


def _pairs(ctx):
    """Every workload of ``ctx`` under the default Doppelgänger spec."""
    return [(name, dopp_spec()) for name in ctx.names]


class TestRunStrategiesCancel:
    def test_cancelled_run_journals_partial_history(self, tmp_path, monkeypatch):
        # The driver's --jobs prefetch, cancelled as if a SIGINT had
        # landed on its token while the pool was live.
        real_prefetch = parallel.prefetch_pairs

        def interrupted_prefetch(*args, **kwargs):
            token = CancelToken()
            token.cancel("received SIGINT")
            return real_prefetch(*args, cancel=token, **kwargs)

        monkeypatch.setattr(parallel, "prefetch_pairs", interrupted_prefetch)
        store_path = str(tmp_path / "history.db")
        with pytest.raises(Cancelled, match="SIGINT"):
            run_strategies(
                ["table2"],
                seed=3,
                scale=0.05,
                workloads=["swaptions"],
                jobs=2,
                store_path=store_path,
                record_history=True,
                argv=["test"],
            )

        store = RunStore(store_path)
        (run,) = store.list_runs()
        run_id = run["id"]
        assert run["finished"] == 0
        events = store.events_for(run_id)
        cancelled = [e for e in events if e["kind"] == "run_cancelled"]
        assert len(cancelled) == 1
        assert "SIGINT" in cancelled[0]["reason"]
        store.close()

    def test_exit_code(self):
        assert Cancelled("x").exit_code == 130
