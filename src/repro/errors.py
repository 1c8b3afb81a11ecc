"""Typed exception hierarchy for the reproduction.

Every error the toolkit raises on *user input* — malformed traces,
invalid configurations, simulation-time faults — derives from
:class:`ReproError` and carries structured context (file path, line,
field) plus a documented process exit code, so the CLI can map any
failure to a one-line message and a distinct status instead of a raw
traceback (see ``docs/robustness.md``):

==========================  =========  =================================
exception                   exit code  raised for
==========================  =========  =================================
:class:`ConfigError`        2          invalid configuration / usage
:class:`TraceFormatError`   3          unreadable or malformed trace
:class:`SimulationFault`    4          simulation failed on both engines
:class:`Cancelled`          130        run cancelled (SIGINT / SIGTERM)
==========================  =========  =================================

:class:`ConfigError` and :class:`TraceFormatError` also subclass
:class:`ValueError` (and :class:`SimulationFault` subclasses
:class:`RuntimeError`) so pre-existing ``except ValueError`` callers
and tests keep working unchanged.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for typed, user-facing errors.

    Args:
        message: human-readable description (no context prefix).
        path: file the error was detected in, if any.
        line: 1-based line (or record) number within ``path``.
        field: configuration field or trace array the error concerns.
    """

    #: Process exit status the CLI maps this error class to.
    exit_code = 1

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        line: Optional[int] = None,
        field: Optional[str] = None,
    ):
        super().__init__(message)
        self.message = message
        self.path = path
        self.line = line
        self.field = field

    def context(self) -> str:
        """The ``path:line`` / ``field`` prefix, empty when absent."""
        parts = []
        if self.path is not None:
            loc = str(self.path)
            if self.line is not None:
                loc += f":{self.line}"
            parts.append(loc)
        if self.field is not None:
            parts.append(f"field {self.field!r}")
        return ": ".join(parts)

    def __str__(self) -> str:
        prefix = self.context()
        return f"{prefix}: {self.message}" if prefix else self.message


class ConfigError(ReproError, ValueError):
    """Invalid configuration or usage (exit code 2).

    Raised by the config dataclasses (:mod:`repro.core.config`,
    :class:`~repro.resilience.faults.FaultConfig`,
    :class:`~repro.hierarchy.system.SystemConfig`), the workload
    registry, and CLI argument handling. ``field`` names the offending
    parameter.
    """

    exit_code = 2


class UnknownExperimentError(ConfigError):
    """An experiment name absent from the strategy registry (exit code 2).

    Raised by :meth:`repro.harness.strategy.StrategyRegistry.get`
    instead of a raw ``KeyError``; the message lists every registered
    name. Subclasses :class:`ConfigError` (and therefore
    :class:`ValueError`), so it inherits the configuration exit code
    and pre-existing ``except ValueError`` callers keep working.
    """

    def __init__(self, name: str, known=()):
        """Record the unknown ``name`` and the ``known`` registry names."""
        super().__init__(
            f"unknown experiment {name!r}; choose from {list(known)}",
            field="experiment",
        )
        self.name = name
        self.known = list(known)


class TraceFormatError(ReproError, ValueError):
    """Unreadable or malformed trace input (exit code 3).

    Raised by :func:`repro.trace.io.load_trace` with the file path and
    the missing/invalid array in ``field``.
    """

    exit_code = 3


class SimulationFault(ReproError, RuntimeError):
    """A simulation failed and could not be recovered (exit code 4).

    Raised by the harness when a run fails on the reference engine too
    (after the batched engine already fell back — see
    ``docs/robustness.md``), or when a parallel sweep exhausts its
    retries. The original exception is chained as ``__cause__``.
    """

    exit_code = 4


class Cancelled(ReproError):
    """A run was cancelled before completing (exit code 130).

    Raised by the parallel harness when a sweep is interrupted — by
    SIGINT/SIGTERM (see
    :func:`repro.harness.parallel.cancellation_signals`) or by a
    :class:`~repro.harness.parallel.CancelToken` set programmatically.
    Cancellation is a *clean* outcome: the worker pool is torn down,
    every already-completed (workload, config) record has been merged
    and committed to the history store's memo, and the exit code
    follows the 128+SIGINT shell convention instead of a raw
    ``KeyboardInterrupt`` traceback.
    """

    exit_code = 130
