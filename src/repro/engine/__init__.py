"""Pluggable simulation engines for :meth:`repro.hierarchy.system.System.run`.

Two engines share one per-access slow path (:mod:`repro.engine.step`):

* ``reference`` — the straightforward interpreter: every trace record
  walks the full coherence + hierarchy slow path, one at a time.
* ``batched`` — the production engine: the trace streams through in
  chunks converted by numpy, and nearly every access class retires on
  an inline fast path — private hits, LLC hits and DRAM fills of every
  LLC organization with eviction and back-invalidation, store
  coherence — with per-class tallies published as
  ``system.engine_stats`` (see ``docs/engine.md``); only a handful of
  entangled cases fall through to the shared slow path. Produces
  *bit-identical* results (stats, the LLC's own counters, cycle
  counts, stall breakdowns) — enforced by
  ``tests/test_engine_equivalence.py`` — and transparently falls back
  to ``reference`` for the one configuration whose arithmetic cannot
  be batched exactly (a non-power-of-two issue width).

Select an engine per call (``System.run(trace, engine="reference")``),
per process (``REPRO_ENGINE=reference``), or via the public API
(``repro.simulate(..., engine="reference")``).
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

from repro.engine import batched, reference
from repro.errors import ConfigError

DEFAULT_ENGINE = "batched"

#: name -> run(system, trace, limit) callable
ENGINES = {
    "batched": batched.run,
    "reference": reference.run,
}


def engine_names() -> list:
    """Registered engine names, default first."""
    names = sorted(ENGINES)
    names.remove(DEFAULT_ENGINE)
    return [DEFAULT_ENGINE] + names


def get_engine(name: Optional[str] = None) -> Tuple[str, Callable]:
    """Resolve an engine by name.

    ``None`` falls back to the ``REPRO_ENGINE`` environment variable,
    then to :data:`DEFAULT_ENGINE`. An unknown name is a
    :class:`~repro.errors.ConfigError` (a ``ValueError``).
    """
    resolved = name or os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
    try:
        return resolved, ENGINES[resolved]
    except KeyError:
        raise ConfigError(
            f"unknown engine {resolved!r}; choose from {engine_names()}",
            field="engine",
        ) from None
