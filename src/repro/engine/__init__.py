"""Pluggable simulation engines for :meth:`repro.hierarchy.system.System.run`.

Two engines share one per-access slow path (:mod:`repro.engine.step`):

* ``reference`` — the straightforward interpreter: every trace record
  walks the full coherence + hierarchy slow path, one at a time.
* ``batched`` — the production engine: trace columns are converted and
  pre-masked in bulk, and nearly every access class retires on an
  inline fast path — private hits, LLC hits, DRAM fills with eviction
  and back-invalidation, adapter-protocol fills, store coherence —
  with per-class tallies published as ``system.engine_stats`` (see
  ``docs/engine.md``); only a handful of entangled cases fall through
  to the shared slow path. Produces *bit-identical* results (stats,
  cycle counts, stall breakdowns) — enforced by
  ``tests/test_engine_equivalence.py`` — and transparently falls back
  to ``reference`` for configurations whose arithmetic or replacement
  policy cannot be batched exactly (non-power-of-two issue width,
  ``random`` replacement).

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
