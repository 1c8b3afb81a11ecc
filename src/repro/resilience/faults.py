"""Deterministic fault injection for the approximate hierarchy.

Doppelgänger's premise is that the approximate data array tolerates
imprecision — which invites running it at lower voltage or with weaker
ECC, exactly the regime where soft errors appear. This module models
that regime with three seeded fault mechanisms:

* **per-read bit flips** (``read_rate``) — each read of a targeted
  structure independently experiences ``flip_bits`` random bit flips
  with this probability (transient/soft errors);
* **bursts** (``burst_rate`` × ``burst_len``) — a read starts a burst
  with probability ``burst_rate``; the following ``burst_len`` reads of
  that structure all fault (the per-cycle/retention-failure proxy:
  a weak row stays weak for a window);
* **stuck-at bits** (``stuck_bits``) — permanently faulty cell
  positions (derived from the seed, half stuck-at-1, half stuck-at-0)
  forced on every value read from the approximate data array.

Faults are injectable into three targets: the approximate data array
(``approx_data``), the conventional precise LLC structures (``llc``)
and DRAM (``dram``). The *consequence* of a fault follows the ECC
story of each structure (see ``docs/robustness.md``):

* precise structures (``llc``, and ``dram`` reads of precise lines)
  are ECC-protected — a fault is **detected** and the line refetched,
  costing latency and off-chip traffic but never correctness;
* the approximate data array (and ``dram`` fills of approximate
  lines) runs without protection — a fault is **silent**, corrupting
  the values the functional model returns and therefore the
  application's output quality.

Determinism: every decision comes from a counter-based splitmix64
hash of ``(seed, site, access index)`` — no shared RNG stream — so the
same :class:`FaultConfig` produces identical faults across runs,
engines, and ``--jobs 1`` vs ``--jobs 4`` (each (workload, config)
run owns its own injector and its access order is deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError

#: The structures faults can be injected into.
TARGET_APPROX_DATA = "approx_data"
TARGET_LLC = "llc"
TARGET_DRAM = "dram"
FAULT_TARGETS = (TARGET_APPROX_DATA, TARGET_LLC, TARGET_DRAM)

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 mixing round (the PRNG behind the fault streams)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash(seed: int, site_idx: int, counter: int, salt: int) -> int:
    """Deterministic 64-bit hash of one (site, access, purpose) triple."""
    return splitmix64(
        splitmix64(seed & _MASK64) ^ (site_idx << 56) ^ (salt << 48) ^ counter
    )


def _uniform(h: int) -> float:
    """Map a 64-bit hash to [0, 1)."""
    return (h >> 11) / float(1 << 53)


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault-model knobs (hashable; part of a ``ConfigSpec``).

    Attributes:
        seed: fault-stream seed (independent of the data seed).
        read_rate: per-read probability of a transient multi-bit flip.
        flip_bits: bits flipped per faulty read.
        burst_rate: per-read probability of *starting* a fault burst.
        burst_len: reads per burst (every one faults).
        stuck_bits: permanently faulty bit positions in the
            approximate data array (0 disables).
        targets: structures to inject into — a subset of
            ``("approx_data", "llc", "dram")``; normalized to a sorted
            tuple so equal configs hash equal.
    """

    seed: int = 0
    read_rate: float = 0.0
    flip_bits: int = 1
    burst_rate: float = 0.0
    burst_len: int = 8
    stuck_bits: int = 0
    targets: Tuple[str, ...] = (TARGET_APPROX_DATA,)

    def __post_init__(self):
        for name in ("read_rate", "burst_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"must be a probability in [0, 1], got {rate}", field=name
                )
        if self.flip_bits < 1 or self.flip_bits > 64:
            raise ConfigError(
                f"must be in [1, 64], got {self.flip_bits}", field="flip_bits"
            )
        if self.burst_len < 1:
            raise ConfigError(
                f"must be >= 1, got {self.burst_len}", field="burst_len"
            )
        if self.stuck_bits < 0 or self.stuck_bits > 64:
            raise ConfigError(
                f"must be in [0, 64], got {self.stuck_bits}", field="stuck_bits"
            )
        normalized = tuple(sorted(set(self.targets)))
        unknown = [t for t in normalized if t not in FAULT_TARGETS]
        if unknown:
            raise ConfigError(
                f"unknown fault target(s) {unknown}; choose from "
                f"{list(FAULT_TARGETS)}",
                field="targets",
            )
        object.__setattr__(self, "targets", normalized)

    @property
    def active(self) -> bool:
        """Whether this config can ever produce a fault.

        An inactive config (all rates zero, no stuck bits, or no
        targets) is normalized away by
        :meth:`~repro.harness.runner.ConfigSpec.with_faults` so a
        zero-rate sweep stays bit-identical to one with faults
        disabled.
        """
        return bool(self.targets) and (
            self.read_rate > 0.0 or self.burst_rate > 0.0 or self.stuck_bits > 0
        )

    def label(self) -> str:
        """Short deterministic suffix for config labels."""
        parts = [f"s{self.seed}"]
        if self.read_rate > 0.0:
            parts.append(f"r{self.read_rate:g}x{self.flip_bits}")
        if self.burst_rate > 0.0:
            parts.append(f"b{self.burst_rate:g}x{self.burst_len}")
        if self.stuck_bits > 0:
            parts.append(f"k{self.stuck_bits}")
        codes = {TARGET_APPROX_DATA: "ad", TARGET_LLC: "llc", TARGET_DRAM: "dram"}
        parts.append("+".join(codes[t] for t in self.targets))
        return "faults(" + ",".join(parts) + ")"

    def to_dict(self) -> dict:
        """JSON-friendly form (see ``docs/api.md``)."""
        return {
            "seed": self.seed,
            "read_rate": self.read_rate,
            "flip_bits": self.flip_bits,
            "burst_rate": self.burst_rate,
            "burst_len": self.burst_len,
            "stuck_bits": self.stuck_bits,
            "targets": list(self.targets),
        }

    #: Field -> scalar type of the :meth:`to_dict` schema (``targets``
    #: is handled separately — it is a sequence of target names).
    _SCALAR_FIELDS = {
        "seed": int,
        "read_rate": float,
        "flip_bits": int,
        "burst_rate": float,
        "burst_len": int,
        "stuck_bits": int,
    }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultConfig":
        """Rebuild a config from its :meth:`to_dict` form.

        The exact round-trip counterpart history-store provenance
        rows and BENCH JSON reconstruct configs through:
        ``FaultConfig.from_dict(cfg.to_dict()) == cfg`` for every valid
        config. Missing fields take their
        defaults; unknown fields, wrong types and out-of-range values
        raise :class:`~repro.errors.ConfigError` naming the offending
        field (range checks come from ``__post_init__``).
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"expected a fault-config mapping, got "
                f"{type(data).__name__}",
                field="faults",
            )
        unknown = sorted(
            k for k in data if k not in cls._SCALAR_FIELDS and k != "targets"
        )
        if unknown:
            raise ConfigError(
                f"unknown fault config field(s) {unknown}; expected "
                f"{sorted([*cls._SCALAR_FIELDS, 'targets'])}",
                field=unknown[0],
            )
        kwargs = {}
        for name, cast in cls._SCALAR_FIELDS.items():
            if name not in data:
                continue
            value = data[name]
            try:
                kwargs[name] = cast(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"expected {cast.__name__}, got {value!r}", field=name
                ) from None
        if "targets" in data:
            targets = data["targets"]
            if isinstance(targets, str) or not isinstance(
                targets, (list, tuple)
            ):
                raise ConfigError(
                    f"expected a list of target names, got {targets!r}",
                    field="targets",
                )
            kwargs["targets"] = tuple(targets)
        return cls(**kwargs)


@dataclass
class SiteStats:
    """Per-target fault accounting."""

    reads: int = 0
    faults: int = 0
    bits_flipped: int = 0
    detected: int = 0

    def as_dict(self) -> dict:
        return {
            "reads": self.reads,
            "faults": self.faults,
            "bits_flipped": self.bits_flipped,
            "detected": self.detected,
        }


@dataclass
class _SiteState:
    """Mutable per-target decision state."""

    counter: int = 0
    burst_remaining: int = 0
    stats: SiteStats = field(default_factory=SiteStats)


class FaultInjector:
    """Deterministic, seeded fault source for one simulation run.

    One injector is created per (workload, config) evaluation — the
    timing simulation and the functional error evaluation each get
    their own — so fault streams never leak across runs.

    Args:
        config: the (active) :class:`FaultConfig`.
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self._site_idx = {t: i for i, t in enumerate(FAULT_TARGETS)}
        self._sites: Dict[str, _SiteState] = {
            t: _SiteState() for t in config.targets
        }
        # Stuck-at masks over the 64-bit storage word, derived from the
        # seed: even draws stick a bit at 1 (OR mask), odd at 0 (AND).
        or_mask = 0
        and_mask = _MASK64
        for i in range(config.stuck_bits):
            h = _hash(config.seed, 7, i, 5)
            bit = 1 << (h % 64)
            if (h >> 8) & 1:
                or_mask |= bit
            else:
                and_mask &= ~bit
        self._stuck_or = np.uint64(or_mask)
        self._stuck_and = np.uint64(and_mask)
        self._has_stuck = config.stuck_bits > 0

    # ------------------------------------------------------------- decisions

    def targets(self, site: str) -> bool:
        """Whether ``site`` is under fault injection."""
        return site in self._sites

    def _decide(self, st: _SiteState, site_idx: int) -> bool:
        """Advance one read at a site; True if it experiences a fault."""
        cfg = self.config
        st.counter += 1
        if st.burst_remaining > 0:
            st.burst_remaining -= 1
            return True
        faulty = False
        if cfg.read_rate > 0.0:
            faulty = _uniform(_hash(cfg.seed, site_idx, st.counter, 1)) < cfg.read_rate
        if cfg.burst_rate > 0.0 and (
            _uniform(_hash(cfg.seed, site_idx, st.counter, 2)) < cfg.burst_rate
        ):
            st.burst_remaining = cfg.burst_len - 1
            faulty = True
        return faulty

    # ------------------------------------------------------- timing (detected)

    def detected(self, site: str) -> bool:
        """One ECC-protected read of ``site``: did it detect a fault?

        Used by the timing simulation for precise structures: a
        detected fault costs a DRAM refetch (latency + traffic) but is
        always corrected. Returns False for untargeted sites.
        """
        st = self._sites.get(site)
        if st is None:
            return False
        st.stats.reads += 1
        if self._decide(st, self._site_idx[site]):
            st.stats.faults += 1
            st.stats.detected += 1
            return True
        return False

    def silent(self, site: str) -> bool:
        """One unprotected read of ``site``: did it silently fault?

        Used by the timing simulation for the approximate data array,
        where a fault has no timing consequence (nothing detects it) —
        only the count is kept; the value-level corruption happens in
        the functional model via :meth:`corrupt`.
        """
        st = self._sites.get(site)
        if st is None:
            return False
        st.stats.reads += 1
        if self._decide(st, self._site_idx[site]):
            st.stats.faults += 1
            st.stats.bits_flipped += self.config.flip_bits
            return True
        return False

    # ------------------------------------------------------ values (silent)

    def corrupt(self, site: str, values: np.ndarray) -> np.ndarray:
        """Apply silent corruption to one block of float64 values.

        Models one read of an unprotected structure: stuck-at bits (for
        the approximate data array) are forced on every read; with the
        configured rates, ``flip_bits`` random bit positions of random
        elements additionally flip. Returns ``values`` unchanged (same
        object) when nothing fires, else a corrupted copy — the caller
        must not assume mutation.
        """
        st = self._sites.get(site)
        if st is None:
            return values
        st.stats.reads += 1
        faulty = self._decide(st, self._site_idx[site])
        apply_stuck = self._has_stuck and site == TARGET_APPROX_DATA
        if not faulty and not apply_stuck:
            return values
        out = np.array(values, dtype=np.float64, copy=True)
        bits = out.view(np.uint64)
        if apply_stuck:
            bits |= self._stuck_or
            bits &= self._stuck_and
        if faulty:
            cfg = self.config
            st.stats.faults += 1
            st.stats.bits_flipped += cfg.flip_bits
            site_idx = self._site_idx[site]
            for k in range(cfg.flip_bits):
                h = _hash(cfg.seed, site_idx, st.counter, 16 + k)
                elem = h % out.size
                bit = np.uint64(1) << np.uint64((h >> 32) % 64)
                bits[elem] ^= bit
        return out

    # ------------------------------------------------------------- reporting

    def stats(self, site: str) -> Optional[SiteStats]:
        """Counters for one site (None when untargeted)."""
        st = self._sites.get(site)
        return st.stats if st is not None else None

    def total_faults(self) -> int:
        """Faults injected across every site."""
        return sum(s.stats.faults for s in self._sites.values())

    def summary(self) -> dict:
        """JSON-friendly fault report (config + per-site counters).

        Site keys are sorted so serialized output is deterministic.
        """
        return {
            "config": self.config.to_dict(),
            "sites": {
                site: self._sites[site].stats.as_dict()
                for site in sorted(self._sites)
            },
        }
