"""Configuration dataclasses mirroring Table 1 of the paper.

The base system: a 2 MB baseline LLC, or — with Doppelgänger — a 1 MB
precise cache plus a 1 MB *tag-equivalent* Doppelgänger cache (16 K
tags) whose approximate data array holds a fraction (1/4 base) of the
tag count. The unified design has a 2 MB tag-equivalent array (32 K
tags) over a data array sized as a fraction of the baseline capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.maps import MapConfig
from repro.errors import ConfigError


def _check_pow2(value: int, label: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ConfigError(
            f"must be a positive power of two, got {value}", field=label
        )


@dataclass(frozen=True)
class DoppelgangerConfig:
    """Split-design Doppelgänger cache parameters (Table 1).

    Attributes:
        tag_entries: tag-array entries (16 K = 1 MB tag-equivalent).
        tag_ways: tag-array associativity.
        data_fraction: approximate data array capacity as a fraction of
            the tag count (1/4 base; the paper sweeps 1/2, 1/4, 1/8).
        data_ways: data-array associativity.
        block_size: line size in bytes.
        map: map-space configuration (14-bit base).
        policy: replacement policy used in both arrays.
    """

    tag_entries: int = 16 * 1024
    tag_ways: int = 16
    data_fraction: float = 0.25
    data_ways: int = 16
    block_size: int = 64
    map: MapConfig = field(default_factory=MapConfig)
    policy: str = "lru"

    def __post_init__(self):
        _check_pow2(self.tag_entries, "tag_entries")
        _check_pow2(self.tag_ways, "tag_ways")
        _check_pow2(self.data_ways, "data_ways")
        _check_pow2(self.block_size, "block_size")
        if not 0 < self.data_fraction <= 1:
            raise ConfigError(
                f"must be in (0, 1], got {self.data_fraction}",
                field="data_fraction",
            )
        if self.data_entries < self.data_ways:
            raise ConfigError(
                f"data array smaller than one set "
                f"({self.data_entries} entries < {self.data_ways} ways)",
                field="data_fraction",
            )

    @property
    def data_entries(self) -> int:
        """Number of data-array blocks."""
        return int(self.tag_entries * self.data_fraction)

    @property
    def tag_sets(self) -> int:
        """Tag-array set count."""
        return self.tag_entries // self.tag_ways

    @property
    def data_sets(self) -> int:
        """Data-array set count."""
        return self.data_entries // self.data_ways

    @property
    def data_capacity_bytes(self) -> int:
        """Approximate data array capacity in bytes."""
        return self.data_entries * self.block_size


@dataclass(frozen=True)
class UniDoppelgangerConfig:
    """Unified Doppelgänger parameters (Sec. 3.8, Table 1).

    ``data_fraction`` here is relative to the *baseline LLC block count*
    (= tag_entries), so 1/2 gives the 1 MB data array of the base
    unified design and 3/4 matches the paper's largest variant.
    """

    tag_entries: int = 32 * 1024
    tag_ways: int = 16
    data_fraction: float = 0.5
    data_ways: int = 16
    block_size: int = 64
    map: MapConfig = field(default_factory=MapConfig)
    policy: str = "lru"

    def __post_init__(self):
        _check_pow2(self.tag_entries, "tag_entries")
        _check_pow2(self.tag_ways, "tag_ways")
        _check_pow2(self.data_ways, "data_ways")
        _check_pow2(self.block_size, "block_size")
        if not 0 < self.data_fraction <= 1:
            raise ConfigError(
                f"must be in (0, 1], got {self.data_fraction}",
                field="data_fraction",
            )
        if self.data_entries < self.data_ways:
            raise ConfigError(
                f"data array smaller than one set "
                f"({self.data_entries} entries < {self.data_ways} ways)",
                field="data_fraction",
            )

    @property
    def data_entries(self) -> int:
        """Number of data-array blocks (fraction of baseline capacity)."""
        return int(self.tag_entries * self.data_fraction)

    @property
    def tag_sets(self) -> int:
        """Tag-array set count."""
        return self.tag_entries // self.tag_ways

    @property
    def data_sets(self) -> int:
        """Data-array set count.

        The 3/4 configuration yields a non-power-of-two count; the data
        array indexes by ``map mod sets``, which handles both cases.
        """
        return self.data_entries // self.data_ways

    @property
    def data_capacity_bytes(self) -> int:
        """Data array capacity in bytes."""
        return self.data_entries * self.block_size
