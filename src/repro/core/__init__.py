"""The paper's contribution: the Doppelgänger cache.

Modules:

* :mod:`repro.core.maps` — approximate-similarity map generation
  (Sec. 3.7), the only place a block becomes a map: clamping to the
  declared value range, the average+range hashes (or the ablations'
  alternatives in ``HASHES``), linear binning into an M-bit map space.
* :mod:`repro.core.tag_array` — decoupled, address-indexed tag array
  whose entries carry prev/next tag links, a map value, a dirty bit
  and a precise bit.
* :mod:`repro.core.data_array` — map-indexed MTag + data array whose
  entries link to the head of the tag linked list sharing them. Both
  arrays keep their sets in :class:`~repro.cache.replacement.ReplacementSets`.
* :mod:`repro.core.doppelganger` — the split-LLC Doppelgänger cache
  (Secs. 3.1-3.6): lookups, insertions, writes and replacements, with
  a per-tag dirty bit that is also the tag's MSI state (the sharer
  vectors live in :class:`~repro.hierarchy.system.System`).
* :mod:`repro.core.unidoppelganger` — the unified design (Sec. 3.8)
  holding precise and approximate blocks in one array pair.
* :mod:`repro.core.functional` — fast functional model used for
  application output-error evaluation (the paper's Pin methodology).
* :mod:`repro.core.replacement_ext` — sharing-aware data-array
  replacement (the paper's future work, Sec. 3.5).
* :mod:`repro.core.config` — configuration dataclasses mirroring
  Table 1.
"""

from repro.core.config import DoppelgangerConfig, UniDoppelgangerConfig
from repro.core.maps import MapConfig, MapGenerator, MapRegistry
from repro.core.doppelganger import DoppelgangerCache
from repro.core.unidoppelganger import UniDoppelgangerCache
from repro.core.functional import BlockApproximator, FunctionalDoppelganger, IdentityApproximator
from repro.core.replacement_ext import make_sharing_aware

__all__ = [
    "BlockApproximator",
    "DoppelgangerCache",
    "DoppelgangerConfig",
    "FunctionalDoppelganger",
    "IdentityApproximator",
    "MapConfig",
    "MapGenerator",
    "MapRegistry",
    "UniDoppelgangerCache",
    "UniDoppelgangerConfig",
    "make_sharing_aware",
]
