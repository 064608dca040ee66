"""Cache designs (Table 4) and a functional set-associative cache.

:class:`CacheDesign` carries the latency/geometry parameters the system
model consumes; :class:`FunctionalCache` is a real LRU set-associative
cache used by the coherence engines and the protocol tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class CacheLevelSpec:
    """One cache level: size and latency (expressed at 4 GHz cycles)."""

    name: str
    size_kb: int
    latency_cycles_at_4ghz: float

    @property
    def latency_ns(self) -> float:
        return self.latency_cycles_at_4ghz / 4.0


@dataclass(frozen=True)
class CacheDesign:
    """A full cache hierarchy parameter set (one Table 4 memory column)."""

    name: str
    l1: CacheLevelSpec
    l2: CacheLevelSpec
    l3: CacheLevelSpec  # per-core slice of the shared L3

    @property
    def l1_latency_ns(self) -> float:
        return self.l1.latency_ns

    @property
    def l2_latency_ns(self) -> float:
        return self.l2.latency_ns

    @property
    def l3_latency_ns(self) -> float:
        return self.l3.latency_ns


#: Table 4 '300K memory': Intel i7-6700-class caches.
MEMORY_300K = CacheDesign(
    name="memory_300k",
    l1=CacheLevelSpec("l1", 32, 4.0),
    l2=CacheLevelSpec("l2", 256, 12.0),
    l3=CacheLevelSpec("l3_slice", 1024, 20.0),
)

#: Table 4 '77K memory': CryoCache-class SRAM, twice as fast.
MEMORY_77K = CacheDesign(
    name="memory_77k",
    l1=CacheLevelSpec("l1", 32, 2.0),
    l2=CacheLevelSpec("l2", 256, 6.0),
    l3=CacheLevelSpec("l3_slice", 1024, 10.0),
)


class FunctionalCache:
    """Set-associative LRU cache over 64-byte lines.

    Stores an arbitrary payload per line (the coherence engines keep
    protocol state there). Evictions report the victim so writebacks can
    be modelled.
    """

    LINE_BYTES = 64

    def __init__(self, size_kb: int, associativity: int = 8):
        if size_kb <= 0 or associativity <= 0:
            raise ValueError("size and associativity must be positive")
        n_lines = size_kb * 1024 // self.LINE_BYTES
        if n_lines % associativity:
            raise ValueError("line count must divide by associativity")
        self.associativity = associativity
        self.n_sets = n_lines // associativity
        self._sets: Dict[int, OrderedDict] = {}

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.LINE_BYTES
        return line % self.n_sets, line

    def lookup(self, address: int) -> Optional[object]:
        """Payload for the line, or None on miss. Updates recency."""
        set_idx, tag = self._locate(address)
        entries = self._sets.get(set_idx)
        if entries is None or tag not in entries:
            return None
        entries.move_to_end(tag)
        return entries[tag]

    def insert(self, address: int, payload: object) -> Optional[Tuple[int, object]]:
        """Insert/overwrite a line; returns (victim_address, payload) if
        an eviction occurred."""
        set_idx, tag = self._locate(address)
        entries = self._sets.setdefault(set_idx, OrderedDict())
        victim = None
        if tag not in entries and len(entries) >= self.associativity:
            victim_tag, victim_payload = entries.popitem(last=False)
            victim = (victim_tag * self.LINE_BYTES, victim_payload)
        entries[tag] = payload
        entries.move_to_end(tag)
        return victim

    def invalidate(self, address: int) -> Optional[object]:
        """Drop a line; returns its payload if present."""
        set_idx, tag = self._locate(address)
        entries = self._sets.get(set_idx)
        if entries is None:
            return None
        return entries.pop(tag, None)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets.values())
