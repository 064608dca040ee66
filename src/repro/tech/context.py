"""Memoized evaluation context for the physical-modeling stack.

The architecture models re-price the *same* physical structures at the
same handful of operating points many times: the voltage search checks
power point by point, and the figure sweeps re-derive repeater
placements, driver resistances, gate-delay and leakage factors, and
per-layer wire RC that depend only on ``(device/layer,
OperatingPoint)``. (A multicore solve looks nothing up here: the NoC
and memory models it prices are built with the system.) A
:class:`TechContext` caches those pure derivations behind hashable keys
(every device card, metal layer and
:class:`~repro.tech.operating_point.OperatingPoint` is a frozen
dataclass) so the hot loops stop redoing identical physics.

Only the scalar entry points memoize. The ``_batch`` kernels compute on
every call and never touch the context: a dense grid or a coalesced
batch of served points is mostly fresh points, so keying it on a
digest of its columns bought evictions, not reuse.

Usage: the model layers call :func:`get_context` internally -- nothing
changes for callers, warm evaluations just get faster. For control:

* ``get_context().stats()`` -- hit/miss counters, per cache family,
  proving (or disproving) reuse;
* ``clear_context()`` -- drop every entry (cold-start measurements);
* ``use_context(TechContext(enabled=False))`` -- a ``with`` block in
  which every evaluation is recomputed from scratch (the equivalence
  tests use this to show memoized results are bit-identical).

The context is process-local but **thread-safe**: the parallel
experiment engine fans out *processes*, each of which warms its own
context, while ``cryowire serve`` fans out *threads* over one shared
context — an internal lock keeps the store and the hit/miss counters
consistent under concurrent lookups. (No single-flight: two threads
missing the same key may both compute; the first store wins and both
receive the stored value, so warm lookups still hand back one shared
object.)

Long-running owners (the serve layer) construct the context with
``max_entries`` set, turning the unbounded memo store into a size-capped
LRU: the least-recently-used entry is evicted once the cap is exceeded,
with per-family eviction counters surfaced through :meth:`stats`. The
default stays unbounded — batch CLI runs are finite and re-keying churn
would only slow them down.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

#: Sentinel distinguishing "key absent" from a stored ``None``.
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a context's effectiveness counters."""

    hits: int
    misses: int
    entries: int
    #: Per-family ``(hits, misses)``; the family is the first element of
    #: every memoization key (e.g. ``"repeater_opt"``, ``"gate_delay"``).
    families: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Entries dropped by the LRU cap (0 for unbounded contexts).
    evictions: int = 0
    #: The LRU cap itself (``None`` = unbounded).
    max_entries: Optional[int] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_text(self) -> str:
        cap = f", cap {self.max_entries}" if self.max_entries is not None else ""
        lines = [
            f"tech context: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate, {self.entries} entries, "
            f"{self.evictions} evictions{cap})"
        ]
        for family in sorted(self.families):
            hits, misses = self.families[family]
            lines.append(f"  {family:<16} {hits:>8} hits  {misses:>8} misses")
        return "\n".join(lines)


class TechContext:
    """Memoization store keyed by ``(family, entity..., op.key)`` tuples.

    Keys must be fully value-hashable: the cached physics may outlive
    any particular model object, so keys are built from the frozen
    *specifications* (cards, layers, lengths, :attr:`OperatingPoint.key`)
    rather than object identities.
    """

    def __init__(self, enabled: bool = True, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.enabled = enabled
        self.max_entries = max_entries
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits: Counter = Counter()
        self._misses: Counter = Counter()
        self._evictions: Counter = Counter()
        # Guards the store and every counter: concurrent lookups (the
        # serve layer's worker threads) must neither tear the dict nor
        # double-count stats. The compute itself runs outside the lock.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def memo(self, key: Tuple, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        ``key[0]`` names the cache family for the per-family counters.
        A disabled context always recomputes and counts every lookup as
        a miss (so cold/uncached measurements are still observable).

        Thread-safe, without single-flight: concurrent misses on the
        same key may compute twice, but exactly one value is stored and
        every caller receives that stored value.
        """
        family = key[0]
        if not self.enabled:
            with self._lock:
                self._misses[family] += 1
            return compute()
        with self._lock:
            value = self._store.get(key, _MISSING)
            if value is not _MISSING:
                self._hits[family] += 1
                if self.max_entries is not None:
                    self._store.move_to_end(key)
                return value
            self._misses[family] += 1
        value = compute()
        with self._lock:
            stored = self._store.get(key, _MISSING)
            if stored is not _MISSING:
                # A concurrent thread computed and stored first; serve
                # its value so warm lookups keep sharing one object.
                return stored
            self._store[key] = value
            if self.max_entries is not None:
                while len(self._store) > self.max_entries:
                    evicted, _ = self._store.popitem(last=False)
                    self._evictions[evicted[0]] += 1
        return value

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(self._hits.values())

    @property
    def misses(self) -> int:
        return sum(self._misses.values())

    @property
    def evictions(self) -> int:
        return sum(self._evictions.values())

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> CacheStats:
        with self._lock:
            families = {
                family: (self._hits.get(family, 0), self._misses.get(family, 0))
                for family in set(self._hits) | set(self._misses)
            }
            return CacheStats(
                hits=sum(self._hits.values()),
                misses=sum(self._misses.values()),
                entries=len(self._store),
                families=families,
                evictions=sum(self._evictions.values()),
                max_entries=self.max_entries,
            )

    def clear(self) -> None:
        """Drop every cached entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self._hits.clear()
            self._misses.clear()
            self._evictions.clear()


# ----------------------------------------------------------------------
# The process-wide active context
# ----------------------------------------------------------------------

_ACTIVE = TechContext()


def get_context() -> TechContext:
    """The context the model layers are currently memoizing through."""
    return _ACTIVE


def set_context(context: TechContext) -> TechContext:
    """Install ``context`` as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = context
    return previous


def clear_context() -> None:
    """Reset the active context (a cold start for benchmarking)."""
    _ACTIVE.clear()


@contextmanager
def use_context(context: TechContext) -> Iterator[TechContext]:
    """Temporarily evaluate through ``context`` (e.g. a disabled one)."""
    previous = set_context(context)
    try:
        yield context
    finally:
        set_context(previous)
