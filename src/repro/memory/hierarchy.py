"""Memory-hierarchy latency composition (Fig. 16's methodology).

A shared-L3 access is NoC travel plus SRAM time; a miss adds DRAM. How
much NoC travel depends on the protocol:

* **directory** (mesh): requestor -> home slice, directory controller
  service, data back -- two traversals plus endpoint processing on a
  hit; a miss adds the memory-controller leg; dirty-remote data adds the
  forward-to-owner indirection (3 traversals). Every traversal pays
  network-interface cycles and the data response pays serialisation.
* **snooping** (bus): one request broadcast reaches home *and* every
  potential owner simultaneously; the data response is a second bus
  transaction. No indirection and no directory machinery, ever.

Synchronisation amplifies the difference: barriers and contended locks
hammer one hot line, serialising a full coherence round per participant
under a directory, while a snooping bus resolves each handoff with a
single broadcast. That asymmetry (priced in :meth:`barrier_ns` /
:meth:`lock_ns`) is why barrier-heavy PARSEC workloads gain most from
CryoBus in the paper's Fig. 23.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, log2

from repro.memory.cache import CacheDesign
from repro.memory.dram import DramDesign
from repro.noc.latency import AnalyticNocModel


@dataclass(frozen=True)
class L3AccessBreakdown:
    """Latency decomposition of one shared-L3 access (ns)."""

    noc_ns: float
    cache_ns: float
    dram_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.noc_ns + self.cache_ns + self.dram_ns

    @property
    def noc_fraction(self) -> float:
        total = self.total_ns
        return self.noc_ns / total if total > 0 else 0.0


@dataclass(frozen=True)
class LoadLatencies:
    """What one CPI stack prices at one NoC load (ns)."""

    l3_hit: L3AccessBreakdown
    l3_miss: L3AccessBreakdown
    cache_to_cache: L3AccessBreakdown
    barrier_ns: float
    lock_ns: float


#: Payload of a data response in flits (64 B line over a 64-bit fabric).
DATA_FLITS = 8

#: Network-interface cycles per traversal on a router fabric (injection
#: queue, protocol message formatting). Bus transactions already include
#: their signalling in the arbitration overhead.
NI_CYCLES = 4

#: Directory-controller service per transaction at the home node
#: (directory FSM, MSHR allocation, scheduling) -- in fabric cycles.
HOME_SERVICE_CYCLES = 20

#: Average number of cores contending for a hot lock line.
LOCK_CONTENDERS = 6


class MemoryHierarchy:
    """Latency model of one (caches, DRAM, NoC, protocol) combination."""

    def __init__(
        self,
        caches: CacheDesign,
        dram: DramDesign,
        noc: AnalyticNocModel,
        protocol: str,
    ):
        if protocol not in ("directory", "snoop"):
            raise ValueError("protocol must be 'directory' or 'snoop'")
        if protocol == "snoop" and getattr(noc, "topology", None) is not None:
            raise ValueError("snooping requires a bus (or ideal) fabric")
        self.caches = caches
        self.dram = dram
        self.noc = noc
        self.protocol = protocol

    # ------------------------------------------------------------------
    @cached_property
    def _home_service_ns(self) -> float:
        """Directory-controller occupancy at the home node."""
        if self.protocol != "directory":
            return 0.0
        if self.noc.one_way(0.0).base_cycles == 0:
            return 0.0  # ideal fabric: no protocol machinery either
        return HOME_SERVICE_CYCLES / self.noc.clock_ghz

    def at_load(
        self,
        load: float = 0.0,
        n_cores: int = 1,
        contenders: int = LOCK_CONTENDERS,
    ) -> LoadLatencies:
        """Every latency a CPI stack prices at NoC load ``load``.

        One NoC traversal at ``load`` gives both transfers: a request
        (1 flit) and a data response (:data:`DATA_FLITS`), each a
        one-way route (mesh) or a bus transaction. :meth:`l3_hit`,
        :meth:`l3_miss`, :meth:`cache_to_cache`, :meth:`barrier_ns` and
        :meth:`lock_ns` are views of this one method.
        """
        if contenders < 1:
            raise ValueError("need at least one contender")
        traversal = self.noc.one_way(load)
        ni_cycles = 0.0
        if self.protocol == "directory" and traversal.base_cycles > 0:
            ni_cycles = float(NI_CYCLES)
        total_ns, clock_ghz = traversal.total_ns, self.noc.clock_ghz
        request = total_ns + ni_cycles / clock_ghz
        data = total_ns + (float(DATA_FLITS - 1) + ni_cycles) / clock_ghz
        caches = self.caches
        if self.protocol == "directory":
            home = self._home_service_ns
            # Tag + directory-state access: roughly half a slice access.
            lookup = 0.5 * caches.l3_latency_ns
            # A miss goes requestor -> home, home -> memory controller,
            # data back; dirty-remote data goes requestor -> home
            # (service + lookup), home -> owner forward, owner ->
            # requestor data.
            indirect = 2 * request + data + home
            hit = L3AccessBreakdown(request + data + home, lookup + caches.l3_latency_ns)
            miss = L3AccessBreakdown(indirect, lookup, self.dram.random_access_ns)
            c2c = L3AccessBreakdown(indirect, lookup + caches.l2_latency_ns)
            round_ns = c2c.total_ns
            per_core, lock = 0.75 * round_ns, contenders * round_ns
        else:
            # The broadcast reaches home and the owner at once; a miss
            # only checks the tag.
            hit = L3AccessBreakdown(request + data, caches.l3_latency_ns)
            miss = L3AccessBreakdown(
                request + data, 0.5 * caches.l3_latency_ns, self.dram.random_access_ns
            )
            c2c = L3AccessBreakdown(request + data, caches.l2_latency_ns)
            per_core, lock = 0.5 * request, contenders * request
        barrier = 0.0
        if n_cores >= 2:
            barrier = n_cores * per_core + 2.0 * ceil(log2(n_cores)) * request
        return LoadLatencies(hit, miss, c2c, barrier, lock)

    # ------------------------------------------------------------------
    def l3_hit(self, load: float = 0.0) -> L3AccessBreakdown:
        """L2 miss that hits in the shared L3 (clean data at home)."""
        return self.at_load(load).l3_hit

    def l3_miss(self, load: float = 0.0) -> L3AccessBreakdown:
        """L2 miss that also misses in L3 and goes to DRAM."""
        return self.at_load(load).l3_miss

    def cache_to_cache(self, load: float = 0.0) -> L3AccessBreakdown:
        """L2 miss served by another core's dirty copy."""
        return self.at_load(load).cache_to_cache

    # ------------------------------------------------------------------
    # synchronisation
    # ------------------------------------------------------------------
    def barrier_ns(self, n_cores: int, load: float = 0.0) -> float:
        """Cost of one global barrier episode.

        Under a directory, every arriving core performs a serialised
        coherence round on the barrier line (invalidate the previous
        holder, fetch, update); on a snooping bus each arrival is one
        broadcast and the release is observed by everyone at once.
        """
        return self.at_load(load, n_cores).barrier_ns

    def lock_ns(self, load: float = 0.0, contenders: int = LOCK_CONTENDERS) -> float:
        """Cost of one contended lock acquisition episode.

        A hot lock bounces between ``contenders`` caches; each handoff
        is a full dirty-remote round under a directory but a single
        broadcast on a snooping bus.
        """
        return self.at_load(load, contenders=contenders).lock_ns
