"""Hybrid CryoBus for 256 cores (Section 7.3, Fig. 26).

Four 64-core CryoBus clusters hang off a small global mesh; coherence
becomes directory-based at the global level (the snooping protocol stays
cluster-local). A packet's journey is:

    local CryoBus transaction
    -> (remote destination only) global mesh traversal
    -> remote CryoBus transaction

Both an analytic latency model (M/D/1 per stage) and a grant-by-grant
simulation (via the resource-pipeline engine) are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.noc.bus import BusDesign, CryoBusDesign
from repro.noc.measure import LatencyMeter, LoadLatencyPoint
from repro.noc.traffic import TrafficPattern


@dataclass(frozen=True)
class HybridCryoBus:
    """4 x CryoBus clusters + a global mesh (256 cores total)."""

    n_cores: int = 256
    n_clusters: int = 4
    #: Cycles for one global-mesh leg between cluster routers (the 2x2
    #: global mesh spans half the (larger) die; links are 77 K global
    #: wires, routers are 77 K routers).
    global_leg_cycles: int = 3
    #: Interleave ways of each local CryoBus.
    interleave_ways: int = 1

    def __post_init__(self) -> None:
        if self.n_cores % self.n_clusters:
            raise ValueError("clusters must evenly divide cores")

    @property
    def cores_per_cluster(self) -> int:
        return self.n_cores // self.n_clusters

    def local_bus(self) -> BusDesign:
        return CryoBusDesign(self.cores_per_cluster, self.interleave_ways)

    def cluster_of(self, core: int) -> int:
        if not (0 <= core < self.n_cores):
            raise ValueError(f"core {core} out of range")
        return core // self.cores_per_cluster

    # ------------------------------------------------------------------
    # analytic model
    # ------------------------------------------------------------------
    def zero_load_latency_cycles(
        self, hops_per_cycle: int, remote_fraction: Optional[float] = None
    ) -> float:
        """Mean uncontended latency across local and remote packets."""
        if remote_fraction is None:
            remote_fraction = 1.0 - 1.0 / self.n_clusters  # uniform traffic
        bus = self.local_bus()
        local = bus.zero_load_latency_cycles(hops_per_cycle)
        # The remote-cluster arbitration overlaps the global-mesh leg
        # (the cluster gateway requests the remote bus ahead of the
        # packet's arrival), so only broadcast + control remain exposed.
        remote = (
            local
            + self.global_leg_cycles
            + bus.zero_load_latency_cycles(hops_per_cycle)
            - bus.arbitration_cycles
        )
        return (1.0 - remote_fraction) * local + remote_fraction * remote

    def mean_latency_cycles(
        self,
        aggregate_rate: float,
        hops_per_cycle: int,
        remote_fraction: Optional[float] = None,
    ) -> float:
        """Analytic latency at an aggregate injection (packets/cycle).

        Each cluster bus serves its local injections plus incoming
        remote traffic; M/D/1 waiting applies per bus visit.
        """
        if remote_fraction is None:
            remote_fraction = 1.0 - 1.0 / self.n_clusters
        bus = self.local_bus()
        service = bus.broadcast_cycles(hops_per_cycle)
        per_cluster = aggregate_rate / self.n_clusters
        # Bus visits per packet: 1 local + (remote ? 1 remote bus).
        visits = 1.0 + remote_fraction
        rho = per_cluster * visits * service / bus.interleave_ways
        if rho >= 1.0:
            return math.inf
        wait = rho * service / (2.0 * (1.0 - rho))
        return self.zero_load_latency_cycles(hops_per_cycle, remote_fraction) + visits * wait

    def saturation_rate(self, hops_per_cycle: int) -> float:
        """Aggregate packets/cycle at saturation (uniform traffic)."""
        bus = self.local_bus()
        service = bus.broadcast_cycles(hops_per_cycle)
        visits = 1.0 + (1.0 - 1.0 / self.n_clusters)
        return self.n_clusters * bus.interleave_ways / (service * visits)

    # ------------------------------------------------------------------
    # simulation (resource-pipeline: local bus -> mesh leg -> remote bus)
    # ------------------------------------------------------------------
    def simulate(
        self,
        pattern: TrafficPattern,
        injection_rate: float,
        hops_per_cycle: int,
        n_cycles: int = 20_000,
        warmup_fraction: float = 0.2,
    ) -> LoadLatencyPoint:
        """Grant-by-grant simulation of the hybrid fabric."""
        if pattern.n_nodes != self.n_cores:
            raise ValueError("pattern/hybrid node counts differ")
        import heapq

        bus = self.local_bus()
        service = bus.broadcast_cycles(hops_per_cycle)
        overhead = bus.arbitration_cycles + bus.control_cycles
        warmup = int(n_cycles * warmup_fraction)
        horizon = n_cycles * 4

        way_free: Dict[Tuple[int, int], int] = {}

        # Discrete-event processing in ready-time order: each event is
        # one bus acquisition. Pushed ready times never precede the
        # popped event's time, so a single pass over the heap is a valid
        # simulation (no future reservation can block an earlier-ready
        # packet, unlike naive inject-order processing).
        events: List[Tuple[int, int, int, int, int, int]] = []
        # (ready, seq, inject, way, cluster, remote_cluster_or_-1)
        seq = 0
        trace = pattern.trace(injection_rate, n_cycles, "hybrid")
        meter = LatencyMeter(warmup)
        meter.offer_all(trace.cycle)
        for cycle, src, dst in trace:
            src_cl, dst_cl = self.cluster_of(src), self.cluster_of(dst)
            way = dst % bus.interleave_ways
            remote = dst_cl if dst_cl != src_cl else -1
            heapq.heappush(events, (cycle + overhead, seq, cycle, way, src_cl, remote))
            seq += 1

        while events:
            ready, _, inject, way, cluster, remote = heapq.heappop(events)
            if ready > horizon:
                continue
            key = (cluster, way)
            finish = max(ready, way_free.get(key, 0)) + service
            way_free[key] = finish
            if remote >= 0:
                # Remote arbitration overlaps the mesh leg; only the
                # cross-link control cycle remains exposed.
                next_ready = finish + self.global_leg_cycles + bus.control_cycles
                heapq.heappush(
                    events, (next_ready, seq, inject, way, remote, -1)
                )
                seq += 1
            elif inject >= warmup and finish <= horizon:
                meter.deliver(inject, finish)

        zero_load = self.zero_load_latency_cycles(hops_per_cycle)
        return meter.summarise(injection_rate, zero_load)
