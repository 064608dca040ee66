"""Analytic NoC latency models (fast path for the system simulator).

The cycle-accurate simulator measures; these closed forms predict. Both
engines agree at low-to-moderate load (a cross-check in the test suite),
and the system model uses the analytic form so that full-suite
evaluations stay fast.

Router networks: latency = injection + hops * (router + link) + ejection
+ serialisation, plus per-hop M/D/1 queueing driven by channel load.
Buses: latency = arbitration + control + broadcast, plus M/D/1 waiting
for the single shared server whose service time is the broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.noc.bus import BusDesign
from repro.noc.link import WireLinkModel
from repro.noc.router import RouterModel
from repro.noc.topology import RouterTopology, link_cycles
from repro.tech.constants import T_ROOM
from repro.tech.operating_point import (
    OperatingPoint,
    OperatingPointLike,
    as_operating_point,
)

#: Per-port clock penalty of routers beyond the 5-port mesh baseline.
RADIX_CLOCK_PENALTY = 0.04


def n_directed_links(topology: RouterTopology) -> int:
    """Directed router-to-router links actually used by the routing."""
    return topology.n_directed_links()


def analytic_simulator_latency(
    topology: RouterTopology,
    injection_rate: float,
    router_cycles: int = 1,
    link_cycles: int = 1,
    packet_flits: int = 1,
) -> float:
    """Mean packet latency (simulator cycles) from the M/D/1 composition.

    The low-load reference both simulation engines are checked against
    (:mod:`repro.noc.equivalence`): per-hop router and link stages +
    tail serialisation + endpoint machinery, plus per-hop M/D/1 queueing
    at the mean channel load.  Unlike :class:`AnalyticNocModel` this
    speaks raw *simulator* cycles (``router_cycles``/``link_cycles`` per
    hop), so it is directly comparable with
    :class:`repro.noc.simulator.NocSimulator` and
    :class:`repro.noc.flitsim.FlitLevelSimulator` output.

    The two simulators book endpoint overhead differently: the flit
    engine overlaps injection with the first router traversal and pays
    only the ejection cycle; the packet engine charges an explicit
    source-queue cycle on top.  The bound charges the midpoint
    (1.5 cycles), staying equidistant from both conventions.

    ``injection_rate`` is per node, packets/cycle.  Returns ``inf`` at
    or beyond the saturation load.
    """
    if injection_rate < 0:
        raise ValueError("rate must be non-negative")
    avg_hops = topology.average_hops()
    base = 1.5 + avg_hops * (router_cycles + link_cycles) + (packet_flits - 1)
    aggregate = injection_rate * topology.n_nodes
    rho = aggregate * avg_hops * packet_flits / n_directed_links(topology)
    if rho >= 1.0:
        return math.inf
    wait_per_hop = rho * packet_flits / (2.0 * (1.0 - rho))
    return base + avg_hops * wait_per_hop


@dataclass(frozen=True)
class NocLatencyBreakdown:
    """One-way latency decomposition (cycles at the fabric clock)."""

    base_cycles: float
    queueing_cycles: float
    clock_ghz: float

    @property
    def total_cycles(self) -> float:
        return self.base_cycles + self.queueing_cycles

    @property
    def total_ns(self) -> float:
        return self.total_cycles / self.clock_ghz


class IdealNoc:
    """Zero-latency, contention-free fabric (the Fig. 17 reference).

    Implements the same interface as :class:`AnalyticNocModel` so the
    system model can swap it in; it pairs with the snooping protocol,
    matching the paper's 'ideal NoC ... runs with snooping protocol'.
    """

    def __init__(self, clock_ghz: float = 4.0):
        self.clock_ghz = clock_ghz
        self.topology = None
        self.bus = None
        self.name = "ideal_noc"

    def one_way(self, aggregate_rate: float = 0.0) -> NocLatencyBreakdown:
        if aggregate_rate < 0:
            raise ValueError("rate must be non-negative")
        return NocLatencyBreakdown(
            base_cycles=0.0, queueing_cycles=0.0, clock_ghz=self.clock_ghz
        )

    def one_way_ns(self, aggregate_rate: float = 0.0) -> float:
        return 0.0

    def saturation_rate(self) -> float:
        return math.inf


class AnalyticNocModel:
    """Latency and saturation of one NoC fabric at one operating point."""

    def __init__(
        self,
        *,
        topology: Optional[RouterTopology] = None,
        bus: Optional[BusDesign] = None,
        op: OperatingPointLike = None,
        temperature_k: Optional[float] = None,
        vdd_v: Optional[float] = None,
        vth_v: Optional[float] = None,
        router: Optional[RouterModel] = None,
        link_model: Optional[WireLinkModel] = None,
        reference_clock_ghz: float = 4.0,
        packet_flits: int = 1,
    ):
        if (topology is None) == (bus is None):
            raise ValueError("provide exactly one of topology= or bus=")
        # ``op=`` is the canonical way to place the fabric on the
        # (T, V_dd, V_th) surface; the scalar keywords are the legacy shim.
        if op is not None and temperature_k is not None:
            raise TypeError("pass op= or the legacy temperature_k=, not both")
        if op is None:
            op = as_operating_point(temperature_k, vdd_v, vth_v)
        else:
            op = as_operating_point(op, vdd_v, vth_v)
        self.op: OperatingPoint = op
        self.topology = topology
        self.bus = bus
        self.temperature_k = op.temperature_k
        self.packet_flits = packet_flits
        self.links = link_model if link_model is not None else WireLinkModel()
        # Link repeaters sit in their own supply domain; the NoC logic
        # voltage scaling applies to routers, not to the wire links.
        self.hops_per_cycle = self.links.hops_per_cycle(
            OperatingPoint.at(op.temperature_k), reference_clock_ghz
        )
        if topology is not None:
            self.router = router if router is not None else RouterModel()
            # High-radix routers (flattened butterfly, concentrated
            # designs) clock slower: allocation and crossbar complexity
            # grow with port count.
            radix = getattr(topology, "router_radix", 5)
            radix_factor = 1.0 / (1.0 + RADIX_CLOCK_PENALTY * max(radix - 5, 0))
            self.clock_ghz = self.router.frequency_ghz(op) * radix_factor
        else:
            self.router = None
            # A bus has no clocked routers; transfers are timed against
            # the reference (core-side) clock.
            self.clock_ghz = reference_clock_ghz
        # Load-independent zero-load latency, filled lazily.
        self._base_cycles_cache: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        fabric = self.topology.name if self.topology else self.bus.name
        return f"{fabric}@{self.temperature_k:.0f}K"

    # ------------------------------------------------------------------
    # router networks
    # ------------------------------------------------------------------
    def _router_base_cycles(self) -> float:
        if self._base_cycles_cache is not None:
            return self._base_cycles_cache
        assert self.topology is not None and self.router is not None
        avg_hops = self.topology.average_hops()
        # Mean link cycles, weighted over routes (hop lengths may vary).
        total = count = 0
        for src in range(0, self.topology.n_nodes, 7):  # sampled pairs
            for dst in range(self.topology.n_nodes):
                if src == dst:
                    continue
                for _, _, length in self.topology.route(
                    self.topology.router_of(src), self.topology.router_of(dst)
                ):
                    total += link_cycles(length, self.hops_per_cycle)
                    count += 1
        mean_link = total / count if count else 1.0
        per_hop = self.router.pipeline_cycles + mean_link
        self._base_cycles_cache = 2.0 + avg_hops * per_hop + (self.packet_flits - 1)
        return self._base_cycles_cache

    def _router_queueing_cycles(self, aggregate_rate: float) -> float:
        assert self.topology is not None and self.router is not None
        avg_hops = self.topology.average_hops()
        # Channel load: flit-cycles demanded per link per cycle.
        n_links = self.topology.n_directed_links()
        rho = aggregate_rate * avg_hops * self.packet_flits / n_links
        if rho >= 1.0:
            return math.inf
        wait_per_hop = rho * self.packet_flits / (2.0 * (1.0 - rho))
        return avg_hops * wait_per_hop

    # ------------------------------------------------------------------
    # buses
    # ------------------------------------------------------------------
    def _bus_base_cycles(self) -> float:
        assert self.bus is not None
        return float(self.bus.zero_load_latency_cycles(self.hops_per_cycle))

    def _bus_queueing_cycles(self, aggregate_rate: float) -> float:
        assert self.bus is not None
        service = self.bus.broadcast_cycles(self.hops_per_cycle)
        rho = aggregate_rate * service / self.bus.interleave_ways
        if rho >= 1.0:
            return math.inf
        return rho * service / (2.0 * (1.0 - rho))

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def one_way(self, aggregate_rate: float = 0.0) -> NocLatencyBreakdown:
        """One-way packet latency at an aggregate injection rate.

        ``aggregate_rate`` is packets/cycle summed over all nodes, at
        this fabric's clock.
        """
        if aggregate_rate < 0:
            raise ValueError("rate must be non-negative")
        if self.topology is not None:
            base = self._router_base_cycles()
            wait = self._router_queueing_cycles(aggregate_rate)
        else:
            base = self._bus_base_cycles()
            wait = self._bus_queueing_cycles(aggregate_rate)
        return NocLatencyBreakdown(
            base_cycles=base, queueing_cycles=wait, clock_ghz=self.clock_ghz
        )

    def one_way_ns(self, aggregate_rate: float = 0.0) -> float:
        return self.one_way(aggregate_rate).total_ns

    def saturation_rate(self) -> float:
        """Aggregate packets/cycle the fabric can accept."""
        if self.bus is not None:
            return self.bus.saturation_rate(self.hops_per_cycle)
        assert self.topology is not None
        avg_hops = self.topology.average_hops()
        return self.topology.n_directed_links() / (avg_hops * self.packet_flits)
