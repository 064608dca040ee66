"""Cycle-accurate NoC simulation (the repo's BookSim).

Two execution engines share one result type:

* **router networks** (mesh / cmesh / flattened butterfly) run an
  event-driven packet simulation: every router output port is a serially
  reusable resource; a packet claims ports hop by hop, paying the router
  pipeline, link traversal and flit serialisation, and queueing behind
  earlier packets at contended ports.
* **buses** run a grant-by-grant simulation: pending requests go through
  the matrix arbiter, the winner occupies the bus for its broadcast
  time, and everyone else waits -- which is exactly where the contention
  wall of Figs. 18/21 comes from. Address interleaving (Section 7.1)
  splits traffic across independent ways.

Offered/delivered/saturation accounting is shared with the flit-level
engine through :mod:`repro.noc.measure`, so all engines mean the same
thing by "acceptance" and "saturated".

Latencies are reported in NoC cycles; divide by the design's clock to
compare fabrics running at different frequencies.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Set, Tuple

from repro.noc.arbiter import MatrixArbiter
from repro.noc.bus import BusDesign
from repro.noc.measure import LatencyMeter, LoadLatencyPoint
from repro.noc.topology import LinkRoute, RouterTopology
from repro.noc.traffic import Trace, TrafficPattern
from repro.util.guards import SimulationStalled


class NocSimulator:
    """Load-latency measurement for router networks and buses.

    A simulator materialises each traffic trace -- the packets one
    ``(pattern, injection_rate, seed)`` injects over ``n_cycles`` -- once
    and replays it for every topology and bus it is asked about, so a
    figure sweeping several fabrics over the same traffic generates that
    traffic once.
    """

    def __init__(
        self,
        n_cycles: int = 20_000,
        warmup_fraction: float = 0.2,
        packet_flits: int = 1,
    ):
        if n_cycles < 100:
            raise ValueError("simulation too short to measure anything")
        if not (0.0 <= warmup_fraction < 1.0):
            raise ValueError("warmup fraction must lie in [0, 1)")
        if packet_flits < 1:
            raise ValueError("packets need at least one flit")
        self.n_cycles = n_cycles
        self.warmup = int(n_cycles * warmup_fraction)
        self.packet_flits = packet_flits
        self._traces: Dict[Tuple[TrafficPattern, float, str], Trace] = {}

    def _trace(
        self, pattern: TrafficPattern, injection_rate: float, seed: str
    ) -> Trace:
        """The packets of one traffic trace, drawn once."""
        key = (pattern, injection_rate, seed)
        trace = self._traces.get(key)
        if trace is None:
            trace = pattern.trace(injection_rate, self.n_cycles, seed)
            self._traces[key] = trace
        return trace

    # ------------------------------------------------------------------
    # router networks
    # ------------------------------------------------------------------
    def simulate_router_network(
        self,
        topology: RouterTopology,
        pattern: TrafficPattern,
        injection_rate: float,
        router_cycles: int = 1,
        hops_per_cycle: int = 4,
        seed: str = "noc",
    ) -> LoadLatencyPoint:
        """Event-driven packet simulation over a router topology."""
        if pattern.n_nodes != topology.n_nodes:
            raise ValueError("pattern/topology node counts differ")
        if router_cycles < 1 or hops_per_cycle < 1:
            raise ValueError("router_cycles and hops_per_cycle must be >= 1")

        routes = topology.link_table(hops_per_cycle)
        flits = self.packet_flits
        port_free = [0] * (topology.n_routers * topology.n_routers)
        meter = LatencyMeter(self.warmup)
        horizon = self.n_cycles * 4  # drain window after injection stops

        # Events: (time, seq, inject_time, measured, route, hop_idx). The
        # trace is in cycle order, so appending the injections keeps the
        # list sorted -- already a valid heap.
        events: List[Tuple[int, int, int, bool, LinkRoute, int]] = []
        seq = 0
        for cycle, src, dst in self._trace(pattern, injection_rate, seed):
            measured = meter.offer(cycle)
            route = routes[src][dst]
            if not route:  # same router: injection + ejection only
                if measured:
                    meter.deliver_local(flits)
                continue
            events.append((cycle + 1, seq, cycle, measured, route, 0))
            seq += 1

        while events:
            time, _, inject, measured, route, hop_idx = heapq.heappop(events)
            if time > horizon:
                continue  # stuck in saturation; drop (counts as undelivered)
            port, link = route[hop_idx]
            start = time + router_cycles
            free = port_free[port]
            if free > start:
                start = free
            port_free[port] = start + flits
            arrival = start + link
            hop_idx += 1
            if hop_idx < len(route):
                heapq.heappush(events, (arrival, seq, inject, measured, route, hop_idx))
                seq += 1
            elif measured:
                # Ejection (1 cycle) plus tail-flit serialisation.
                meter.deliver(inject, arrival + 1 + (flits - 1))

        avg_hops = topology.average_hops()
        zero_load = router_cycles * (avg_hops + 1) + avg_hops
        return meter.summarise(injection_rate, zero_load)

    # ------------------------------------------------------------------
    # buses
    # ------------------------------------------------------------------
    def simulate_bus(
        self,
        bus: BusDesign,
        pattern: TrafficPattern,
        injection_rate: float,
        hops_per_cycle: int,
        seed: str = "bus",
    ) -> LoadLatencyPoint:
        """Grant-by-grant bus simulation with the matrix arbiter."""
        if pattern.n_nodes != bus.n_nodes:
            raise ValueError("pattern/bus node counts differ")
        broadcast = bus.broadcast_cycles(hops_per_cycle)
        overhead = bus.arbitration_cycles + bus.control_cycles
        horizon = self.n_cycles * 4

        trace = self._trace(pattern, injection_rate, seed)
        meter = LatencyMeter(self.warmup)
        meter.offer_all(trace.cycle)
        # Split traffic across interleaved ways (by destination id --
        # a stand-in for address bits).
        way_of = trace.dst % bus.interleave_ways
        for way in range(bus.interleave_ways):
            mine = way_of == way
            way_packets = list(
                zip(trace.cycle[mine].tolist(), trace.src[mine].tolist())
            )
            arbiter = MatrixArbiter(bus.n_nodes)
            # Per core, the inject cycles of its admitted requests in
            # arrival order; ``requesters`` is the set of cores with one.
            queues: Dict[int, Deque[int]] = {}
            requesters: Set[int] = set()
            pending = 0
            idx = 0
            now = 0
            while idx < len(way_packets) or pending:
                if now > horizon:
                    # A saturated way would otherwise grind through every
                    # admitted packet serially; nothing past the horizon
                    # can be recorded, so the remainder counts as
                    # undelivered (same semantics as the router engine's
                    # drop path).
                    break
                # Admit every request that is ready by `now`.
                while idx < len(way_packets) and way_packets[idx][0] + overhead <= now:
                    cycle, core = way_packets[idx]
                    queue = queues.get(core)
                    if queue is None:
                        queue = queues[core] = deque()
                    queue.append(cycle)
                    requesters.add(core)
                    pending += 1
                    idx += 1
                if not pending:
                    now = way_packets[idx][0] + overhead
                    continue
                winner = arbiter.grant(requesters)
                queue = queues.get(winner)
                if not queue:
                    # A healthy matrix arbiter always grants one of its
                    # requesters; an unusable grant would loop forever on
                    # the same pending set. Fail loudly with the state.
                    raise SimulationStalled(
                        f"bus arbitration produced an unusable grant "
                        f"({winner!r}) at cycle {now}: {pending} "
                        "requests pending and none can make progress",
                        snapshot={
                            "cycle": now,
                            "winner": winner,
                            "pending_requests": pending,
                            "requesters": sorted(requesters),
                            "admitted": idx,
                            "way_total": len(way_packets),
                        },
                    )
                inject_cycle = queue.popleft()
                pending -= 1
                if not queue:
                    requesters.discard(winner)
                finish = now + broadcast
                if inject_cycle >= self.warmup and finish <= horizon:
                    meter.deliver(inject_cycle, finish)
                now = finish

        zero_load = overhead + broadcast
        return meter.summarise(injection_rate, zero_load)
