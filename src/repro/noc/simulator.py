"""Cycle-accurate NoC simulation (the repo's BookSim).

Two execution engines share one result type:

* **router networks** (mesh / cmesh / flattened butterfly) run a
  packet simulation: every router output port is a serially reusable
  resource; a packet claims ports hop by hop, paying the router
  pipeline, link traversal and flit serialisation, and queueing behind
  earlier packets at contended ports.
* **buses** run a grant-by-grant simulation: pending requests go through
  the matrix arbiter, the winner occupies the bus for its broadcast
  time, and everyone else waits -- which is exactly where the contention
  wall of Figs. 18/21 comes from. Address interleaving (Section 7.1)
  splits traffic across independent ways.

Offered/delivered/saturation accounting is shared with the hybrid
engine through :mod:`repro.noc.measure`, so both engines mean the same
thing by "acceptance" and "saturated".

Latencies are reported in NoC cycles; divide by the design's clock to
compare fabrics running at different frequencies.

How the router engine gets its answer
-------------------------------------
The answer is defined by an event loop. It pops hop events from a heap
in (time, seq) order, where seq counts pushes: every injection first, in
trace order, then each next hop as it is scheduled. A hop starts at the
later of its event time plus ``router_cycles`` and the end (start plus
``packet_flits``) of the hop before it at its port in (time, seq) order.
The packet's next hop has its event time ``link`` cycles after that
start, and the packet is delivered ``packet_flits`` cycles after its
last link. An event past the horizon is dropped with the rest of its
packet. By induction over event time, the loop's schedule is the only
one in which every hop obeys this rule.

Most packets never meet another. Hop ``h`` of a packet's
contention-free schedule has event time ``inject + 1 + h * router_cycles
+ sum(link[:h])``. So the engine

1. computes every packet's contention-free schedule at once, as arrays;
2. sorts the hops within the horizon by (port, event time, start). A hop
   collides with the hop before it at its port if it starts less than
   ``packet_flits`` cycles later or shares its event time, and both
   packets of such a pair *collide*;
3. replays the colliding packets through the event loop on their own,
   in injection order, puts their hops in place of their contention-free
   ones and tests again. An outside packet that now collides joins the
   replay, until none does. A replay that would hold more than a quarter
   of the packets that leave their router replays all of them instead:
   that is the event loop itself.

Why that is exact. A replay keeps the replayed hops in the loop's
relative (time, seq) order, because injections still come before every
scheduled hop and hops are scheduled in processing order. In a schedule
that passes the test, only replayed hops share an event time at a port,
and two hops next to each other at a port start at least
``packet_flits`` apart unless both are replayed. So an outside hop
starts at its event time plus ``router_cycles``, after the hop before it
has ended. A replayed hop that waited in its replay waited for the
replayed hop before it at its port, and no outside hop can sit between
the two: starts rise by at least ``packet_flits`` from each hop to the
next across it, so that outside hop would end after the replayed hop
started, and the test would have failed. Every hop obeys the rule, so
the schedule is the loop's. Hops with equal sort keys collide with each
other in any order and compare alike with their neighbours, so the order
``np.argsort`` gives to equal keys cannot change the answer.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.noc.arbiter import MatrixArbiter
from repro.noc.bus import BusDesign
from repro.noc.measure import LatencyMeter, LoadLatencyPoint
from repro.noc.topology import LinkTable, RouterTopology
from repro.noc.traffic import Trace, TrafficPattern
from repro.util.guards import SimulationStalled

#: A replay set that grows past this share of the packets leaving their
#: router is replaced by a replay of all of them.
REPLAY_SHARE_LIMIT = 0.25


def _contention_free(
    table: LinkTable,
    inject: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    router_cycles: int,
    flits: int,
    horizon: int,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Every packet's contention-free schedule: its hops within the
    horizon as (packet, port, event time, start) arrays, and per packet
    its delivery cycle, or -1 if an event falls past the horizon. Packet
    ``p`` takes hops ``first[p] .. first[p] + count[p] - 1`` of
    ``table``."""
    packet = np.repeat(np.arange(len(inject), dtype=np.int32), count)
    packet_hop0 = np.cumsum(count, dtype=np.int32) - count
    hop = np.arange(len(packet), dtype=np.int32) - packet_hop0[packet]
    index = first[packet] + hop
    link = table.link[index]
    # Links before each hop of its packet, from one running sum over
    # every packet's hops. Should the sum wrap, the difference within
    # one packet is still exact.
    link_before = np.cumsum(link, dtype=np.int32) - link
    link_before -= link_before[packet_hop0[packet]]
    time = inject[packet] + 1 + hop * router_cycles + link_before
    last = packet_hop0 + count - 1
    done = np.where(
        time[last] <= horizon, time[last] + router_cycles + link[last] + flits, -1
    )
    within = time <= horizon
    time = time[within]
    hops = (packet[within], table.port[index[within]], time, time + router_cycles)
    return hops, done


def _colliding(
    packet: np.ndarray, port: np.ndarray, time: np.ndarray, start: np.ndarray, flits: int
) -> np.ndarray:
    """The packets of a schedule's colliding hops, given per hop its
    packet, port, event time and start. In (port, event time, start)
    order, a hop collides with the hop before it at its port if it starts
    less than ``flits`` cycles later or shares its event time; both
    packets of such a pair are returned."""
    if len(port) < 2:
        return packet[:0]
    # (port, event time, start) packed into one int64 sort key: ports
    # times cycles times cycles of one simulation stay far below 2**63.
    wait = start - time
    key = port.astype(np.int64)
    key *= int(time.max()) + 1
    key += time
    key *= int(wait.max()) + 1
    key += wait
    order = np.argsort(key)
    port, time, start = port[order], time[order], start[order]
    hit = (port[1:] == port[:-1]) & (
        (start[1:] - start[:-1] < flits) | (time[1:] == time[:-1])
    )
    packet = packet[order]
    return np.concatenate((packet[1:][hit], packet[:-1][hit]))


def _event_loop(
    members: np.ndarray,
    inject: np.ndarray,
    first: np.ndarray,
    count: np.ndarray,
    table: LinkTable,
    router_cycles: int,
    flits: int,
    horizon: int,
    record: bool,
) -> Tuple[List[int], List[int], Optional[List[Tuple[int, int, int, int]]]]:
    """The event loop over ``members`` (packet ids in injection order)
    alone. Packet ``p``'s route is hops ``first[p] .. first[p] +
    count[p] - 1`` of ``table``. Returns the delivered members (by position in
    ``members``), their delivery cycles and, if ``record``, every hop as
    (position, port, time, start)."""
    n = len(members)
    # The members' hops, member after member: member i's are
    # ``at_hop[i] .. last[i] - 1`` of ``ports``/``links``.
    count = count[members]
    hop0 = np.cumsum(count) - count
    index = np.repeat(first[members] - hop0, count) + np.arange(int(count.sum()))
    ports, links = table.port[index].tolist(), table.link[index].tolist()
    # An event is one int, ``time << shift | seq``, so the heap orders
    # by (time, seq) comparing ints; ``at_hop[seq]`` and ``member[seq]``
    # say whose hop it is. Injections are in cycle order, so the list is
    # sorted -- already a valid heap.
    shift = (len(ports) + n).bit_length()  # seq < 2**shift
    events = (((inject[members].astype(np.int64) + 1) << shift) | np.arange(n)).tolist()
    at_hop = hop0.tolist()
    last = (hop0 + count).tolist()
    member = list(range(n))
    mask = (1 << shift) - 1
    limit = (horizon + 1) << shift
    seq = n
    port_free = [0] * table.n_ports
    done_member: List[int] = []
    done_cycle: List[int] = []
    hops: Optional[List[Tuple[int, int, int, int]]] = [] if record else None
    pop, push = heapq.heappop, heapq.heappush
    while events:
        event = pop(events)
        if event >= limit:
            break  # past the horizon: this and every later event drop
        time = event >> shift
        hop = at_hop[event & mask]
        i = member[event & mask]
        port = ports[hop]
        start = time + router_cycles
        free = port_free[port]
        if free > start:
            start = free
        port_free[port] = start + flits
        if hops is not None:
            hops.append((i, port, time, start))
        arrival = start + links[hop]
        hop += 1
        if hop < last[i]:
            push(events, arrival << shift | seq)
            at_hop.append(hop)
            member.append(i)
            seq += 1
        else:
            # Ejection (1 cycle) plus tail-flit serialisation.
            done_member.append(i)
            done_cycle.append(arrival + flits)
    return done_member, done_cycle, hops


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
        """Packet simulation over a router topology: the event loop's
        answer, replaying only packets that meet (see the module
        docstring)."""
        if pattern.n_nodes != topology.n_nodes:
            raise ValueError("pattern/topology node counts differ")
        if router_cycles < 1 or hops_per_cycle < 1:
            raise ValueError("router_cycles and hops_per_cycle must be >= 1")

        table = topology.link_table(hops_per_cycle)
        trace = self._trace(pattern, injection_rate, seed)
        flits = self.packet_flits
        horizon = self.n_cycles * 4  # drain window after injection stops
        meter = LatencyMeter(self.warmup)
        meter.offer_all(trace.cycle)
        pair = trace.src * topology.n_nodes + trace.dst
        count = table.count[pair]
        local = count == 0
        for _ in range(np.count_nonzero(trace.cycle[local] >= self.warmup)):
            meter.deliver_local(flits)  # same router: no fabric traversal

        leaving = ~local
        inject = trace.cycle[leaving].astype(np.int32)
        first = table.offset[pair[leaving]]
        count = count[leaving]
        n_packets = len(inject)

        free, free_done = _contention_free(
            table, inject, first, count, router_cycles, flits, horizon
        )
        replayed = np.zeros(n_packets, dtype=bool)
        done: np.ndarray = np.empty(0, dtype=np.intp)  # replayed deliveries
        done_cycle: List[int] = []
        joining = _colliding(*free, flits)
        while len(joining):
            replayed[joining] = True
            record = int(np.count_nonzero(replayed)) <= REPLAY_SHARE_LIMIT * n_packets
            if not record:
                replayed[:] = True
            members = np.flatnonzero(replayed)
            done_member, done_cycle, hops = _event_loop(
                members, inject, first, count, table, router_cycles, flits, horizon, record
            )
            done = members[done_member]
            if hops is None:
                break
            # The replayed hops in place of the contention-free ones.
            outside = ~replayed[free[0]]
            again = np.array(hops, dtype=np.int32).reshape(-1, 4).T
            again[0] = members[again[0]]
            combined = [np.concatenate((f[outside], a)) for f, a in zip(free, again)]
            joining = _colliding(*combined, flits)
            joining = joining[~replayed[joining]]

        measured = inject >= self.warmup
        kept = (free_done >= 0) & measured & ~replayed
        meter.deliver_all((free_done[kept] - inject[kept]).tolist())
        kept = measured[done]
        latency = np.array(done_cycle, dtype=np.int64) - inject[done]
        meter.deliver_all(latency[kept].tolist())

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
        warmup = self.warmup

        trace = self._trace(pattern, injection_rate, seed)
        meter = LatencyMeter(warmup)
        meter.offer_all(trace.cycle)
        # Split traffic across interleaved ways (by destination id --
        # a stand-in for address bits).
        way_of = trace.dst % bus.interleave_ways
        latencies: List[int] = []
        for way in range(bus.interleave_ways):
            mine = way_of == way
            cycles = trace.cycle[mine].tolist()
            cores = trace.src[mine].tolist()
            total = len(cycles)
            arbiter = MatrixArbiter(bus.n_nodes)
            request, grant = arbiter.request, arbiter.grant
            # Per core, the inject cycles of its admitted requests in
            # arrival order; a core requests the bus while its queue is
            # not empty.
            queues: List[Deque[int]] = [deque() for _ in range(bus.n_nodes)]
            pending = 0
            idx = 0
            now = 0
            while idx < total or pending:
                if now > horizon:
                    # A saturated way would otherwise grind through every
                    # admitted packet serially; nothing past the horizon
                    # can be recorded, so the remainder counts as
                    # undelivered (same semantics as the router engine's
                    # drop path).
                    break
                # Admit every request that is ready by `now`.
                ready = now - overhead
                while idx < total and cycles[idx] <= ready:
                    queue = queues[cores[idx]]
                    if not queue:
                        request(cores[idx])
                    queue.append(cycles[idx])
                    pending += 1
                    idx += 1
                if not pending:
                    now = cycles[idx] + overhead
                    continue
                winner = grant()
                if winner is None:
                    # A healthy arbiter always grants one of its
                    # requesters; no grant would loop forever on the same
                    # pending set. Fail loudly with the state.
                    raise SimulationStalled(
                        f"bus arbitration produced no grant at cycle {now}: "
                        f"{pending} requests pending and none can make "
                        "progress",
                        snapshot={
                            "cycle": now,
                            "winner": winner,
                            "pending_requests": pending,
                            "requesters": [c for c, q in enumerate(queues) if q],
                            "admitted": idx,
                            "way_total": total,
                        },
                    )
                queue = queues[winner]
                inject_cycle = queue.popleft()
                pending -= 1
                if queue:
                    request(winner)
                now += broadcast
                if inject_cycle >= warmup and now <= horizon:
                    latencies.append(now - inject_cycle)
        meter.deliver_all(latencies)

        zero_load = overhead + broadcast
        return meter.summarise(injection_rate, zero_load)
