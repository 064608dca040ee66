"""Flit-level NoC simulation: wormhole switching, VCs, credit flow control.

The packet-level engine in :mod:`repro.noc.simulator` reserves whole
output ports; this engine models what BookSim models -- flits moving
through virtual channels with finite buffers and credit-based
backpressure, a separable (input-first, round-robin) switch allocator,
and per-hop link traversal. It exists to validate that the packet-level
shortcuts do not distort the load-latency curves the paper's analysis
rests on; the cross-check lives in :mod:`repro.noc.equivalence` and the
test suite.

The router microarchitecture follows the paper's baseline (Table 4): a
configurable pipeline depth (1-cycle aggressive or 3-cycle realistic),
4 VCs per input with 3-flit buffers, XY (or topology-provided) routing.

The hot loop is organised around an **active-port worklist**: only input
ports that hold at least one buffered flit are visited for VC and switch
allocation, idle stretches between events are skipped outright, and
per-port state lives in indexed lists rather than per-cycle dict scans.
At unsaturated loads the allocation decisions (and therefore every
recorded latency) are identical to a full every-port-every-cycle scan;
saturated points additionally stop draining as soon as the running mean
settles the saturation verdict, bounding their cost at O(n_cycles)
instead of O(drain horizon).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.noc.measure import LatencyMeter, LoadLatencyPoint
from repro.noc.topology import RouterTopology
from repro.noc.traffic import TrafficPattern
from repro.util.guards import SimulationStalled

#: Injection/ejection pseudo-port index.
LOCAL_PORT = -1

#: Watchdog floor: never call a network stalled in fewer cycles than
#: this, however small the topology (keeps bursty low-load runs safe).
MIN_STALL_CYCLES = 1024

# Flits are plain tuples in the hot loop:
# (dst_router, is_head, is_tail, inject_cycle, measured)
_DST, _HEAD, _TAIL, _INJECT, _MEASURED = range(5)


class _InPort:
    """One router input port: per-VC buffers plus allocation state."""

    __slots__ = ("router", "upstream", "bufs", "assign", "rr_sw")

    def __init__(self, router: int, upstream: int, n_vcs: int):
        self.router = router
        self.upstream = upstream
        self.bufs: List[Deque[tuple]] = [deque() for _ in range(n_vcs)]
        #: Per input VC: (out_port, out_vc) once the head won VC
        #: allocation, or None.
        self.assign: List[Optional[Tuple[int, int]]] = [None] * n_vcs
        self.rr_sw = 0


class _OutPort:
    """Credit and ownership state of one (router, downstream) output."""

    __slots__ = ("credits", "owner", "rr_vc")

    def __init__(self, n_vcs: int, buffer_flits: int):
        self.credits: List[int] = [buffer_flits] * n_vcs
        #: Per output VC: the ((router, upstream), in_vc) input VC that
        #: holds it, or None once the tail flit released it.
        self.owner: List[Optional[Tuple[Tuple[int, int], int]]] = [None] * n_vcs
        self.rr_vc = 0


class FlitLevelSimulator:
    """Cycle-driven flit-level simulation over a router topology."""

    def __init__(
        self,
        topology: RouterTopology,
        n_vcs: int = 4,
        buffer_flits: int = 3,
        router_cycles: int = 1,
        link_cycles: int = 1,
        packet_flits: int = 1,
    ):
        if n_vcs < 1 or buffer_flits < 1:
            raise ValueError("need at least one VC and one buffer slot")
        if router_cycles < 1 or link_cycles < 1:
            raise ValueError("router and link stages take at least a cycle")
        if packet_flits < 1:
            raise ValueError("packets need at least one flit")
        self.topology = topology
        self.n_vcs = n_vcs
        self.buffer_flits = buffer_flits
        self.router_cycles = router_cycles
        self.link_cycles = link_cycles
        self.packet_flits = packet_flits
        self._next_port_cache: Dict[Tuple[int, int], int] = {}
        #: State-size counters of the most recent :meth:`simulate` call
        #: (regression guard: credit/ownership state must not grow with
        #: traffic, and must be fully released once the network drains).
        self.last_run_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _next_router(self, router: int, dst_router: int) -> int:
        """Next-hop router towards ``dst_router`` (LOCAL if arrived)."""
        if router == dst_router:
            return LOCAL_PORT
        key = (router, dst_router)
        cached = self._next_port_cache.get(key)
        if cached is None:
            route = self.topology.route(router, dst_router)
            cached = route[0][1]
            self._next_port_cache[key] = cached
        return cached

    # ------------------------------------------------------------------
    def simulate(
        self,
        pattern: TrafficPattern,
        injection_rate: float,
        n_cycles: int = 4000,
        warmup_fraction: float = 0.2,
        seed: str = "flit",
        drain_cycles: Optional[int] = None,
        stall_cycles: Optional[int] = None,
    ) -> LoadLatencyPoint:
        """Run the flit-level simulation for one load point.

        ``stall_cycles`` tunes the no-forward-progress watchdog: if the
        network holds flits for that many consecutive cycles without a
        single packet ejecting, the run aborts with
        :class:`~repro.util.guards.SimulationStalled` (carrying a state
        snapshot) instead of spinning to the horizon. The default scales
        with the zero-load latency and is far beyond any legitimate
        backlog a finite-buffer network can sit on.
        """
        if pattern.n_nodes != self.topology.n_nodes:
            raise ValueError("pattern/topology node counts differ")
        if n_cycles < 100:
            raise ValueError("simulation too short to measure anything")
        if stall_cycles is not None and stall_cycles < 1:
            raise ValueError("stall_cycles must be >= 1")
        warmup = int(n_cycles * warmup_fraction)
        drain = drain_cycles if drain_cycles is not None else 3 * n_cycles
        meter = LatencyMeter(warmup)
        n_vcs = self.n_vcs
        packet_flits = self.packet_flits
        hop_cycles = self.router_cycles + self.link_cycles
        zero_load = self.topology.average_hops() * hop_cycles + packet_flits

        # Pre-generate injections, grouped by source router.
        pending: Dict[int, Deque[Tuple[int, int, bool]]] = {}
        rank: Dict[int, int] = {}  # router -> first-appearance order
        router_of = self.topology.router_of
        for cycle, src, dst in pattern.trace(injection_rate, n_cycles, seed):
            measured = meter.offer(cycle)
            src_router = router_of(src)
            dst_router = router_of(dst)
            if src_router == dst_router:
                # Local delivery: injection + ejection, no fabric hop --
                # still offered, still delivered (the packet engine and
                # acceptance accounting both count it).
                if measured:
                    meter.deliver_local(packet_flits)
                continue
            queue = pending.get(src_router)
            if queue is None:
                queue = pending[src_router] = deque()
                rank[src_router] = len(rank)
            queue.append((cycle, dst_router, measured))

        # Injection worklist: (next ready cycle, source order, router).
        inj_heap: List[Tuple[int, int, int]] = [
            (queue[0][0], rank[router], router)
            for router, queue in pending.items()
        ]
        heapq.heapify(inj_heap)

        # Indexed port state. Ports are created on first use, in the
        # same order traffic first touches them; the worklist is always
        # walked in creation order, which is what arbitrates allocation
        # priority between ports.
        ports: List[_InPort] = []
        port_ids: Dict[Tuple[int, int], int] = {}
        out_ports: Dict[Tuple[int, int], _OutPort] = {}
        #: Input ports holding at least one buffered flit.
        active: set = set()
        # In-flight link transfers: arrival_cycle -> list of moves, with
        # a heap over the arrival cycles for idle-stretch skipping.
        in_flight: Dict[int, List[Tuple[Tuple[int, int], int, tuple]]] = {}
        arrival_heap: List[int] = []

        def port_id(router: int, upstream: int) -> int:
            key = (router, upstream)
            pid = port_ids.get(key)
            if pid is None:
                pid = port_ids[key] = len(ports)
                ports.append(_InPort(router, upstream, n_vcs))
            return pid

        deliver = meter.deliver
        next_router = self._next_router
        buffer_flits = self.buffer_flits
        horizon = n_cycles + drain
        cycle = 0

        # No-forward-progress watchdog: ``stall_anchor`` marks the last
        # cycle a packet ejected (or the network went from empty to
        # holding work). It only ticks while flits are buffered or on a
        # link -- long idle gaps between injections never trip it.
        stall_limit = (
            stall_cycles
            if stall_cycles is not None
            else max(MIN_STALL_CYCLES, 16 * int(zero_load))
        )
        stall_anchor: Optional[int] = None

        while cycle < horizon:
            # 1. Deliver link arrivals scheduled for this cycle.
            if arrival_heap and arrival_heap[0] == cycle:
                heapq.heappop(arrival_heap)
                for in_key, vc, flit in in_flight.pop(cycle):
                    pid = port_ids.get(in_key)
                    if pid is None:
                        pid = port_id(*in_key)
                    ports[pid].bufs[vc].append(flit)
                    active.add(pid)

            # 2. Source injection: the head-of-queue packet enters a
            #    free injection VC (one packet per router per cycle).
            while inj_heap and inj_heap[0][0] <= cycle:
                _, order, router = heapq.heappop(inj_heap)
                queue = pending[router]
                pid = port_id(router, LOCAL_PORT)
                port = ports[pid]
                for vc in range(n_vcs):
                    if port.bufs[vc] or port.assign[vc] is not None:
                        continue
                    inject_cycle, dst_router, measured = queue.popleft()
                    buf = port.bufs[vc]
                    for flit_idx in range(packet_flits):
                        buf.append(
                            (
                                dst_router,
                                flit_idx == 0,
                                flit_idx == packet_flits - 1,
                                inject_cycle,
                                measured,
                            )
                        )
                    active.add(pid)
                    break
                if queue:
                    head = queue[0][0]
                    heapq.heappush(
                        inj_heap,
                        (head if head > cycle else cycle + 1, order, router),
                    )
                else:
                    del pending[router]

            if active:
                worklist = sorted(active)

                # 3. VC allocation: head flits acquire a downstream VC.
                for pid in worklist:
                    port = ports[pid]
                    router = port.router
                    bufs = port.bufs
                    assign = port.assign
                    for vc in range(n_vcs):
                        buf = bufs[vc]
                        if assign[vc] is not None or not buf:
                            continue
                        head = buf[0]
                        if not head[_HEAD]:
                            continue
                        next_hop = next_router(router, head[_DST])
                        if next_hop == LOCAL_PORT:
                            assign[vc] = (LOCAL_PORT, 0)
                            continue
                        out = out_ports.get((router, next_hop))
                        if out is None:
                            out = out_ports[(router, next_hop)] = _OutPort(
                                n_vcs, buffer_flits
                            )
                        owner = out.owner
                        start = out.rr_vc
                        for offset in range(n_vcs):
                            ovc = (start + offset) % n_vcs
                            if owner[ovc] is None:
                                owner[ovc] = ((router, port.upstream), vc)
                                assign[vc] = (next_hop, ovc)
                                out.rr_vc = ovc + 1
                                break

                # 4. Switch allocation + traversal: one flit per output
                #    port and per input port, round-robin over VCs.
                used_outputs: set = set()
                for pid in worklist:
                    port = ports[pid]
                    router = port.router
                    upstream = port.upstream
                    bufs = port.bufs
                    assign = port.assign
                    start = port.rr_sw
                    for offset in range(n_vcs):
                        vc = (start + offset) % n_vcs
                        buf = bufs[vc]
                        assignment = assign[vc]
                        if not buf or assignment is None:
                            continue
                        out_port, out_vc = assignment
                        flit = buf[0]

                        if out_port == LOCAL_PORT:
                            buf.popleft()
                            if upstream != LOCAL_PORT:
                                out_ports[(upstream, router)].credits[vc] += 1
                            if flit[_TAIL]:
                                assign[vc] = None
                                stall_anchor = cycle  # forward progress
                                if flit[_MEASURED]:
                                    deliver(flit[_INJECT], cycle + 1)
                            port.rr_sw = vc + 1
                            break

                        okey = (router, out_port)
                        if okey in used_outputs:
                            continue
                        out = out_ports[okey]
                        if out.credits[out_vc] <= 0:
                            continue
                        buf.popleft()
                        out.credits[out_vc] -= 1
                        if upstream != LOCAL_PORT:
                            out_ports[(upstream, router)].credits[vc] += 1
                        arrival = cycle + hop_cycles
                        moves = in_flight.get(arrival)
                        if moves is None:
                            moves = in_flight[arrival] = []
                            heapq.heappush(arrival_heap, arrival)
                        moves.append(((out_port, router), out_vc, flit))
                        if flit[_TAIL]:
                            assign[vc] = None
                            out.owner[out_vc] = None
                        used_outputs.add(okey)
                        port.rr_sw = vc + 1
                        break

                # Retire ports whose buffers drained this cycle.
                for pid in worklist:
                    if not any(ports[pid].bufs):
                        active.discard(pid)

            cycle += 1

            if active or arrival_heap:
                if stall_anchor is None:
                    stall_anchor = cycle
                elif cycle - stall_anchor > stall_limit:
                    raise SimulationStalled(
                        f"flit-level simulation made no forward progress for "
                        f"{cycle - stall_anchor} cycles (limit {stall_limit}) "
                        f"at cycle {cycle}: flits are buffered or in flight "
                        "but nothing is ejecting (deadlocked or livelocked "
                        "routing)",
                        snapshot={
                            "cycle": cycle,
                            "stalled_for": cycle - stall_anchor,
                            "stall_limit": stall_limit,
                            "active_ports": len(active),
                            "buffered_flits": sum(
                                len(buf) for port in ports for buf in port.bufs
                            ),
                            "in_flight_flits": sum(
                                len(moves) for moves in in_flight.values()
                            ),
                            "pending_injections": sum(
                                len(queue) for queue in pending.values()
                            ),
                            "owned_output_vcs": sum(
                                1
                                for out in out_ports.values()
                                for holder in out.owner
                                if holder is not None
                            ),
                        },
                    )
            else:
                stall_anchor = None

            if cycle >= n_cycles and meter.mean_saturated(zero_load):
                # Drain bound: the saturation verdict can no longer
                # change, so stop here and count the backlog as
                # undelivered rather than draining for O(horizon).
                break

            if not active:
                if not arrival_heap and not inj_heap:
                    break  # network empty and no future injections
                # Idle stretch: nothing buffered, so nothing can happen
                # until the next link arrival or injection; skip to it.
                nxt = arrival_heap[0] if arrival_heap else horizon
                if inj_heap and inj_heap[0][0] < nxt:
                    nxt = inj_heap[0][0]
                if nxt > cycle:
                    cycle = nxt

        self.last_run_stats = {
            "cycles_run": cycle,
            "in_ports": len(ports),
            "out_ports": len(out_ports),
            "owned_output_vcs": sum(
                1
                for out in out_ports.values()
                for holder in out.owner
                if holder is not None
            ),
            "credits_outstanding": sum(
                buffer_flits - credit
                for out in out_ports.values()
                for credit in out.credits
            ),
            "buffered_flits": sum(
                len(buf) for port in ports for buf in port.bufs
            ),
        }
        return meter.summarise(injection_rate, zero_load)
