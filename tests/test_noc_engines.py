"""The packet engines against plain reference loops, compared with ``==``.

``reference_router`` is the router engine as one event loop: a heap of
hop events in (time, seq) order, routing every packet with
``topology.route``. ``reference_bus`` grants the bus to the requesting
core served longest ago, found by a keyed ``min`` over the set of cores
with a request queued. :class:`~repro.noc.simulator.NocSimulator`
schedules packets that meet no other without the loop and grants the bus
from the arbiter's heap; every ``LoadLatencyPoint`` must still be equal.
"""

import heapq
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import repro.noc.simulator as noc_sim
from repro.noc.bus import CryoBusDesign, SharedBusDesign
from repro.noc.measure import LatencyMeter
from repro.noc.simulator import NocSimulator
from repro.noc.topology import CMesh, FlattenedButterfly, Mesh, link_cycles
from repro.noc.traffic import make_pattern


def reference_router(sim, topology, pattern, rate, router_cycles, hops_per_cycle, seed="noc"):
    n, flits, horizon = topology.n_routers, sim.packet_flits, sim.n_cycles * 4
    meter = LatencyMeter(sim.warmup)
    port_free = {}
    events = []
    for cycle, src, dst in pattern.trace(rate, sim.n_cycles, seed):
        measured = meter.offer(cycle)
        route = [
            (frm * n + to, link_cycles(length, hops_per_cycle))
            for frm, to, length in topology.route(topology.router_of(src), topology.router_of(dst))
        ]
        if not route:
            if measured:
                meter.deliver_local(flits)
            continue
        events.append((cycle + 1, len(events), cycle, measured, route, 0))
    seq = len(events)
    while events:
        time, _, inject, measured, route, hop = heapq.heappop(events)
        if time > horizon:
            continue
        port, link = route[hop]
        start = max(time + router_cycles, port_free.get(port, 0))
        port_free[port] = start + flits
        if hop + 1 < len(route):
            heapq.heappush(events, (start + link, seq, inject, measured, route, hop + 1))
            seq += 1
        elif measured:
            meter.deliver(inject, start + link + flits)
    avg_hops = topology.average_hops()
    return meter.summarise(rate, router_cycles * (avg_hops + 1) + avg_hops)


def reference_bus(sim, bus, pattern, rate, hops_per_cycle, seed="bus"):
    broadcast = bus.broadcast_cycles(hops_per_cycle)
    overhead = bus.arbitration_cycles + bus.control_cycles
    horizon = sim.n_cycles * 4
    trace = list(pattern.trace(rate, sim.n_cycles, seed))
    meter = LatencyMeter(sim.warmup)
    for cycle, _, _ in trace:
        meter.offer(cycle)
    for way in range(bus.interleave_ways):
        packets = [(c, s) for c, s, d in trace if d % bus.interleave_ways == way]
        served = list(range(-bus.n_nodes, 0))  # last-served stamps, lowest wins
        queues = {core: deque() for core in range(bus.n_nodes)}
        requesters = set()
        idx = now = pending = 0
        while (idx < len(packets) or pending) and now <= horizon:
            while idx < len(packets) and packets[idx][0] + overhead <= now:
                cycle, core = packets[idx]
                queues[core].append(cycle)
                requesters.add(core)
                pending += 1
                idx += 1
            if not pending:
                now = packets[idx][0] + overhead
                continue
            winner = min(requesters, key=served.__getitem__)
            served[winner] = max(served) + 1
            inject = queues[winner].popleft()
            pending -= 1
            if not queues[winner]:
                requesters.discard(winner)
            now += broadcast
            if inject >= sim.warmup and now <= horizon:
                meter.deliver(inject, now)
    return meter.summarise(rate, overhead + broadcast)


TOPOLOGIES = [cls(n) for n in (16, 64) for cls in (Mesh, CMesh, FlattenedButterfly)]
BY_NAME = {topology.name: topology for topology in TOPOLOGIES}
PATTERNS = {
    (name, n): make_pattern(name, n)
    for name in ("uniform", "transpose", "hotspot", "bit_reverse", "burst")
    for n in (16, 64)
}
BUSES = [
    bus
    for n in (16, 64)
    for bus in (SharedBusDesign(n), CryoBusDesign(n), CryoBusDesign(n, 2), CryoBusDesign(n, 4))
]


@pytest.fixture
def event_loops(monkeypatch):
    """How the router engine ran its event loop: one ``(packets,
    recorded)`` entry per replay round."""
    calls = []
    loop = noc_sim._event_loop

    def counted(members, *args):
        calls.append((len(members), args[-1]))
        return loop(members, *args)

    monkeypatch.setattr(noc_sim, "_event_loop", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES),
    pattern=st.sampled_from(sorted({name for name, _ in PATTERNS})),
    rate=st.floats(min_value=0.001, max_value=0.15),
    router_cycles=st.sampled_from((1, 3)),
    hops_per_cycle=st.sampled_from((1, 4, 12)),
    packet_flits=st.integers(min_value=1, max_value=3),
    n_cycles=st.integers(min_value=300, max_value=1500),
)
def test_router_engine_is_the_event_loop(
    topology, pattern, rate, router_cycles, hops_per_cycle, packet_flits, n_cycles
):
    sim = NocSimulator(n_cycles=n_cycles, packet_flits=packet_flits)
    traffic = PATTERNS[pattern, topology.n_nodes]
    got = sim.simulate_router_network(topology, traffic, rate, router_cycles, hops_per_cycle)
    assert got == reference_router(sim, topology, traffic, rate, router_cycles, hops_per_cycle)


@settings(max_examples=40, deadline=None)
@given(
    bus=st.sampled_from(BUSES),
    pattern=st.sampled_from(sorted({name for name, _ in PATTERNS})),
    rate=st.floats(min_value=0.001, max_value=0.15),
    hops_per_cycle=st.sampled_from((1, 4, 12)),
    n_cycles=st.integers(min_value=300, max_value=1500),
)
def test_bus_engine_is_the_set_scan(bus, pattern, rate, hops_per_cycle, n_cycles):
    sim = NocSimulator(n_cycles=n_cycles)
    traffic = PATTERNS[pattern, bus.n_nodes]
    got = sim.simulate_bus(bus, traffic, rate, hops_per_cycle)
    assert got == reference_bus(sim, bus, traffic, rate, hops_per_cycle)


@pytest.mark.parametrize(
    "topology, pattern, rate, shape, rounds",
    [
        ("mesh_16", "uniform", 0.002, (400, 1, 1, 4), 0),
        ("cmesh_16", "hotspot", 0.002, (1000, 1, 1, 4), 1),
        ("cmesh_64", "hotspot", 0.005, (400, 1, 1, 4), 2),
        ("cmesh_64", "transpose", 0.02, (400, 1, 1, 4), 4),
        # The replay would pass a quarter of the packets: all are replayed.
        ("cmesh_16", "burst", 0.1, (400, 1, 1, 4), "all"),
    ],
)
def test_replay_rounds(event_loops, topology, pattern, rate, shape, rounds):
    """``shape`` is (n_cycles, packet_flits, router_cycles,
    hops_per_cycle); ``rounds`` counts the recorded replays."""
    n_cycles, flits, router_cycles, hops_per_cycle = shape
    topology = BY_NAME[topology]
    traffic = PATTERNS[pattern, topology.n_nodes]
    sim = NocSimulator(n_cycles=n_cycles, packet_flits=flits)
    got = sim.simulate_router_network(topology, traffic, rate, router_cycles, hops_per_cycle)
    recorded = [record for _, record in event_loops]
    if rounds == "all":
        assert recorded[-1] is False and all(recorded[:-1])
        trace = traffic.trace(rate, n_cycles, "noc")
        leaving = sum(topology.router_of(s) != topology.router_of(d) for _, s, d in trace)
        assert event_loops[-1][0] == leaving
    else:
        assert recorded == [True] * rounds
    assert got == reference_router(sim, topology, traffic, rate, router_cycles, hops_per_cycle)


def test_saturated_router_network_is_cut_at_the_horizon(event_loops):
    sim = NocSimulator(n_cycles=300, packet_flits=3)
    topology, traffic = BY_NAME["cmesh_16"], PATTERNS["hotspot", 16]
    got = sim.simulate_router_network(topology, traffic, 0.6, 3, 1)
    assert event_loops[-1][1] is False  # every packet replayed
    assert got.saturated and got.delivered_packets < got.offered_packets
    assert got == reference_router(sim, topology, traffic, 0.6, 3, 1)


def test_saturated_bus_is_cut_at_the_horizon():
    sim = NocSimulator(n_cycles=400)
    bus, traffic = SharedBusDesign(64), PATTERNS["uniform", 64]
    got = sim.simulate_bus(bus, traffic, 0.05, hops_per_cycle=4)
    assert got.saturated and got.delivered_packets < got.offered_packets
    assert got == reference_bus(sim, bus, traffic, 0.05, 4)

