"""Flit-level VC simulator and its agreement with the packet engine."""

import pytest

from repro.noc.flitsim import FlitLevelSimulator
from repro.noc.simulator import NocSimulator
from repro.noc.topology import CMesh, FlattenedButterfly, Mesh
from repro.noc.traffic import make_pattern


@pytest.fixture(scope="module")
def mesh16():
    return Mesh(16)


@pytest.fixture(scope="module")
def pattern16():
    return make_pattern("uniform", 16)


class TestBasics:
    def test_zero_load_latency_sane(self, mesh16, pattern16):
        sim = FlitLevelSimulator(mesh16)
        point = sim.simulate(pattern16, 0.01, n_cycles=2000)
        # ~2.67 hops x (router + link) + inject/eject machinery.
        assert 4.0 < point.mean_latency_cycles < 10.0
        assert not point.saturated

    def test_all_packets_delivered_at_low_load(self, mesh16, pattern16):
        sim = FlitLevelSimulator(mesh16)
        point = sim.simulate(pattern16, 0.02, n_cycles=2000)
        assert point.acceptance > 0.95

    def test_latency_monotone_in_load(self, mesh16, pattern16):
        sim = FlitLevelSimulator(mesh16)
        low = sim.simulate(pattern16, 0.02, n_cycles=2500)
        high = sim.simulate(pattern16, 0.35, n_cycles=2500)
        assert high.mean_latency_cycles > low.mean_latency_cycles

    def test_saturation_at_extreme_load(self, mesh16, pattern16):
        sim = FlitLevelSimulator(mesh16, packet_flits=4)
        point = sim.simulate(pattern16, 0.8, n_cycles=2500)
        assert point.saturated or point.mean_latency_cycles > 60

    def test_three_cycle_router_slower(self, mesh16, pattern16):
        fast = FlitLevelSimulator(mesh16, router_cycles=1)
        slow = FlitLevelSimulator(mesh16, router_cycles=3)
        f = fast.simulate(pattern16, 0.02, n_cycles=2000)
        s = slow.simulate(pattern16, 0.02, n_cycles=2000)
        assert s.mean_latency_cycles > f.mean_latency_cycles + 3

    def test_multi_flit_packets_add_serialisation(self, mesh16, pattern16):
        single = FlitLevelSimulator(mesh16, packet_flits=1)
        multi = FlitLevelSimulator(mesh16, packet_flits=4)
        a = single.simulate(pattern16, 0.02, n_cycles=2000)
        b = multi.simulate(pattern16, 0.02, n_cycles=2000)
        assert b.mean_latency_cycles > a.mean_latency_cycles + 2

    def test_deterministic(self, mesh16, pattern16):
        sim = FlitLevelSimulator(mesh16)
        a = sim.simulate(pattern16, 0.05, n_cycles=1500, seed="s")
        b = sim.simulate(pattern16, 0.05, n_cycles=1500, seed="s")
        assert a.mean_latency_cycles == b.mean_latency_cycles

    def test_works_on_flattened_butterfly(self, pattern16):
        sim = FlitLevelSimulator(FlattenedButterfly(16, concentration=4))
        point = sim.simulate(pattern16, 0.05, n_cycles=2000)
        assert point.delivered_packets > 0
        assert point.mean_latency_cycles < 15

    def test_validates_arguments(self, mesh16, pattern16):
        with pytest.raises(ValueError):
            FlitLevelSimulator(mesh16, n_vcs=0)
        with pytest.raises(ValueError):
            FlitLevelSimulator(mesh16, router_cycles=0)
        with pytest.raises(ValueError):
            FlitLevelSimulator(mesh16).simulate(pattern16, 0.05, n_cycles=10)
        with pytest.raises(ValueError):
            FlitLevelSimulator(mesh16).simulate(make_pattern("uniform", 64), 0.05)


class TestMeasurementAccounting:
    """Concentrated topologies exposed an offered/delivered mismatch:
    packets whose source and destination share a router were counted as
    offered but never delivered, deflating acceptance below 1.0 and
    falsely tripping the saturation test at trivial loads."""

    def test_cmesh_acceptance_is_exactly_one_at_low_load(self):
        sim = FlitLevelSimulator(CMesh(64))
        point = sim.simulate(make_pattern("uniform", 64), 0.005, n_cycles=3000)
        assert point.acceptance == 1.0
        assert not point.saturated

    def test_mesh_acceptance_is_exactly_one_at_low_load(self):
        sim = FlitLevelSimulator(Mesh(64))
        point = sim.simulate(make_pattern("uniform", 64), 0.002, n_cycles=4000)
        assert point.acceptance == 1.0
        assert not point.saturated

    def test_flattened_butterfly_not_falsely_saturated(self):
        sim = FlitLevelSimulator(FlattenedButterfly(16, concentration=4))
        point = sim.simulate(make_pattern("uniform", 16), 0.01, n_cycles=3000)
        assert point.acceptance == 1.0
        assert not point.saturated

    def test_same_router_delivery_counts_serialisation(self):
        # With concentration 4, a quarter-ish of uniform packets stay
        # local; their latency (2 + flits - 1) must pull the mean below
        # a pure cross-network estimate, not vanish from the histogram.
        sim = FlitLevelSimulator(CMesh(64), packet_flits=4)
        point = sim.simulate(make_pattern("uniform", 64), 0.005, n_cycles=3000)
        assert point.delivered_packets == point.offered_packets
        assert point.mean_latency_cycles > 5  # 2 + 3 is the local floor


class TestStateRelease:
    """Owner/credit bookkeeping must be bounded and fully released."""

    def test_state_released_after_drain(self, mesh16, pattern16):
        sim = FlitLevelSimulator(mesh16, n_vcs=2, packet_flits=4)
        sim.simulate(pattern16, 0.1, n_cycles=2500)
        stats = sim.last_run_stats
        assert stats["owned_output_vcs"] == 0
        assert stats["credits_outstanding"] == 0
        assert stats["buffered_flits"] == 0

    def test_state_size_independent_of_traffic_volume(self, mesh16, pattern16):
        """A 4x16 mesh has at most 16 * 5 ports; the owner table must
        scale with ports x VCs, never with packets simulated."""
        sim = FlitLevelSimulator(mesh16, n_vcs=2)
        sim.simulate(pattern16, 0.02, n_cycles=1500)
        light = dict(sim.last_run_stats)
        sim.simulate(pattern16, 0.3, n_cycles=4000)
        heavy = dict(sim.last_run_stats)
        for stats in (light, heavy):
            assert stats["in_ports"] <= 16 * 5
            assert stats["out_ports"] <= 16 * 5


class TestCrossValidation:
    """The packet-level shortcuts must not distort the curves."""

    def test_agrees_with_packet_level_at_low_load(self, mesh16, pattern16):
        flit = FlitLevelSimulator(mesh16).simulate(pattern16, 0.02, n_cycles=3000)
        packet = NocSimulator(n_cycles=3000).simulate_router_network(
            mesh16, pattern16, 0.02
        )
        assert flit.mean_latency_cycles == pytest.approx(
            packet.mean_latency_cycles, rel=0.35
        )

    def test_agrees_at_moderate_load(self, mesh16, pattern16):
        flit = FlitLevelSimulator(mesh16).simulate(pattern16, 0.15, n_cycles=3000)
        packet = NocSimulator(n_cycles=3000).simulate_router_network(
            mesh16, pattern16, 0.15
        )
        assert flit.mean_latency_cycles == pytest.approx(
            packet.mean_latency_cycles, rel=0.45
        )

    def test_same_saturation_ordering(self, mesh16, pattern16):
        """Both engines agree on which load saturates the mesh."""
        flit_sim = FlitLevelSimulator(mesh16, packet_flits=4)
        packet_sim = NocSimulator(n_cycles=2500, packet_flits=4)
        for rate in (0.05, 0.8):
            flit = flit_sim.simulate(pattern16, rate, n_cycles=2500)
            packet = packet_sim.simulate_router_network(mesh16, pattern16, rate)
            heavy_flit = flit.saturated or flit.mean_latency_cycles > 50
            heavy_packet = packet.saturated or packet.mean_latency_cycles > 50
            assert heavy_flit == heavy_packet
