"""Traffic patterns and the cycle-accurate NoC simulator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.bus import CryoBusDesign, SharedBusDesign
from repro.noc.simulator import NocSimulator
from repro.noc.topology import FlattenedButterfly, Mesh
from repro.noc.traffic import BLOCK_CYCLES, make_pattern


def _close_share(trace, window=16):
    """Share of injections within ``window`` cycles of the same node's
    previous injection."""
    last = {}
    close = total = 0
    for cycle, src, _ in trace:
        if src in last:
            total += 1
            close += cycle - last[src] <= window
        last[src] = cycle
    return close / total


class TestTrafficPatterns:
    def test_known_patterns_construct(self):
        for name in ("uniform", "transpose", "hotspot", "bit_reverse", "burst"):
            assert make_pattern(name, 64).name == name

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError, match="uniform"):
            make_pattern("tornado", 64)

    def test_uniform_never_self_addressed(self):
        pattern = make_pattern("uniform", 16)
        for _, src, dst in pattern.trace(0.5, 200):
            assert src != dst

    def test_transpose_is_deterministic_permutation(self):
        pattern = make_pattern("transpose", 64)
        for _, src, dst in pattern.trace(0.3, 50):
            x, y = src % 8, src // 8
            assert dst == x * 8 + y

    def test_bit_reverse_mapping(self):
        pattern = make_pattern("bit_reverse", 64)
        for _, src, dst in pattern.trace(0.3, 50):
            assert dst == int(format(src, "06b")[::-1], 2)

    def test_injection_rate_statistics(self):
        pattern = make_pattern("uniform", 64)
        count = len(pattern.trace(0.01, 4000))
        expected = 0.01 * 64 * 4000
        assert count == pytest.approx(expected, rel=0.15)

    def test_burst_matches_average_rate(self):
        pattern = make_pattern("burst", 64)
        count = len(pattern.trace(0.01, 6000))
        expected = 0.01 * 64 * 6000
        assert count == pytest.approx(expected, rel=0.25)

    def test_burst_injections_cluster(self):
        """Burst injections come in runs, not just at the average rate:
        a Bernoulli process at 1 % puts ~15 % of a node's injections
        within 16 cycles of its previous one, the 16-on/48-off chain
        ~34 %."""
        burst = make_pattern("burst", 64).trace(0.01, 6000)
        uniform = make_pattern("uniform", 64).trace(0.01, 6000)
        assert _close_share(burst) > 0.25
        assert _close_share(uniform) < 0.2

    def test_hotspot_concentrates_traffic(self):
        pattern = make_pattern("hotspot", 64)
        hot_targets = {0, 16, 32, 48}
        hits = total = 0
        for _, _, dst in pattern.trace(0.05, 2000):
            total += 1
            hits += dst in hot_targets
        assert hits / total > 0.25  # ~30 % by construction

    def test_hotspot_fraction_not_deflated_by_self_draws(self):
        """A hot source drawing itself must redraw among the other hot
        nodes, not fall back to uniform -- otherwise the effective
        hotspot fraction (and offered load) lands below nominal."""
        pattern = make_pattern("hotspot", 64)
        hot_targets = {0, 16, 32, 48}
        hits = total = 0
        for _, src, dst in pattern.trace(0.05, 4000):
            if src not in hot_targets:
                continue
            total += 1
            hits += dst in hot_targets
        # Hot sources see the same ~30 % bias as everyone else.
        assert hits / total > 0.25

    def test_hotspot_never_self_addressed(self):
        pattern = make_pattern("hotspot", 16)
        for _, src, dst in pattern.trace(0.3, 500):
            assert src != dst

    @pytest.mark.parametrize(
        "name", ("uniform", "transpose", "hotspot", "bit_reverse", "burst")
    )
    def test_trace_is_in_injection_order_and_never_self_addressed(self, name):
        trace = make_pattern(name, 64).trace(0.2, 600)
        assert len(trace) > 0
        assert (trace.src != trace.dst).all()
        packets = list(trace)
        assert packets == sorted(packets)  # by cycle, then by source
        assert len({(cycle, src) for cycle, src, _ in packets}) == len(packets)

    def test_rate_zero_is_an_empty_trace(self):
        for name in ("uniform", "burst"):
            assert len(make_pattern(name, 16).trace(0.0, 1000)) == 0

    def test_rate_one_fires_every_node_every_cycle(self):
        n_cycles = BLOCK_CYCLES + 3
        trace = make_pattern("uniform", 16).trace(1.0, n_cycles)
        assert list(trace.cycle) == [c for c in range(n_cycles) for _ in range(16)]
        assert list(trace.src) == list(range(16)) * n_cycles

    def test_partial_last_block_keeps_the_nominal_rate(self):
        """The cycle past the last full block is drawn at the same rate."""
        trace = make_pattern("uniform", 1024).trace(0.25, BLOCK_CYCLES + 1)
        in_partial_block = int((trace.cycle == BLOCK_CYCLES).sum())
        assert in_partial_block == pytest.approx(0.25 * 1024, rel=0.2)

    def test_deterministic_given_seed(self):
        pattern = make_pattern("uniform", 16)
        first = list(pattern.trace(0.05, 100, seed="s"))
        second = list(pattern.trace(0.05, 100, seed="s"))
        assert first == second

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            make_pattern("uniform", 16).trace(1.5, 10)

    def test_rejects_nan_rate(self):
        with pytest.raises(ValueError):
            make_pattern("uniform", 16).trace(math.nan, 10)


class TestRouterNetworkSim:
    @pytest.fixture(scope="class")
    def sim(self):
        return NocSimulator(n_cycles=4000)

    def test_zero_load_latency_near_analytic(self, sim):
        mesh = Mesh(64)
        pattern = make_pattern("uniform", 64)
        point = sim.simulate_router_network(mesh, pattern, 0.002)
        # ~5.33 hops * (1 router + 1 link) + inject/eject.
        assert 8 < point.mean_latency_cycles < 18
        assert not point.saturated

    def test_latency_rises_with_load(self, sim):
        mesh = Mesh(64)
        pattern = make_pattern("uniform", 64)
        low = sim.simulate_router_network(mesh, pattern, 0.005)
        high = sim.simulate_router_network(mesh, pattern, 0.08)
        assert high.mean_latency_cycles > low.mean_latency_cycles

    def test_three_cycle_router_slower(self, sim):
        mesh = Mesh(64)
        pattern = make_pattern("uniform", 64)
        fast = sim.simulate_router_network(mesh, pattern, 0.01, router_cycles=1)
        slow = sim.simulate_router_network(mesh, pattern, 0.01, router_cycles=3)
        assert slow.mean_latency_cycles > fast.mean_latency_cycles + 5

    def test_cold_links_dont_change_mesh_much(self, sim):
        """Router NoCs barely benefit from faster links (Guideline #1)."""
        mesh = Mesh(64)
        pattern = make_pattern("uniform", 64)
        warm = sim.simulate_router_network(mesh, pattern, 0.01, hops_per_cycle=4)
        cold = sim.simulate_router_network(mesh, pattern, 0.01, hops_per_cycle=12)
        assert warm.mean_latency_cycles - cold.mean_latency_cycles < 2.0

    def test_fb_lower_latency_than_mesh(self, sim):
        pattern = make_pattern("uniform", 64)
        mesh = sim.simulate_router_network(Mesh(64), pattern, 0.005)
        fb = sim.simulate_router_network(FlattenedButterfly(64), pattern, 0.005)
        assert fb.mean_latency_cycles < mesh.mean_latency_cycles

    def test_node_count_mismatch_raises(self, sim):
        with pytest.raises(ValueError):
            sim.simulate_router_network(Mesh(64), make_pattern("uniform", 16), 0.01)


class TestBusSim:
    @pytest.fixture(scope="class")
    def sim(self):
        return NocSimulator(n_cycles=4000)

    def test_cryobus_zero_load_is_four_cycles(self, sim):
        point = sim.simulate_bus(
            CryoBusDesign(64), make_pattern("uniform", 64), 0.0005, hops_per_cycle=12
        )
        assert point.mean_latency_cycles == pytest.approx(4.0, abs=0.5)

    def test_300k_bus_saturates_at_parsec_rates(self, sim):
        """Guideline #2: the 300 K bus cannot even run PARSEC."""
        point = sim.simulate_bus(
            SharedBusDesign(64), make_pattern("uniform", 64), 0.004, hops_per_cycle=4
        )
        assert point.saturated

    def test_77k_bus_survives_parsec_rates(self, sim):
        point = sim.simulate_bus(
            SharedBusDesign(64), make_pattern("uniform", 64), 0.002, hops_per_cycle=12
        )
        assert not point.saturated

    def test_cryobus_survives_spec_rates(self, sim):
        point = sim.simulate_bus(
            CryoBusDesign(64), make_pattern("uniform", 64), 0.008, hops_per_cycle=12
        )
        assert not point.saturated

    def test_interleaving_extends_saturation(self, sim):
        pattern = make_pattern("uniform", 64)
        rate = 0.018
        single = sim.simulate_bus(CryoBusDesign(64), pattern, rate, hops_per_cycle=12)
        double = sim.simulate_bus(
            CryoBusDesign(64, interleave_ways=2), pattern, rate, hops_per_cycle=12
        )
        assert double.mean_latency_cycles < single.mean_latency_cycles

    def test_pattern_insensitivity_of_bus(self, sim):
        """Broadcast buses don't care about the destination pattern."""
        rate = 0.004
        results = []
        for name in ("uniform", "transpose", "hotspot"):
            point = sim.simulate_bus(
                CryoBusDesign(64), make_pattern(name, 64), rate, hops_per_cycle=12
            )
            results.append(point.mean_latency_cycles)
        assert max(results) - min(results) < 2.0

    def test_acceptance_below_saturation_is_full(self, sim):
        point = sim.simulate_bus(
            CryoBusDesign(64), make_pattern("uniform", 64), 0.003, hops_per_cycle=12
        )
        assert point.acceptance > 0.95

    def test_node_count_mismatch_raises(self, sim):
        with pytest.raises(ValueError):
            sim.simulate_bus(
                CryoBusDesign(64), make_pattern("uniform", 16), 0.01, hops_per_cycle=12
            )

    def test_saturated_bus_counts_backlog_as_undelivered(self, sim):
        """The serial drain stops at the horizon; the backlog shows up
        as lost acceptance instead of inflating the drain time."""
        point = sim.simulate_bus(
            SharedBusDesign(64), make_pattern("uniform", 64), 0.02, hops_per_cycle=4
        )
        assert point.saturated
        assert point.delivered_packets < point.offered_packets


class TestSimulatorValidation:
    def test_rejects_short_simulations(self):
        with pytest.raises(ValueError):
            NocSimulator(n_cycles=10)

    def test_rejects_bad_warmup(self):
        with pytest.raises(ValueError):
            NocSimulator(warmup_fraction=1.0)

    def test_rejects_bad_flits(self):
        with pytest.raises(ValueError):
            NocSimulator(packet_flits=0)

    @settings(max_examples=6, deadline=None)
    @given(rate=st.floats(min_value=0.0005, max_value=0.01))
    def test_bus_latency_at_least_zero_load(self, rate):
        sim = NocSimulator(n_cycles=1500)
        bus = CryoBusDesign(64)
        point = sim.simulate_bus(bus, make_pattern("uniform", 64), rate, 12)
        if point.delivered_packets:
            assert point.mean_latency_cycles >= bus.zero_load_latency_cycles(12) - 1e-9
