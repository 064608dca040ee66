"""Analytic NoC latency models and the hybrid 256-core fabric."""

import math

import pytest

from repro.noc.bus import CryoBusDesign, SharedBusDesign
from repro.noc.hybrid import HybridCryoBus
from repro.noc.latency import AnalyticNocModel, IdealNoc
from repro.noc.simulator import NocSimulator
from repro.noc.topology import Mesh
from repro.noc.traffic import make_pattern
from repro.pipeline.config import OP_NOC_77K
from repro.tech.operating_point import OP_ROOM


@pytest.fixture(scope="module")
def mesh_77k():
    return AnalyticNocModel(
        topology=Mesh(64), op=OP_NOC_77K
    )


@pytest.fixture(scope="module")
def cryobus_model():
    return AnalyticNocModel(
        bus=CryoBusDesign(64), op=OP_NOC_77K
    )


class TestConstruction:
    def test_requires_exactly_one_fabric(self):
        with pytest.raises(ValueError):
            AnalyticNocModel()
        with pytest.raises(ValueError):
            AnalyticNocModel(topology=Mesh(64), bus=SharedBusDesign(64))

    def test_mesh_clock_follows_router(self, mesh_77k):
        assert mesh_77k.clock_ghz == pytest.approx(5.44, rel=0.05)

    def test_bus_uses_reference_clock(self, cryobus_model):
        assert cryobus_model.clock_ghz == pytest.approx(4.0)


class TestZeroLoad:
    def test_mesh_zero_load_cycles(self, mesh_77k):
        breakdown = mesh_77k.one_way(0.0)
        assert 10 < breakdown.base_cycles < 16
        assert breakdown.queueing_cycles == 0.0

    def test_cryobus_zero_load_is_4_cycles(self, cryobus_model):
        assert cryobus_model.one_way(0.0).total_cycles == pytest.approx(4.0)

    def test_cryobus_5x_faster_than_300k_mesh(self, cryobus_model):
        """The paper's headline: five times lower NoC latency."""
        mesh_300 = AnalyticNocModel(topology=Mesh(64), op=OP_ROOM)
        ratio = mesh_300.one_way_ns(0.0) / cryobus_model.one_way_ns(0.0)
        assert 3.0 < ratio < 6.0

    def test_rejects_negative_rate(self, mesh_77k):
        with pytest.raises(ValueError):
            mesh_77k.one_way(-0.1)


class TestContention:
    def test_queueing_grows_with_load(self, cryobus_model):
        low = cryobus_model.one_way(0.1).queueing_cycles
        high = cryobus_model.one_way(0.8).queueing_cycles
        assert high > low >= 0

    def test_saturation_returns_inf(self, cryobus_model):
        sat = cryobus_model.saturation_rate()
        assert cryobus_model.one_way(sat * 1.01).queueing_cycles == math.inf

    def test_cryobus_saturation_is_1_per_cycle(self, cryobus_model):
        assert cryobus_model.saturation_rate() == pytest.approx(1.0)

    def test_mesh_saturation_far_above_bus(self, mesh_77k, cryobus_model):
        assert mesh_77k.saturation_rate() > 10 * cryobus_model.saturation_rate()


class TestAgainstSimulator:
    def test_bus_analytic_matches_sim_at_moderate_load(self, cryobus_model):
        sim = NocSimulator(n_cycles=6000)
        pattern = make_pattern("uniform", 64)
        rate = 0.005  # per node, aggregate 0.32
        point = sim.simulate_bus(
            CryoBusDesign(64), pattern, rate, hops_per_cycle=12
        )
        analytic = cryobus_model.one_way(rate * 64).total_cycles
        assert analytic == pytest.approx(point.mean_latency_cycles, rel=0.25)

    def test_mesh_analytic_matches_sim_at_low_load(self, mesh_77k):
        sim = NocSimulator(n_cycles=4000)
        pattern = make_pattern("uniform", 64)
        point = sim.simulate_router_network(
            Mesh(64), pattern, 0.005, router_cycles=1, hops_per_cycle=12
        )
        analytic = mesh_77k.one_way(0.005 * 64).total_cycles
        assert analytic == pytest.approx(point.mean_latency_cycles, rel=0.30)


class TestIdealNoc:
    def test_zero_everything(self):
        ideal = IdealNoc()
        assert ideal.one_way_ns(0.5) == 0.0
        assert ideal.saturation_rate() == math.inf

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            IdealNoc().one_way(-1.0)


class TestHybridCryoBus:
    @pytest.fixture(scope="class")
    def hybrid(self):
        return HybridCryoBus()

    def test_structure(self, hybrid):
        assert hybrid.cores_per_cluster == 64
        assert hybrid.cluster_of(0) == 0
        assert hybrid.cluster_of(255) == 3

    def test_zero_load_mixes_local_and_remote(self, hybrid):
        local = hybrid.local_bus().zero_load_latency_cycles(12)
        zero = hybrid.zero_load_latency_cycles(12)
        remote = 2 * local + hybrid.global_leg_cycles
        assert local < zero < remote

    def test_latency_grows_with_load(self, hybrid):
        low = hybrid.mean_latency_cycles(0.1, 12)
        high = hybrid.mean_latency_cycles(1.5, 12)
        assert high > low

    def test_saturates_beyond_capacity(self, hybrid):
        sat = hybrid.saturation_rate(12)
        assert hybrid.mean_latency_cycles(sat * 1.05, 12) == math.inf

    def test_scales_beyond_single_cryobus(self, hybrid):
        """Four clusters deliver more aggregate bandwidth than one bus."""
        single = CryoBusDesign(64).saturation_rate(12)
        assert hybrid.saturation_rate(12) > 1.5 * single

    def test_interleaving_helps(self):
        single = HybridCryoBus(interleave_ways=1)
        double = HybridCryoBus(interleave_ways=2)
        assert double.saturation_rate(12) == pytest.approx(
            2 * single.saturation_rate(12)
        )

    def test_simulation_agrees_with_analytic(self, hybrid):
        pattern = make_pattern("uniform", 256)
        rate = 0.002
        point = hybrid.simulate(pattern, rate, 12, n_cycles=5000)
        analytic = hybrid.mean_latency_cycles(rate * 256, 12)
        assert analytic == pytest.approx(point.mean_latency_cycles, rel=0.30)

    def test_rejects_bad_cluster_split(self):
        with pytest.raises(ValueError):
            HybridCryoBus(n_cores=250)

    def test_rejects_out_of_range_core(self, hybrid):
        with pytest.raises(ValueError):
            hybrid.cluster_of(256)
