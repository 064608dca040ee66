"""Power extensions: geometry-derived NoC profiles, CLL-DRAM, TCO."""

import pytest

from repro.memory.cll_dram import CllDramModel
from repro.memory.dram import DRAM_300K, DRAM_77K
from repro.noc.bus import CryoBusDesign, SharedBusDesign
from repro.noc.topology import Mesh
from repro.power.orion import (
    CRYOBUS_64_PROFILE,
    MESH_64_PROFILE,
    NocPowerModel,
    SHARED_BUS_64_PROFILE,
    profile_from_bus,
    profile_from_mesh,
)
from repro.power.tco import TemperatureOptimizer, default_device_power
from repro.tech.operating_point import OP_CRYO, OP_NOC_77K, OP_ROOM, OperatingPoint


class TestDerivedNocProfiles:
    """Energy profiles built from geometry match the calibrated ones."""

    def test_mesh_profile_matches(self):
        auto = profile_from_mesh(Mesh(64))
        assert auto.transaction_energy() == pytest.approx(
            MESH_64_PROFILE.transaction_energy(), rel=0.02
        )

    def test_shared_bus_profile_matches(self):
        auto = profile_from_bus(SharedBusDesign(64))
        assert auto.transaction_energy() == pytest.approx(
            SHARED_BUS_64_PROFILE.transaction_energy(), rel=0.02
        )

    def test_cryobus_profile_matches(self):
        auto = profile_from_bus(CryoBusDesign(64), dynamic_links=True)
        assert auto.transaction_energy() == pytest.approx(
            CRYOBUS_64_PROFILE.transaction_energy(), rel=0.05
        )

    def test_dynamic_links_save_energy(self):
        with_links = profile_from_bus(CryoBusDesign(64), dynamic_links=True)
        without = profile_from_bus(CryoBusDesign(64), dynamic_links=False)
        assert with_links.transaction_energy() < without.transaction_energy()

    def test_derived_cryobus_reproduces_fig22(self):
        model = NocPowerModel()
        auto = profile_from_bus(CryoBusDesign(64), dynamic_links=True)
        assert model.report(auto, OP_NOC_77K).total_rel == pytest.approx(
            0.428, abs=0.05
        )


class TestCllDram:
    @pytest.fixture(scope="class")
    def model(self):
        return CllDramModel()

    def test_300k_anchor(self, model):
        assert model.timing(OP_ROOM).access_ns == pytest.approx(
            DRAM_300K.random_access_ns, rel=0.01
        )

    def test_77k_emerges_at_3_8x(self, model):
        """Table 4's 3.8x DRAM speed-up emerges from the decomposition."""
        assert model.speedup(OP_CRYO) == pytest.approx(3.8, abs=0.1)
        assert model.timing(OP_CRYO).access_ns == pytest.approx(
            DRAM_77K.random_access_ns, rel=0.05
        )

    def test_array_rc_collapses_most(self, model):
        warm, cold = model.timing(OP_ROOM), model.timing(OP_CRYO)
        array_gain = warm.array_rc_ns / cold.array_rc_ns
        periphery_gain = warm.periphery_ns / cold.periphery_ns
        assert array_gain > 3 * periphery_gain

    def test_speedup_monotone(self, model):
        speedups = [model.speedup(OperatingPoint.at(t)) for t in (250, 200, 150, 100, 77)]
        assert speedups == sorted(speedups)

    def test_rejects_out_of_range(self, model):
        with pytest.raises(ValueError):
            model.timing(OperatingPoint.at(10.0))


class TestTemperatureOptimizer:
    @pytest.fixture(scope="class")
    def optimizer(self):
        return TemperatureOptimizer(perf_300k=1.0, perf_77k=2.42)

    def test_paper_claims_hold(self, optimizer):
        """Section 7.4: 100 K beats both 77 K and 300 K on perf/power."""
        at_100 = optimizer.point(100.0).perf_per_power
        assert at_100 > optimizer.point(77.0).perf_per_power
        assert at_100 > optimizer.point(300.0).perf_per_power

    def test_tco_at_most_perf_per_power(self, optimizer):
        for temperature in (77.0, 100.0, 200.0):
            point = optimizer.point(temperature)
            assert point.perf_per_tco <= point.perf_per_power

    def test_optimal_beats_endpoints(self, optimizer):
        best = optimizer.optimal(temperatures=range(77, 301, 4))
        assert best.perf_per_power >= optimizer.point(77.0).perf_per_power
        assert best.perf_per_power >= optimizer.point(300.0).perf_per_power

    def test_device_power_falls_when_cooled(self):
        assert default_device_power(77.0) < 0.3 * default_device_power(300.0)

    def test_rejects_out_of_range_temperature(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.point(50.0)

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            TemperatureOptimizer(perf_300k=0.0, perf_77k=1.0)

    def test_custom_power_function(self):
        flat = TemperatureOptimizer(
            1.0, 2.0, device_power_fn=lambda t: 1.0
        )
        # With flat device power, cooling cost always wins: 300 K optimal.
        best = flat.optimal(temperatures=(77.0, 150.0, 300.0))
        assert best.temperature_k == 300.0
