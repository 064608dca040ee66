"""Power models: cooling, core (McPAT-like), NoC (Orion-like)."""

from dataclasses import replace as dc_replace

import pytest
from hypothesis import given, strategies as st

from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.power.cooling import (
    COOLING_OVERHEAD_77K,
    MEASURED_COOLING_OVERHEADS,
    T_AMBIENT,
    CoolingModel,
    carnot_cooling_overhead,
    cooling_overhead,
)
from repro.power.mcpat import CorePowerModel
from repro.power.orion import (
    CRYOBUS_64_PROFILE,
    MESH_64_PROFILE,
    NocPowerModel,
    SHARED_BUS_64_PROFILE,
)
from repro.tech.operating_point import (
    OP_300K_NOMINAL,
    OP_77K_NOMINAL,
    OP_CHP,
    OP_CRYOSP,
    OP_NOC_300K,
    OP_NOC_77K,
    OperatingPoint,
)


class TestCooling:
    def test_77k_overhead_is_9_65(self):
        assert CoolingModel(77.0).overhead == pytest.approx(COOLING_OVERHEAD_77K)

    def test_carnot_reproduces_measured_77k_value(self):
        """30 % of Carnot at 77 K lands exactly on the measured 9.65."""
        assert carnot_cooling_overhead(77.0) == pytest.approx(9.65, rel=0.01)

    def test_total_power_equation(self):
        """Eq. (2): P_total = 10.65 * P_dev at 77 K."""
        assert CoolingModel(77.0).total_power(1.0) == pytest.approx(10.65)

    def test_no_cooling_at_room(self):
        assert CoolingModel(300.0).overhead == 0.0
        assert CoolingModel(300.0).total_power(5.0) == pytest.approx(5.0)

    def test_overhead_grows_as_temperature_drops(self):
        """Strictly, from 300 K down to 4 K in 2 K steps."""
        overheads = [carnot_cooling_overhead(300.0 - 2.0 * i) for i in range(149)]
        assert all(warm < cold for warm, cold in zip(overheads, overheads[1:]))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            CoolingModel(77.0).total_power(-1.0)

    def test_rejects_bad_carnot_fraction(self):
        with pytest.raises(ValueError):
            carnot_cooling_overhead(77.0, carnot_fraction=0.0)

    @given(temp=st.floats(min_value=65.0, max_value=295.0))
    def test_overhead_positive_below_ambient(self, temp):
        assert carnot_cooling_overhead(temp) > 0.0

    def test_carnot_vanishes_approaching_ambient_from_below(self):
        """CO -> 0+ as T -> T_ambient: the cold plate stops needing work."""
        overheads = [
            carnot_cooling_overhead(T_AMBIENT - dt)
            for dt in (10.0, 1.0, 0.1, 1e-3, 1e-6)
        ]
        assert overheads == sorted(overheads, reverse=True)
        assert all(co > 0.0 for co in overheads)
        assert overheads[-1] == pytest.approx(0.0, abs=1e-7)

    def test_carnot_exactly_zero_at_ambient(self):
        assert carnot_cooling_overhead(T_AMBIENT) == 0.0

    def test_carnot_zero_above_ambient(self):
        assert carnot_cooling_overhead(T_AMBIENT + 50.0) == 0.0

    def test_carnot_finite_below_one_kelvin(self):
        """Sub-1 K is brutal but finite: CO = ((300-T)/T)/eta."""
        co = carnot_cooling_overhead(0.5)
        assert co == pytest.approx(((T_AMBIENT - 0.5) / 0.5) / 0.30)
        assert co < float("inf")

    def test_carnot_rejects_nonpositive_temperature(self):
        for bad in (0.0, -4.0):
            with pytest.raises(ValueError):
                carnot_cooling_overhead(bad)

    def test_carnot_77k_anchor_within_tolerance(self):
        """The 30 %-of-Carnot curve lands on the measured 9.65 +/- 0.1 %."""
        assert carnot_cooling_overhead(77.0) == pytest.approx(9.65, rel=1e-3)


class TestCoolingOverheadProvider:
    """The per-stage provider the thermal layer evaluates."""

    def test_measured_anchor_wins_at_77k(self):
        assert cooling_overhead(77.0) == COOLING_OVERHEAD_77K

    def test_carnot_away_from_anchors(self):
        assert cooling_overhead(135.0) == carnot_cooling_overhead(135.0)

    def test_custom_measured_table(self):
        assert cooling_overhead(4.0, measured={4.0: 500.0}) == 500.0

    def test_anchor_at_or_above_ambient_is_ignored(self):
        """A (nonsense) anchor at ambient must not defeat the zero-CO rule."""
        assert cooling_overhead(300.0, measured={300.0: 7.0}) == 0.0

    def test_77k_table_holds_the_stinger_number(self):
        assert MEASURED_COOLING_OVERHEADS[77.0] == 9.65


class TestCorePower:
    @pytest.fixture(scope="class")
    def model(self):
        return CorePowerModel()

    def test_baseline_normalised_to_one(self, model):
        report = model.baseline_report()
        assert report.device_rel == pytest.approx(1.0, abs=1e-9)
        assert report.cooling_rel == 0.0

    def test_cryocore_sizing_cuts_power_78_percent(self, model):
        """CryoCore's published 77.8 % power reduction (Section 4.5)."""
        full = model.capacitance_rel(SKYLAKE_CONFIG)
        sized = model.capacitance_rel(CRYO_CORE_CONFIG)
        assert sized / full == pytest.approx(0.222, rel=0.05)

    def test_superpipelining_adds_latch_power(self, model):
        deep = model.capacitance_rel(SKYLAKE_CONFIG.deepened(3))
        assert deep > model.capacitance_rel(SKYLAKE_CONFIG)

    def test_static_power_vanishes_at_77k(self, model):
        warm = model.static_rel(SKYLAKE_CONFIG, OP_300K_NOMINAL)
        cold = model.static_rel(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        assert warm == pytest.approx(0.20, abs=0.01)
        assert cold < 1e-10

    def test_cryosp_fits_baseline_envelope(self, model):
        report = model.report(CRYO_CORE_CONFIG.deepened(3), OP_CRYOSP, 7.84)
        assert report.total_rel == pytest.approx(1.0, abs=0.25)
        assert report.device_rel == pytest.approx(0.093, rel=0.30)

    def test_chp_fits_baseline_envelope(self, model):
        report = model.report(CRYO_CORE_CONFIG, OP_CHP, 6.1)
        assert report.total_rel == pytest.approx(1.0, abs=0.15)

    def test_dynamic_scales_with_frequency(self, model):
        slow = model.dynamic_rel(SKYLAKE_CONFIG, OP_300K_NOMINAL, 2.0)
        fast = model.dynamic_rel(SKYLAKE_CONFIG, OP_300K_NOMINAL, 4.0)
        assert fast == pytest.approx(2.0 * slow)

    def test_dynamic_scales_with_vdd_squared(self, model):
        base = model.dynamic_rel(SKYLAKE_CONFIG, OP_300K_NOMINAL, 4.0)
        half_v = model.dynamic_rel(
            SKYLAKE_CONFIG,
            OP_CRYOSP,  # Vdd 0.64
            4.0,
        )
        assert half_v / base == pytest.approx((0.64 / 1.25) ** 2)

    def test_rejects_nonpositive_frequency(self, model):
        with pytest.raises(ValueError):
            model.dynamic_rel(SKYLAKE_CONFIG, OP_300K_NOMINAL, 0.0)

    def test_card_nominal_point_prices_the_card_rail(self, model):
        """``vdd_v=None`` is the logic card's rail (1.25 V, V_th 0.47 V)."""
        for bare, named in ((300.0, OP_300K_NOMINAL), (77.0, OP_77K_NOMINAL)):
            nominal = model.report(SKYLAKE_CONFIG, OperatingPoint.at(bare), 4.0)
            explicit = model.report(SKYLAKE_CONFIG, named, 4.0)
            assert nominal == dc_replace(explicit, design_name=nominal.design_name)
        room = model.report(SKYLAKE_CONFIG, OperatingPoint.at(300.0), 4.0)
        assert (room.dynamic_rel, room.static_rel, room.cooling_rel) == (0.8, 0.2, 0.0)


class TestNocPower:
    @pytest.fixture(scope="class")
    def model(self):
        return NocPowerModel()

    def test_300k_mesh_is_reference(self, model):
        report = model.report(MESH_64_PROFILE, OP_NOC_300K)
        assert report.total_rel == pytest.approx(1.0, abs=1e-6)

    def test_fig22_mesh_77k_anchor(self, model):
        report = model.report(MESH_64_PROFILE, OP_NOC_77K)
        assert report.total_rel == pytest.approx(0.72, abs=0.05)

    def test_fig22_shared_bus_anchor(self, model):
        report = model.report(SHARED_BUS_64_PROFILE, OP_NOC_77K)
        assert report.total_rel == pytest.approx(0.617, abs=0.05)

    def test_fig22_cryobus_anchor(self, model):
        report = model.report(CRYOBUS_64_PROFILE, OP_NOC_77K)
        assert report.total_rel == pytest.approx(0.428, abs=0.05)

    def test_fig22_ordering(self, model):
        mesh300 = model.report(MESH_64_PROFILE, OP_NOC_300K).total_rel
        mesh77 = model.report(MESH_64_PROFILE, OP_NOC_77K).total_rel
        bus77 = model.report(SHARED_BUS_64_PROFILE, OP_NOC_77K).total_rel
        cryo = model.report(CRYOBUS_64_PROFILE, OP_NOC_77K).total_rel
        assert cryo < bus77 < mesh77 < mesh300

    def test_static_dominates_at_300k(self, model):
        report = model.report(MESH_64_PROFILE, OP_NOC_300K)
        assert report.static_rel > report.dynamic_rel

    def test_static_eliminated_at_77k(self, model):
        report = model.report(MESH_64_PROFILE, OP_NOC_77K)
        assert report.static_rel < 1e-6

    def test_traffic_scales_dynamic(self, model):
        idle = model.report(MESH_64_PROFILE, OP_NOC_300K, traffic_rel=0.0)
        busy = model.report(MESH_64_PROFILE, OP_NOC_300K, traffic_rel=2.0)
        assert idle.dynamic_rel == 0.0
        assert busy.dynamic_rel > 0.0

    def test_rejects_negative_traffic(self, model):
        with pytest.raises(ValueError):
            model.report(MESH_64_PROFILE, OP_NOC_300K, traffic_rel=-1.0)
