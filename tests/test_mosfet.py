"""Cryo-MOSFET drive and leakage model."""

import pytest
from hypothesis import given, strategies as st

from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.operating_point import OP_CRYO, OP_ROOM, OperatingPoint
from repro.tech.mosfet import (
    CryoMOSFET,
    FREEPDK45_CARD,
    INDUSTRY_2Z_CARD,
    MOSFETCard,
)


@pytest.fixture(scope="module")
def logic():
    return CryoMOSFET(FREEPDK45_CARD)


@pytest.fixture(scope="module")
def industry():
    return CryoMOSFET(INDUSTRY_2Z_CARD)


class TestDriveCalibration:
    def test_logic_77k_anchor(self, logic):
        """The paper's 8 % transistor speed-up at 77 K, nominal voltage."""
        assert logic.delay_speedup(OP_CRYO) == pytest.approx(1.08, rel=1e-6)

    def test_industry_77k_anchor(self, industry):
        assert industry.delay_speedup(OP_CRYO) == pytest.approx(2.40, rel=1e-6)

    def test_no_speedup_at_room(self, logic):
        assert logic.delay_speedup(OP_ROOM) == pytest.approx(1.0)

    def test_speedup_monotone_in_temperature(self, logic):
        temperatures = (300, 250, 200, 150, 100, 77)
        speedups = [logic.delay_speedup(OperatingPoint.at(t)) for t in temperatures]
        assert speedups == sorted(speedups)

    def test_chp_voltage_point_faster_than_nominal(self, logic):
        """V scaling at 77 K speeds logic up well beyond the 8 %."""
        chp = logic.delay_speedup(OperatingPoint.at(T_LN2, 0.75, 0.25))
        assert chp > 1.25
        assert chp > logic.delay_speedup(OP_CRYO)

    def test_cryosp_voltage_point(self, logic):
        cryosp = logic.delay_speedup(OperatingPoint.at(T_LN2, 0.64, 0.25))
        assert 1.2 < cryosp < 1.4

    def test_vth_rises_when_cooled(self, logic):
        assert logic.effective_vth(OP_CRYO) > logic.effective_vth(OP_ROOM)

    def test_overdrive_collapse_raises(self, logic):
        with pytest.raises(ValueError, match="overdrive"):
            logic.delay_speedup(OperatingPoint.at(T_LN2, 0.30, 0.28))


class TestLeakage:
    def test_reference_point_is_unity(self, logic):
        assert logic.leakage_factor(OP_ROOM) == pytest.approx(1.0)

    def test_leakage_collapses_at_77k(self, logic):
        assert logic.leakage_factor(OP_CRYO) < 1e-10

    def test_scaled_vth_safe_only_at_cryo(self, logic):
        """The paper's core claim: V scaling is only feasible cold."""
        cold = logic.leakage_factor(OperatingPoint.at(T_LN2, 0.64, 0.25))
        hot = logic.leakage_factor(OperatingPoint.at(T_ROOM, 0.64, 0.25))
        assert cold < 1e-5
        assert hot > 50.0

    def test_lower_vth_leaks_more(self, logic):
        low_vth = logic.leakage_factor(OperatingPoint.at(T_ROOM, vth_v=0.35))
        high_vth = logic.leakage_factor(OperatingPoint.at(T_ROOM, vth_v=0.45))
        assert low_vth > high_vth

    def test_swing_scales_with_temperature(self, logic):
        assert logic.subthreshold_swing(OP_CRYO) == pytest.approx(
            logic.subthreshold_swing(OP_ROOM) * T_LN2 / T_ROOM
        )


class TestCardValidation:
    def test_rejects_vdd_below_vth(self):
        with pytest.raises(ValueError):
            MOSFETCard(
                name="bad", vdd_nominal_v=0.4, vth_nominal_v=0.5,
                overdrive_exponent_300=1.0, overdrive_exponent_77=0.7,
                drive_speedup_77=1.1, vth_shift_77=0.03,
            )

    def test_rejects_nonpositive_speedup(self):
        with pytest.raises(ValueError):
            MOSFETCard(
                name="bad", vdd_nominal_v=1.0, vth_nominal_v=0.3,
                overdrive_exponent_300=1.0, overdrive_exponent_77=0.7,
                drive_speedup_77=0.0, vth_shift_77=0.03,
            )


class TestDriveProperties:
    @given(
        vdd=st.floats(min_value=0.6, max_value=1.25),
        temp=st.floats(min_value=77.0, max_value=300.0),
    )
    def test_on_current_positive(self, logic, vdd, temp):
        assert logic.on_current(OperatingPoint.at(temp, vdd, 0.25)) > 0

    @given(temp=st.floats(min_value=77.0, max_value=300.0))
    def test_delay_factor_inverse_of_speedup(self, logic, temp):
        factor = logic.gate_delay_factor(OperatingPoint.at(temp))
        speedup = logic.delay_speedup(OperatingPoint.at(temp))
        assert factor * speedup == pytest.approx(1.0)

    @given(
        vth=st.floats(min_value=0.25, max_value=0.45),
        temp=st.floats(min_value=77.0, max_value=300.0),
    )
    def test_leakage_monotone_in_vth(self, logic, vth, temp):
        lower = logic.leakage_factor(OperatingPoint.at(temp, vth_v=vth - 0.02))
        higher = logic.leakage_factor(OperatingPoint.at(temp, vth_v=vth + 0.02))
        assert lower > higher
