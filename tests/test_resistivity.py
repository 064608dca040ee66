"""Temperature-dependent resistivity model."""

import pytest
from hypothesis import given, strategies as st

from repro.tech import resistivity
from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.resistivity import CryoResistivityModel, bloch_gruneisen_ratio


class TestBlochGruneisen:
    def test_unity_at_room(self):
        assert bloch_gruneisen_ratio(T_ROOM) == pytest.approx(1.0)

    def test_bulk_copper_drop_at_77k(self):
        # Pure bulk copper drops to ~12 % of its 300 K phonon resistivity.
        ratio = bloch_gruneisen_ratio(T_LN2)
        assert 0.08 < ratio < 0.18

    def test_monotone_in_temperature(self):
        temps = [77, 100, 150, 200, 250, 300]
        ratios = [bloch_gruneisen_ratio(t) for t in temps]
        assert ratios == sorted(ratios)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bloch_gruneisen_ratio(10.0)

    def test_fresh_temperature_costs_one_integral(self, monkeypatch):
        """The 300 K reference integral is computed once per Debye
        temperature, so each temperature the cache has not seen costs one
        quadrature, not two."""
        bloch_gruneisen_ratio(T_LN2)  # copper's reference is now known
        bloch_gruneisen_ratio.cache_clear()
        reduced = []
        integral = resistivity._bloch_gruneisen_integral

        def counting(reduced_temperature):
            reduced.append(reduced_temperature)
            return integral(reduced_temperature)

        monkeypatch.setattr(resistivity, "_bloch_gruneisen_integral", counting)
        bloch_gruneisen_ratio(123.25)
        bloch_gruneisen_ratio(234.75)
        assert len(reduced) == 2


class TestCryoResistivityModel:
    def test_room_value_preserved(self):
        model = CryoResistivityModel(2.8e-2, residual_fraction=0.2)
        assert model.resistivity(T_ROOM) == pytest.approx(2.8e-2, rel=1e-6)

    def test_residual_floor(self):
        model = CryoResistivityModel(2.8e-2, residual_fraction=0.25)
        # Even at the lowest calibrated temperature the residual remains.
        assert model.ratio_vs_room(77.0) > 0.25

    def test_calibrated_ratio_at_77k(self):
        model = CryoResistivityModel.from_cryo_ratio(2.8e-2, 1.0 / 3.69)
        assert model.ratio_vs_room(T_LN2) == pytest.approx(1.0 / 3.69, rel=1e-6)

    def test_from_ratio_rejects_below_phonon_floor(self):
        with pytest.raises(ValueError):
            CryoResistivityModel.from_cryo_ratio(2.8e-2, 0.05)

    def test_from_ratio_rejects_above_one(self):
        with pytest.raises(ValueError):
            CryoResistivityModel.from_cryo_ratio(2.8e-2, 1.2)

    def test_rejects_bad_residual(self):
        with pytest.raises(ValueError):
            CryoResistivityModel(2.8e-2, residual_fraction=1.0)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            CryoResistivityModel(-1.0, residual_fraction=0.1)

    @given(
        residual=st.floats(min_value=0.0, max_value=0.9),
        temp=st.floats(min_value=77.0, max_value=300.0),
    )
    def test_ratio_bounded(self, residual, temp):
        model = CryoResistivityModel(1.0, residual)
        ratio = model.ratio_vs_room(temp)
        assert residual - 1e-9 <= ratio <= 1.0 + 1e-9

    @given(
        t_low=st.floats(min_value=77.0, max_value=200.0),
        delta=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_colder_is_never_more_resistive(self, t_low, delta):
        model = CryoResistivityModel(1.0, 0.2)
        t_high = min(t_low + delta, 300.0)
        assert model.resistivity(t_low) <= model.resistivity(t_high) + 1e-12
