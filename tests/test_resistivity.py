"""Temperature-dependent resistivity model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.resistivity import (
    CryoResistivityModel,
    bloch_gruneisen_ratio,
    bloch_gruneisen_ratio_batch,
)

#: ``bloch_gruneisen_ratio`` for copper as adaptive quadrature
#: (``scipy.integrate.quad``, limit=200) computed it before the fixed
#: Gauss-Legendre rule replaced it.
QUADRATURE_REFERENCE = (
    (60.0, 0.052518206968206006),
    (77.0, 0.10838606058658774),
    (90.0, 0.15822335874553686),
    (100.0, 0.1986991520608232),
    (120.0, 0.28195131075964464),
    (135.0, 0.34481710753668277),
    (150.0, 0.40732487538633233),
    (175.0, 0.5101081609171566),
    (200.0, 0.6109987428534561),
    (225.0, 0.7101727469478349),
    (250.0, 0.8079000042289922),
    (275.0, 0.9044369538276454),
    (300.0, 1.0),
    (350.0, 1.1888697973268356),
    (400.0, 1.3755273163794866),
)


class TestBlochGruneisen:
    def test_unity_at_room(self):
        assert bloch_gruneisen_ratio(T_ROOM) == 1.0

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

    @pytest.mark.parametrize("temperature_k, reference", QUADRATURE_REFERENCE)
    def test_matches_adaptive_quadrature(self, temperature_k, reference):
        assert bloch_gruneisen_ratio(temperature_k) == pytest.approx(
            reference, rel=1e-14
        )

    def test_ratio_does_not_depend_on_its_batch(self):
        """A temperature prices to the same bits alone, inside a
        1000-point batch, inside that batch permuted, and inside a column
        that repeats temperatures (a voltage grid's 720 copies of 77 K,
        then the batch twice over, shuffled)."""
        rng = np.random.default_rng(7)
        temps = rng.uniform(60.0, 400.0, 1000)
        temps[[0, 417, 999]] = (T_LN2, T_ROOM, 135.0)
        alone = np.array([bloch_gruneisen_ratio(t) for t in temps])
        order = rng.permutation(temps.size)
        batch = bloch_gruneisen_ratio_batch(temps)
        assert np.array_equal(batch, alone)
        assert np.array_equal(bloch_gruneisen_ratio_batch(temps[order]), alone[order])
        assert batch[417] == 1.0
        twice = rng.permutation(np.tile(np.arange(temps.size), 2))
        repeats = np.concatenate([np.full(720, T_LN2), temps[twice]])
        expected = np.concatenate([np.full(720, alone[0]), alone[twice]])
        assert np.array_equal(bloch_gruneisen_ratio_batch(repeats), expected)


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
