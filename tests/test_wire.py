"""CryoWireModel facade: unrepeated/repeated delays and Fig. 5 anchors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tech.operating_point import OP_CRYO, OP_ROOM, OperatingPoint
from repro.tech.wire import CryoWireModel


class TestUnrepeated:
    def test_forwarding_wire_anchor(self, wire_model):
        """The 1686 um semi-global forwarding wire gains ~2.8x at 77 K."""
        speedup = wire_model.unrepeated_speedup("semi_global", 1686.0, OP_CRYO)
        assert speedup == pytest.approx(2.81, abs=0.15)

    def test_local_long_wire_approaches_295(self, wire_model):
        speedup = wire_model.unrepeated_speedup("local", 2500.0, OP_CRYO)
        assert 2.7 < speedup < 2.96

    def test_semi_global_long_wire_approaches_369(self, wire_model):
        speedup = wire_model.unrepeated_speedup("semi_global", 6000.0, OP_CRYO)
        assert 3.4 < speedup < 3.70

    def test_short_wires_gain_little(self, wire_model):
        """Short wires are driver-dominated: only the ~8 % logic gain."""
        speedup = wire_model.unrepeated_speedup("local", 10.0, OP_CRYO)
        assert 1.0 < speedup < 1.25

    def test_speedup_grows_with_length(self, wire_model):
        speedups = [
            wire_model.unrepeated_speedup("semi_global", length, OP_CRYO)
            for length in (50, 200, 800, 3000)
        ]
        assert speedups == sorted(speedups)

    def test_breakdown_components(self, wire_model):
        breakdown = wire_model.unrepeated_breakdown("semi_global", 1686.0)
        assert breakdown.total_ns == pytest.approx(
            breakdown.transistor_ns + breakdown.wire_ns
        )
        assert 0.0 < breakdown.wire_fraction < 1.0

    def test_long_wire_is_wire_dominated(self, wire_model):
        assert wire_model.unrepeated_breakdown("semi_global", 3000.0).wire_fraction > 0.8

    def test_rejects_negative_length(self, wire_model):
        with pytest.raises(ValueError):
            wire_model.unrepeated_delay("local", -1.0)

    def test_unknown_layer_raises(self, wire_model):
        with pytest.raises(KeyError):
            wire_model.unrepeated_delay("m9", 100.0)


class TestRepeated:
    def test_global_622mm_anchor(self, wire_model):
        assert wire_model.repeated_speedup("global", 6220.0, OP_CRYO) == pytest.approx(
            3.38, abs=0.15
        )

    def test_semi_900um_band(self, wire_model):
        speedup = wire_model.repeated_speedup("semi_global", 900.0, OP_CRYO)
        assert 1.6 < speedup < 2.6

    def test_repeated_beats_unrepeated_for_long_wires(self, wire_model):
        length = 8000.0
        repeated = wire_model.repeated_delay("global", length)
        # A matched unrepeated comparison: single driver, same layer.
        single = wire_model.optimizer("global").delay_with(length, 1, 590.0)
        assert repeated < single


class TestSweep:
    def test_sweep_returns_requested_lengths(self, wire_model):
        lengths = (100.0, 500.0)
        sweep = wire_model.speedup_sweep("local", lengths, OP_CRYO)
        assert set(sweep) == set(lengths)

    def test_room_sweep_is_flat(self, wire_model):
        sweep = wire_model.speedup_sweep("local", (100.0, 1000.0), OP_ROOM)
        for value in sweep.values():
            assert value == pytest.approx(1.0)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        length=st.floats(min_value=1.0, max_value=10000.0),
        temp=st.floats(min_value=77.0, max_value=300.0),
    )
    def test_unrepeated_speedup_at_least_unity(self, wire_model, length, temp):
        op = OperatingPoint.at(temp)
        assert wire_model.unrepeated_speedup("semi_global", length, op) >= 0.999

    @settings(max_examples=40, deadline=None)
    @given(length=st.floats(min_value=10.0, max_value=10000.0))
    def test_delay_monotone_in_length(self, wire_model, length):
        shorter = wire_model.unrepeated_delay("local", length * 0.5)
        longer = wire_model.unrepeated_delay("local", length)
        assert shorter <= longer
