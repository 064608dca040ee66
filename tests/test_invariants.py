"""Physical-invariant suite: the monotonicity laws behind Fig. 5's
argument, asserted on one operating-point grid."""

import pytest

from repro.tech.metal import FREEPDK45_STACK
from repro.tech.operating_point import OperatingPoint
from repro.tech.wire import CryoWireModel

LAYERS = sorted(FREEPDK45_STACK.layers)

#: The grid every law is asserted on: the two calibration anchors, the
#: paper's 135 K validation point and two interior temperatures (K) ...
TEMPERATURES = (77.0, 135.0, 200.0, 250.0, 300.0)
#: ... and intra-core forwarding, a semi-global run, a 2 mm NoC link and
#: the 6 mm validation link (um). ``test_repeater.py`` reuses it.
LENGTHS_UM = (200.0, 1000.0, 2000.0, 6000.0)


@pytest.fixture(scope="module")
def model():
    return CryoWireModel()


class TestMonotonicityLaws:
    """R/um and wire delay are monotone in temperature, delay strictly
    increases with length, and 77 K is never slower than 300 K."""

    @pytest.mark.parametrize("layer", LAYERS)
    def test_resistance_monotone_in_temperature(self, model, layer):
        metal = model.stack.layers[layer]
        values = [
            metal.resistance_per_um(OperatingPoint.at(t)) for t in TEMPERATURES
        ]
        assert values == sorted(values)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_unrepeated_delay_monotone_in_temperature(self, model, layer):
        for length in LENGTHS_UM:
            delays = [
                model.unrepeated_delay(layer, length, OperatingPoint.at(t))
                for t in TEMPERATURES
            ]
            assert delays == sorted(delays), length

    @pytest.mark.parametrize("layer", LAYERS)
    def test_cryo_delay_never_exceeds_room_delay(self, model, layer):
        for length in LENGTHS_UM:
            cold = model.unrepeated_delay(layer, length, OperatingPoint.at(77.0))
            warm = model.unrepeated_delay(layer, length, OperatingPoint.at(300.0))
            assert cold <= warm

    @pytest.mark.parametrize("layer", LAYERS)
    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_delays_strictly_increase_with_length(self, model, layer, temperature):
        op = OperatingPoint.at(temperature)
        for fn in (model.unrepeated_delay, model.repeated_delay):
            delays = [fn(layer, length, op) for length in LENGTHS_UM]
            assert all(lo < hi for lo, hi in zip(delays, delays[1:]))


class TestDegradedPathEquivalence:
    """The Elmore fallback must track the exact solver closely enough
    that a degraded run is still quantitatively useful."""

    @pytest.mark.parametrize("layer", LAYERS)
    def test_elmore_within_bound_of_exact_t50(self, layer):
        import numpy as np

        from repro.circuits.rc_line import RCLadder

        metal = FREEPDK45_STACK.layers[layer]
        op = OperatingPoint.at(77.0)
        length = 2000.0
        n = 64
        total_r = metal.resistance_per_um(op) * length
        total_c = metal.capacitance_f_per_um * length * 1e-15
        sections = [(total_r / n, total_c / n)] * n
        exact = RCLadder(120.0, sections, load_c_f=2e-15).crossing_time(0.5)

        broken = RCLadder(120.0, sections, load_c_f=2e-15)
        broken._degrade("forced for equivalence test")
        degraded = broken.crossing_time(0.5)
        assert degraded == pytest.approx(exact, rel=0.15)
