"""Repeater insertion optimiser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tech.operating_point import OP_CRYO, OP_ROOM, OperatingPoint
from repro.tech.metal import FREEPDK45_STACK
from repro.tech.mosfet import FREEPDK45_CARD, INDUSTRY_2Z_CARD
from repro.tech.repeater import RepeaterOptimizer


@pytest.fixture(scope="module")
def global_opt():
    return RepeaterOptimizer(FREEPDK45_STACK.layer("global"), INDUSTRY_2Z_CARD)


@pytest.fixture(scope="module")
def semi_opt():
    return RepeaterOptimizer(FREEPDK45_STACK.layer("semi_global"), FREEPDK45_CARD)


class TestOptimize:
    def test_2mm_global_link_anchor(self, global_opt):
        """CACTI-NUCA's 0.064 ns for a 2 mm link at 300 K (Section 5.1)."""
        design = global_opt.optimize(2000.0)
        assert design.delay_ns == pytest.approx(0.064, abs=0.010)

    def test_long_wires_get_more_repeaters(self, global_opt):
        short = global_opt.optimize(1000.0)
        long = global_opt.optimize(10000.0)
        assert long.n_repeaters > short.n_repeaters

    def test_optimum_beats_neighbours(self, global_opt):
        design = global_opt.optimize(6220.0)
        for n in (design.n_repeaters - 1, design.n_repeaters + 1):
            if n < 1:
                continue
            alt = global_opt.delay_with(6220.0, n, design.repeater_size)
            assert design.delay_ns <= alt + 1e-12

    def test_delay_monotone_in_length(self, global_opt):
        delays = [global_opt.optimize(length).delay_ns for length in (500, 2000, 8000)]
        assert delays == sorted(delays)

    def test_rejects_nonpositive_length(self, global_opt):
        with pytest.raises(ValueError):
            global_opt.optimize(0.0)

    def test_delay_with_validates_arguments(self, global_opt):
        with pytest.raises(ValueError):
            global_opt.delay_with(1000.0, 0, 10.0)
        with pytest.raises(ValueError):
            global_opt.delay_with(1000.0, 1, 0.5)
        with pytest.raises(ValueError):
            global_opt.delay_with(-1.0, 1, 10.0)


class TestCryogenicSpeedup:
    def test_global_repeated_speedup_anchor(self, global_opt):
        """Fig. 5(b): 6.22 mm repeated global wire reaches ~3.38x."""
        assert global_opt.speedup(6220.0, OP_CRYO) == pytest.approx(3.38, abs=0.15)

    def test_semi_global_repeated_weaker(self, semi_opt, global_opt):
        """Logic-cell repeaters cap the semi-global repeated gain."""
        semi = semi_opt.speedup(900.0, OP_CRYO)
        glob = global_opt.speedup(6220.0, OP_CRYO)
        assert 1.6 < semi < 2.6
        assert semi < glob

    def test_no_speedup_at_room(self, global_opt):
        assert global_opt.speedup(2000.0, OP_ROOM) == pytest.approx(1.0)

    def test_cold_reoptimisation_never_hurts(self, global_opt):
        """Re-optimising at 77 K beats reusing the 300 K design."""
        warm = global_opt.optimize(6220.0, OP_ROOM)
        cold_reused = global_opt.delay_with(
            6220.0, warm.n_repeaters, warm.repeater_size, OP_CRYO
        )
        cold_optimal = global_opt.optimize(6220.0, OP_CRYO).delay_ns
        assert cold_optimal <= cold_reused + 1e-12


class TestDesignRecord:
    def test_per_mm_delay(self, global_opt):
        design = global_opt.optimize(4000.0)
        assert design.delay_per_mm_ns == pytest.approx(design.delay_ns / 4.0)

    def test_is_repeated_flag(self, global_opt):
        assert global_opt.optimize(10000.0).is_repeated
        assert not global_opt.optimize(200.0).is_repeated


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(length=st.floats(min_value=100.0, max_value=20000.0))
    def test_cold_always_at_least_as_fast(self, global_opt, length):
        warm = global_opt.optimize(length, OP_ROOM).delay_ns
        cold = global_opt.optimize(length, OP_CRYO).delay_ns
        assert cold <= warm

    @settings(max_examples=30, deadline=None)
    @given(
        length=st.floats(min_value=100.0, max_value=20000.0),
        temp=st.floats(min_value=77.0, max_value=300.0),
    )
    def test_delay_positive(self, global_opt, length, temp):
        assert global_opt.optimize(length, OperatingPoint.at(temp)).delay_ns > 0
