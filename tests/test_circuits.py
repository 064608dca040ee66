"""Circuit solver: Elmore moments, exact RC ladders, wire simulation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.elmore import (
    elmore_delay_ladder,
    elmore_t50_ladder,
    ladder_sections,
)
from repro.circuits.rc_line import RCLadder
from repro.circuits.simulator import CircuitSimulator
from repro.tech.mosfet import INDUSTRY_2Z_CARD
from repro.tech.repeater import RepeaterOptimizer
from repro.tech.metal import FREEPDK45_STACK
from repro.tech.operating_point import OP_CRYO, OP_ROOM


class TestLadderSections:
    def test_sections_sum_to_totals(self):
        sections = ladder_sections(100.0, 2e-12, 10)
        assert sum(r for r, _ in sections) == pytest.approx(100.0)
        assert sum(c for _, c in sections) == pytest.approx(2e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ladder_sections(1.0, 1e-12, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ladder_sections(-1.0, 1e-12, 4)


class TestElmore:
    def test_single_rc_analytic(self):
        """One R, one C: Elmore moment is exactly RC."""
        delay = elmore_delay_ladder(1000.0, [(0.0, 1e-12)])
        assert delay == pytest.approx(1e-9)

    def test_load_capacitance_counts_full_resistance(self):
        delay = elmore_delay_ladder(1000.0, [(500.0, 0.0 + 1e-18)], load_c_f=1e-12)
        assert delay == pytest.approx(1500.0 * 1e-12, rel=1e-3)

    def test_distributed_limit(self):
        """Many sections converge to R*C/2 for the wire's own charge."""
        total_r, total_c = 1000.0, 1e-12
        delay = elmore_delay_ladder(1e-9, ladder_sections(total_r, total_c, 400))
        assert delay == pytest.approx(total_r * total_c / 2, rel=0.01)

    def test_rejects_negative_driver(self):
        with pytest.raises(ValueError):
            elmore_delay_ladder(-1.0, [(1.0, 1e-12)])


class TestRCLadderExactness:
    def test_single_pole_t50(self):
        """Exact solver on 1 R, 1 C: t50 = RC*ln2."""
        ladder = RCLadder(1000.0, [(0.0, 1e-12)])
        assert ladder.crossing_time(0.5) == pytest.approx(
            1e-9 * math.log(2.0), rel=1e-6
        )

    def test_output_monotone(self):
        ladder = RCLadder(1000.0, ladder_sections(500.0, 1e-12, 8))
        times = [i * 1e-10 for i in range(1, 40)]
        voltages = [ladder.output_voltage(t) for t in times]
        assert voltages == sorted(voltages)

    def test_final_value_is_one(self):
        ladder = RCLadder(1000.0, ladder_sections(500.0, 1e-12, 8))
        assert ladder.output_voltage(1e-6) == pytest.approx(1.0, abs=1e-6)

    def test_initial_value_is_zero(self):
        ladder = RCLadder(1000.0, ladder_sections(500.0, 1e-12, 8))
        assert ladder.output_voltage(0.0) == pytest.approx(0.0, abs=1e-9)

    def test_elmore_t50_close_to_exact(self):
        """The 0.69*Elmore estimate matches the exact t50 within ~15 %."""
        driver, sections = 2000.0, ladder_sections(800.0, 2e-12, 60)
        exact = RCLadder(driver, sections).crossing_time(0.5)
        estimate = elmore_t50_ladder(driver, sections)
        assert estimate == pytest.approx(exact, rel=0.15)

    def test_transient_summary(self):
        result = RCLadder(1000.0, ladder_sections(500.0, 1e-12, 8)).transient()
        assert result.t90_s > result.t50_s > 0
        assert result.t50_ns == pytest.approx(result.t50_s * 1e9)

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError):
            RCLadder(1000.0, [])

    def test_rejects_bad_threshold(self):
        ladder = RCLadder(1000.0, [(0.0, 1e-12)])
        with pytest.raises(ValueError):
            ladder.crossing_time(1.5)

    @settings(max_examples=25, deadline=None)
    @given(
        driver=st.floats(min_value=100.0, max_value=1e5),
        total_r=st.floats(min_value=1.0, max_value=1e4),
        total_c=st.floats(min_value=1e-15, max_value=1e-11),
    )
    def test_t50_below_t90_property(self, driver, total_r, total_c):
        ladder = RCLadder(driver, ladder_sections(total_r, total_c, 12))
        result = ladder.transient()
        assert 0 < result.t50_s < result.t90_s


class TestCircuitSimulator:
    def test_wire_delay_positive_and_length_monotone(self):
        sim = CircuitSimulator()
        short = sim.simulate_driven_wire("global", 1000.0, driver_r_ohm=500.0)
        long = sim.simulate_driven_wire("global", 4000.0, driver_r_ohm=500.0)
        assert 0 < short < long

    def test_agrees_with_analytic_repeater_model(self):
        """The Fig. 10 methodology: circuit sim vs Elmore optimiser."""
        optimizer = RepeaterOptimizer(
            FREEPDK45_STACK.layer("global"), INDUSTRY_2Z_CARD
        )
        sim = CircuitSimulator(driver_card=INDUSTRY_2Z_CARD)
        design = optimizer.optimize(6000.0)
        measured = sim.simulate_design(design)
        assert measured.delay_ns == pytest.approx(design.delay_ns, rel=0.20)

    def test_cold_simulation_faster(self):
        sim = CircuitSimulator()
        warm = sim.simulate_repeated_wire("global", 6000.0, 4, 500.0, OP_ROOM)
        cold = sim.simulate_repeated_wire("global", 6000.0, 4, 500.0, OP_CRYO)
        assert cold.delay_ns < warm.delay_ns

    def test_rejects_degenerate_discretisation(self):
        with pytest.raises(ValueError):
            CircuitSimulator(n_sections=2)

    def test_rejects_bad_repeater_count(self):
        sim = CircuitSimulator()
        with pytest.raises(ValueError):
            sim.simulate_repeated_wire("global", 1000.0, 0, 100.0)
