"""The multi-stage cryostat layer: stages, links, ledger, degeneracy."""

import math

import pytest

from repro.power.cooling import COOLING_OVERHEAD_77K, carnot_cooling_overhead
from repro.power.tco import (
    TemperatureOptimizer,
    cryostat_tco_w,
    COOLER_CAPEX_FACTOR,
    LN2_INVENTORY_FACTOR,
)
from repro.thermal.cryostat import ComponentPlacement, Cryostat, standard_stack
from repro.thermal.stage import (
    InterStageLink,
    STAGE_300K,
    STAGE_4K,
    STAGE_77K,
    ThermalStage,
    electrical_link,
    optical_link,
)


class TestThermalStage:
    def test_77k_stage_pins_measured_overhead(self):
        assert STAGE_77K.cooling_overhead == COOLING_OVERHEAD_77K

    def test_4k_stage_uses_one_percent_of_carnot(self):
        expected = carnot_cooling_overhead(4.0, carnot_fraction=0.01)
        assert STAGE_4K.cooling_overhead == expected
        assert STAGE_4K.cooling_overhead == pytest.approx(7400.0, rel=0.01)

    def test_ambient_stage_has_zero_overhead(self):
        assert STAGE_300K.cooling_overhead == 0.0
        assert STAGE_300K.is_ambient

    def test_override_wins(self):
        stage = ThermalStage("pinned", 40.0, overhead_override=123.0)
        assert stage.cooling_overhead == 123.0

    def test_rejects_nonphysical_temperature(self):
        for bad in (0.0, -4.0, float("nan")):
            with pytest.raises(ValueError):
                ThermalStage("bad", bad)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ThermalStage("", 77.0)


class TestInterStageLink:
    def test_cold_heatload_is_conducted_plus_dissipated(self):
        link = InterStageLink(
            "x", "electrical", "300K", "77K",
            conducted_w=0.5, dissipated_w=0.25,
        )
        assert link.cold_heatload_w == 0.75

    def test_electrical_link_scales_with_lanes(self):
        one = electrical_link("300K", "77K", lanes=1)
        many = electrical_link("300K", "77K", lanes=10)
        assert many.conducted_w == pytest.approx(10 * one.conducted_w)
        assert many.dissipated_w == pytest.approx(10 * one.dissipated_w)
        assert many.hot_side_w == pytest.approx(10 * one.hot_side_w)

    def test_optical_conducts_less_but_drives_hotter(self):
        """The CO-QLink trade: cold heatload shrinks, hot-side power grows."""
        e = electrical_link("300K", "77K", lanes=8)
        o = optical_link("300K", "77K", lanes=8)
        assert o.cold_heatload_w < e.cold_heatload_w
        assert o.hot_side_w > e.hot_side_w

    def test_rejects_bad_kind_and_negative_watts(self):
        with pytest.raises(ValueError):
            InterStageLink(
                "x", "pneumatic", "300K", "77K",
                conducted_w=0.0, dissipated_w=0.0,
            )
        with pytest.raises(ValueError):
            InterStageLink(
                "x", "electrical", "300K", "77K",
                conducted_w=-1.0, dissipated_w=0.0,
            )

    def test_rejects_nonpositive_lanes(self):
        with pytest.raises(ValueError):
            electrical_link("300K", "77K", lanes=0)


class TestCryostatConstruction:
    def test_standard_stack_shapes(self):
        assert [s.name for s in standard_stack()] == ["300K", "77K", "4K"]
        assert [s.name for s in standard_stack(include_4k=False)] == [
            "300K",
            "77K",
        ]

    def test_standard_stack_overhead_grows_warm_to_cold(self):
        overheads = [s.cooling_overhead for s in standard_stack(include_4k=True)]
        assert all(warm < cold for warm, cold in zip(overheads, overheads[1:]))

    def test_rejects_unordered_stages(self):
        with pytest.raises(ValueError, match="warm to cold"):
            Cryostat([STAGE_77K, STAGE_300K])

    def test_rejects_duplicate_stage_names(self):
        with pytest.raises(ValueError, match="unique"):
            Cryostat([STAGE_300K, ThermalStage("300K", 77.0)])

    def test_rejects_link_to_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            Cryostat(
                standard_stack(),
                links=[electrical_link("300K", "40K")],
            )

    def test_rejects_cold_to_hot_link(self):
        with pytest.raises(ValueError, match="warmer"):
            Cryostat(
                standard_stack(),
                links=[electrical_link("77K", "300K")],
            )

    def test_rejects_component_placed_twice(self):
        with pytest.raises(ValueError, match="placed twice"):
            Cryostat(
                standard_stack(),
                placements=[
                    ComponentPlacement("core", "77K", 1.0),
                    ComponentPlacement("core", "300K", 1.0),
                ],
            )

    def test_rejects_placement_on_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown stage"):
            Cryostat(
                standard_stack(),
                placements=[ComponentPlacement("core", "40K", 1.0)],
            )


@pytest.fixture
def reference():
    return Cryostat(
        standard_stack(),
        links=[
            electrical_link("300K", "77K", lanes=64, name="host-io"),
            electrical_link("77K", "4K", lanes=16, name="ctrl-io"),
        ],
        placements=[
            ComponentPlacement("core", "77K", 10.0),
            ComponentPlacement("dram", "300K", 20.0),
            ComponentPlacement("qctrl", "4K", 0.05),
        ],
    )


class TestLedger:
    def test_ledger_conserves_heat(self, reference):
        for stage in reference.ledger().stages:
            assert stage.lifted_w == stage.device_w + stage.link_heat_w
            assert stage.cooling_w == pytest.approx(
                stage.lifted_w * stage.cooling_overhead
            )
            assert stage.wall_plug_w == pytest.approx(
                stage.device_w + stage.cooling_w
            )

    def test_link_heat_charged_to_cold_stage(self, reference):
        ledger = reference.ledger()
        ctrl_io = reference.links[1]
        assert ledger.stage("4K").link_heat_w == ctrl_io.cold_heatload_w
        host_io = reference.links[0]
        assert ledger.stage("77K").link_heat_w == host_io.cold_heatload_w

    def test_hot_side_power_charged_to_hot_stage(self, reference):
        ledger = reference.ledger()
        host_io, ctrl_io = reference.links
        assert ledger.stage("300K").device_w == 20.0 + host_io.hot_side_w
        assert ledger.stage("77K").device_w == 10.0 + ctrl_io.hot_side_w

    def test_totals_sum_stages(self, reference):
        ledger = reference.ledger()
        assert ledger.wall_plug_w == pytest.approx(
            sum(s.wall_plug_w for s in ledger.stages)
        )
        assert reference.wall_plug_w() == ledger.wall_plug_w

    def test_to_dict_round_trips_the_numbers(self, reference):
        payload = reference.ledger().to_dict()
        assert {s["stage"] for s in payload["stages"]} == {"300K", "77K", "4K"}
        assert payload["totals"]["wall_plug_w"] == pytest.approx(
            reference.wall_plug_w()
        )
        for stage in payload["stages"]:
            assert stage["lifted_w"] == stage["device_w"] + stage["link_heat_w"]

    def test_moving_colder_never_cheaper(self, reference):
        base = reference.wall_plug_w()
        for component, colder in (
            ("dram", "77K"),
            ("dram", "4K"),
            ("core", "4K"),
        ):
            moved = reference.with_placement(component, colder)
            assert moved.wall_plug_w() >= base

    def test_4k_watt_costs_three_orders_more_than_77k(self):
        at_77 = Cryostat.two_stage(77.0, 1.0).wall_plug_w()
        at_4 = Cryostat.two_stage(4.0, 1.0, carnot_fraction=0.01).wall_plug_w()
        assert at_4 / at_77 > 500.0


class TestDegenerateTwoStage:
    """The historic closed form must come back bit-identically."""

    def test_bit_identical_to_closed_form(self):
        for temperature, device in (
            (77.0, 1.0),
            (77.0, 0.123456789),
            (135.0, 2.5),
            (250.0, 0.001),
        ):
            overhead = carnot_cooling_overhead(temperature)
            wall = Cryostat.two_stage(
                temperature, device, overhead=overhead
            ).wall_plug_w()
            assert wall == device * (1.0 + overhead)

    def test_ambient_collapses_to_device_power(self):
        assert Cryostat.two_stage(300.0, 7.5).wall_plug_w() == 7.5
        assert Cryostat.two_stage(350.0, 7.5).wall_plug_w() == 7.5

    def test_temperature_point_evaluates_through_cryostat(self):
        optimizer = TemperatureOptimizer(1.0, 1.85)
        for temperature in (77.0, 100.0, 135.0, 200.0, 300.0):
            point = optimizer.point(temperature)
            assert point.total_power_rel == point.device_power_rel * (
                1.0 + point.cooling_overhead
            )

    def test_tco_agrees_with_closed_form(self):
        optimizer = TemperatureOptimizer(1.0, 1.85)
        point = optimizer.point(100.0)
        cryostat = Cryostat.two_stage(
            100.0, point.device_power_rel, overhead=point.cooling_overhead
        )
        assert cryostat_tco_w(cryostat) == point.tco_rel

    def test_multi_stage_tco_prices_every_stage(self, reference):
        ledger = reference.ledger()
        cold_device = sum(
            s.device_w for s in ledger.stages if s.temperature_k < 300.0
        )
        expected = (
            ledger.wall_plug_w
            + COOLER_CAPEX_FACTOR * ledger.cooling_w
            + LN2_INVENTORY_FACTOR * cold_device
        )
        assert cryostat_tco_w(reference) == pytest.approx(expected)


class TestLerpClamp:
    def test_clamps_below_77_and_warns(self):
        from repro.power.tco import _lerp
        from repro.util.guards import use_guards

        with use_guards() as guards:
            assert _lerp(1.0, 2.0, 50.0) == 1.0
            assert _lerp(1.0, 2.0, 350.0) == 2.0
        findings = guards.to_dicts()
        assert len(findings) == 2
        assert all(f["site"] == "tco.lerp" for f in findings)
        assert all("clamped" in f["message"] for f in findings)

    def test_silent_inside_the_anchors(self):
        from repro.power.tco import _lerp
        from repro.util.guards import use_guards

        with use_guards() as guards:
            mid = _lerp(1.0, 2.0, 188.5)
        assert guards.to_dicts() == []
        assert math.isclose(mid, 1.5)
