"""OperatingPoint currency and memoized evaluation context.

Two families of guarantees:

* **signature equivalence** -- every converted entry point returns a
  bit-identical result whether called with an
  :class:`~repro.tech.operating_point.OperatingPoint` or with the legacy
  ``(temperature_k, vdd_v, vth_v)`` scalar form;
* **memoization transparency** -- results through a warm
  :class:`~repro.tech.context.TechContext` are bit-identical to a
  disabled (always-recompute) context, including after ``clear()``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.simulator import CircuitSimulator
from repro.memory.cacti import CactiModel
from repro.memory.cll_dram import CllDramModel
from repro.noc.latency import AnalyticNocModel
from repro.noc.link import WireLinkModel
from repro.noc.router import RouterModel
from repro.noc.topology import Mesh
from repro.tech import (
    CryoMOSFET,
    FREEPDK45_CARD,
    FREEPDK45_STACK,
    INDUSTRY_2Z_CARD,
    CryoWireModel,
    OP_77K_NOMINAL,
    OP_NOC_77K,
    OperatingPoint,
    RepeaterOptimizer,
    TechContext,
    as_operating_point,
    clear_context,
    get_context,
    set_context,
    use_context,
)
from repro.tech.constants import T_ROOM

#: These tests call the deprecated scalar form on purpose; the notice it
#: draws is the subject of tests/test_batch.py, not a finding here.
LEGACY_FORM_WARNING = "ignore:the legacy scalar operating-point call form:DeprecationWarning"

temperatures = st.floats(min_value=77.0, max_value=300.0)
#: Voltage pairs that keep the overdrive above every card's validity floor.
vdds = st.floats(min_value=0.9, max_value=1.25)
vths = st.floats(min_value=0.2, max_value=0.4)


# ----------------------------------------------------------------------
# The OperatingPoint type and the scalar shim
# ----------------------------------------------------------------------
class TestOperatingPoint:
    def test_key_excludes_name(self):
        a = OperatingPoint("a", 77.0, 0.7, 0.25)
        b = OperatingPoint("b", 77.0, 0.7, 0.25)
        assert a.key == b.key
        assert a != b  # names still distinguish the dataclasses

    def test_at_autonames(self):
        assert OperatingPoint.at(77.0).name == "77K"
        assert OperatingPoint.at(77.0, 0.7, 0.25).name == "77K Vdd=0.7 Vth=0.25"

    def test_with_temperature_keeps_voltages(self):
        swept = OP_NOC_77K.with_temperature(150.0)
        assert swept.temperature_k == 150.0
        assert (swept.vdd_v, swept.vth_v) == (OP_NOC_77K.vdd_v, OP_NOC_77K.vth_v)

    def test_vdd_must_exceed_vth(self):
        with pytest.raises(ValueError):
            OperatingPoint("bad", 77.0, 0.2, 0.3)

    def test_is_cryogenic(self):
        assert OP_77K_NOMINAL.is_cryogenic
        assert not OperatingPoint.at(T_ROOM).is_cryogenic

    @pytest.mark.filterwarnings(LEGACY_FORM_WARNING)
    def test_shim_passthrough_and_defaults(self):
        assert as_operating_point(OP_NOC_77K) is OP_NOC_77K
        assert as_operating_point(None).temperature_k == T_ROOM
        assert as_operating_point(None, default_temperature_k=120.0).temperature_k == 120.0
        coerced = as_operating_point(77, 0.7, 0.25)
        assert coerced.key == (77.0, 0.7, 0.25)

    def test_shim_rejects_point_plus_scalars(self):
        with pytest.raises(TypeError):
            as_operating_point(OP_NOC_77K, vdd_v=0.7)
        with pytest.raises(TypeError):
            as_operating_point(OP_NOC_77K, vth_v=0.25)

    def test_pipeline_reexport_is_same_object(self):
        from repro.pipeline.config import OperatingPoint as PipelineOP

        assert PipelineOP is OperatingPoint


# ----------------------------------------------------------------------
# op-based vs legacy scalar signatures: bit-identical results
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings(LEGACY_FORM_WARNING)
class TestSignatureEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(t=temperatures, vdd=vdds, vth=vths)
    def test_mosfet(self, t, vdd, vth):
        mosfet = CryoMOSFET(FREEPDK45_CARD)
        op = OperatingPoint.at(t, vdd, vth)
        assert mosfet.gate_delay_factor(op) == mosfet.gate_delay_factor(t, vdd, vth)
        assert mosfet.leakage_factor(op) == mosfet.leakage_factor(t, vdd, vth)
        assert mosfet.on_current(op) == mosfet.on_current(t, vdd, vth)
        assert mosfet.effective_vth(op) == mosfet.effective_vth(t, vth_v=vth)

    @settings(max_examples=10, deadline=None)
    @given(t=temperatures)
    def test_wires(self, t):
        wires = CryoWireModel()
        op = OperatingPoint.at(t)
        for layer in ("local", "semi_global", "global"):
            assert wires.unrepeated_delay(layer, 500.0, op) == wires.unrepeated_delay(
                layer, 500.0, t
            )
        assert wires.unrepeated_breakdown(
            "semi_global", 1000.0, op
        ) == wires.unrepeated_breakdown("semi_global", 1000.0, t)

    @settings(max_examples=8, deadline=None)
    @given(t=temperatures)
    def test_repeater_and_metal(self, t):
        optimizer = RepeaterOptimizer(
            FREEPDK45_STACK.layer("global"), INDUSTRY_2Z_CARD
        )
        op = OperatingPoint.at(t)
        assert optimizer.optimize(6220.0, op) == optimizer.optimize(6220.0, t)
        layer = FREEPDK45_STACK.layer("global")
        assert layer.resistance_per_um(op) == layer.resistance_per_um(t)

    @settings(max_examples=8, deadline=None)
    @given(t=temperatures)
    def test_noc(self, t):
        links = WireLinkModel()
        router = RouterModel()
        op = OperatingPoint.at(t)
        assert links.hop_delay_ns(op) == links.hop_delay_ns(t)
        assert links.timing(2.0, op) == links.timing(2.0, t)
        assert router.frequency_ghz(op) == router.frequency_ghz(t)
        assert router.traversal_ns(op) == router.traversal_ns(t)

    @settings(max_examples=6, deadline=None)
    @given(t=temperatures)
    def test_circuits_and_memory(self, t):
        sim = CircuitSimulator()
        op = OperatingPoint.at(t)
        assert sim.simulate_repeated_wire(
            "global", 4000.0, 4, 60.0, op
        ) == sim.simulate_repeated_wire("global", 4000.0, 4, 60.0, t)
        cacti = CactiModel()
        assert cacti.optimize(256, op) == cacti.optimize(256, t)
        dram = CllDramModel()
        assert dram.timing(op) == dram.timing(t)

    def test_analytic_noc_model_op_kwarg(self):
        legacy = AnalyticNocModel(
            topology=Mesh(64),
            temperature_k=OP_NOC_77K.temperature_k,
            vdd_v=OP_NOC_77K.vdd_v,
            vth_v=OP_NOC_77K.vth_v,
        )
        modern = AnalyticNocModel(topology=Mesh(64), op=OP_NOC_77K)
        assert modern.clock_ghz == legacy.clock_ghz
        assert modern.hops_per_cycle == legacy.hops_per_cycle
        assert modern.one_way(0.5) == legacy.one_way(0.5)

    def test_analytic_noc_model_rejects_both_forms(self):
        with pytest.raises(TypeError):
            AnalyticNocModel(topology=Mesh(64), op=OP_NOC_77K, temperature_k=77.0)


# ----------------------------------------------------------------------
# Memoization: transparent, observable, clearable
# ----------------------------------------------------------------------
class TestTechContext:
    def test_memoized_results_bit_identical_to_uncached(self):
        op = OperatingPoint.at(77.0, 0.7, 0.25)

        def evaluate():
            wires = CryoWireModel()
            links = WireLinkModel()
            cacti = CactiModel()
            return (
                CryoMOSFET(FREEPDK45_CARD).gate_delay_factor(op),
                CryoMOSFET(FREEPDK45_CARD).leakage_factor(op),
                wires.unrepeated_breakdown("semi_global", 1686.0, op),
                links.timing(2.0, op),
                RouterModel().frequency_ghz(op),
                cacti.optimize(1024, op),
            )

        with use_context(TechContext(enabled=False)):
            uncached = evaluate()
        with use_context(TechContext()) as ctx:
            cold = evaluate()
            warm = evaluate()  # every lookup now hits
            assert ctx.hits > 0
            ctx.clear()
            assert len(ctx) == 0 and ctx.hits == 0
            cleared = evaluate()  # recomputed from scratch
        assert uncached == cold == warm == cleared

    def test_hit_miss_accounting(self):
        with use_context(TechContext()) as ctx:
            mosfet = CryoMOSFET(FREEPDK45_CARD)
            mosfet.gate_delay_factor(OperatingPoint.at(77.0))
            assert (ctx.hits, ctx.misses) == (0, 1)
            mosfet.gate_delay_factor(OperatingPoint.at(77.0))
            assert (ctx.hits, ctx.misses) == (1, 1)
            # A differently-named but electrically identical point hits.
            mosfet.gate_delay_factor(OperatingPoint("label", 77.0))
            assert (ctx.hits, ctx.misses) == (2, 1)
            stats = ctx.stats()
            assert stats.families["gate_delay"] == (2, 1)
            assert stats.hit_rate == pytest.approx(2 / 3)
            assert "gate_delay" in stats.to_text()

    def test_disabled_context_counts_misses(self):
        with use_context(TechContext(enabled=False)) as ctx:
            mosfet = CryoMOSFET(FREEPDK45_CARD)
            mosfet.gate_delay_factor(OperatingPoint.at(77.0))
            mosfet.gate_delay_factor(OperatingPoint.at(77.0))
            assert (ctx.hits, ctx.misses) == (0, 2)
            assert len(ctx) == 0

    def test_use_context_restores_previous(self):
        before = get_context()
        with use_context(TechContext()) as ctx:
            assert get_context() is ctx
        assert get_context() is before

    def test_set_context_returns_previous(self):
        before = get_context()
        fresh = TechContext()
        assert set_context(fresh) is before
        try:
            assert get_context() is fresh
        finally:
            set_context(before)

    def test_clear_context_clears_active(self):
        get_context().memo(("test_family", "x"), lambda: 1)
        clear_context()
        assert get_context().stats().lookups == 0
