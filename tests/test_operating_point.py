"""The OperatingPoint type and the memoized evaluation context.

Results through a warm :class:`~repro.tech.context.TechContext` are
bit-identical to a disabled (always-recompute) context, including after
``clear()``.
"""

from __future__ import annotations

import pytest

from repro.memory.cacti import CactiModel
from repro.noc.link import WireLinkModel
from repro.noc.router import RouterModel
from repro.tech.constants import T_ROOM
from repro.tech.context import (
    TechContext,
    clear_context,
    get_context,
    set_context,
    use_context,
)
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD
from repro.tech.operating_point import OP_77K_NOMINAL, OP_NOC_77K, OperatingPoint
from repro.tech.wire import CryoWireModel


# ----------------------------------------------------------------------
# The OperatingPoint type
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
