"""Router performance model (the CC-Model router branch, Fig. 6).

A router's critical path is almost entirely logic -- virtual-channel
allocation, switch arbitration, crossbar control -- with only short local
wiring. That transistor dominance is the paper's core NoC observation:
at 77 K routers speed up by only ~9 % at nominal voltage (vs. the 3x+ of
wires), which is why router-based NoCs stop scaling at cryogenic
temperatures while an all-wire bus keeps improving.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.constants import T_ROOM
from repro.tech.context import get_context
from repro.tech.mosfet import FREEPDK45_CARD, MOSFETCard, cryo_mosfet
from repro.tech.operating_point import OP_ROOM, OperatingPoint

#: Share of the router's critical path that is wire (EVA-class VC router
#: synthesised at 45 nm: short intra-router nets only).
ROUTER_WIRE_FRACTION = 0.04

#: Effective speed-up of the router's internal wires at 77 K (short
#: local/semi-global nets; see Fig. 5(a) at sub-100 um lengths).
ROUTER_WIRE_SPEEDUP_77K = 1.6


@dataclass(frozen=True)
class RouterModel:
    """One router design (pipeline depth, VCs) and its timing behaviour.

    ``pipeline_cycles=1`` models the aggressive academia routers the
    paper conservatively assumes for the baselines; ``pipeline_cycles=3``
    models realistic industry routers (Section 5.2.3 evaluates both).
    """

    pipeline_cycles: int = 1
    virtual_channels: int = 4
    buffers_per_vc: int = 3
    base_frequency_ghz: float = 4.0
    card: MOSFETCard = FREEPDK45_CARD

    def __post_init__(self) -> None:
        if self.pipeline_cycles < 1:
            raise ValueError("router needs at least one pipeline cycle")
        if self.virtual_channels < 1 or self.buffers_per_vc < 1:
            raise ValueError("VC configuration must be positive")
        if self.base_frequency_ghz <= 0:
            raise ValueError("base frequency must be positive")

    def _wire_speedup(self, temperature_k: float) -> float:
        # Linear blend between 1.0 at 300 K and the 77 K value, matching
        # the device models' interpolation convention.
        fraction = (T_ROOM - temperature_k) / (T_ROOM - 77.0)
        return 1.0 + (ROUTER_WIRE_SPEEDUP_77K - 1.0) * fraction

    def frequency_ghz(self, op: OperatingPoint = OP_ROOM) -> float:
        """Maximum router clock at the operating point.

        The critical path mixes transistor and (short) wire delay; each
        component scales with its own cryogenic speed-up. Memoized per
        ``(router design, op)`` -- the model is a frozen dataclass.
        """
        return get_context().memo(
            ("router_freq", self, op.key), lambda: self._frequency_ghz(op)
        )

    def _frequency_ghz(self, op: OperatingPoint) -> float:
        mosfet = cryo_mosfet(self.card)
        transistor_part = (1.0 - ROUTER_WIRE_FRACTION) * mosfet.gate_delay_factor(op)
        wire_part = ROUTER_WIRE_FRACTION / self._wire_speedup(op.temperature_k)
        return self.base_frequency_ghz / (transistor_part + wire_part)

    def speedup(self, op: OperatingPoint) -> float:
        """Frequency gain versus 300 K at nominal voltage (~9 % at 77 K)."""
        return self.frequency_ghz(op) / self.frequency_ghz(OP_ROOM)

    def traversal_ns(self, op: OperatingPoint = OP_ROOM) -> float:
        """Time for one packet head to cross the router pipeline."""
        return self.pipeline_cycles / self.frequency_ghz(op)
