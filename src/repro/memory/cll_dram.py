"""CLL-DRAM timing decomposition (the 77 K main-memory substrate).

Table 4's DRAM numbers come from CLL-DRAM (Lee et al., ISCA 2019): a
cryogenic DRAM whose random-access latency drops 3.8x at 77 K. As with
the CACTI model, this module rebuilds the input: a DRAM access is
decomposed into components with different temperature behaviour, so the
3.8x *emerges* from the device substrate:

* **wordline / bitline RC** -- polysilicon and metal wires whose
  resistance falls steeply when cooled (the dominant term; CLL-DRAM's
  'charge-sharing-limited latency' insight is that at 77 K the bitline
  swing develops so fast that sensing time collapses);
* **sense amplification** -- latch regeneration, faster at 77 K both
  through the transistors and the larger signal (less leakage-induced
  charge loss);
* **peripheral logic** (decoders, IO) -- ordinary logic, ~8 % faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.constants import T_LN2, T_ROOM, check_temperature
from repro.tech.mosfet import FREEPDK45_CARD, MOSFETCard, cryo_mosfet
from repro.tech.operating_point import OP_ROOM, OperatingPoint

#: 300 K component split of a 60.32 ns random access (ns).
PERIPHERY_NS_300K = 4.0
ARRAY_RC_NS_300K = 38.0
SENSING_NS_300K = 18.32

#: Array RC speed-up at 77 K: wordline poly + bitline metal resistance
#: collapse (CLL-DRAM's measured behaviour).
ARRAY_SPEEDUP_77K = 7.0
#: Sense-amp regeneration speed-up at 77 K (device + signal margin).
SENSING_SPEEDUP_77K = 2.72


@dataclass(frozen=True)
class DramTiming:
    """Decomposed DRAM random-access latency at one temperature."""

    temperature_k: float
    periphery_ns: float
    array_rc_ns: float
    sensing_ns: float

    @property
    def access_ns(self) -> float:
        return self.periphery_ns + self.array_rc_ns + self.sensing_ns


class CllDramModel:
    """Temperature-dependent DRAM access-time model."""

    def __init__(self, logic_card: MOSFETCard = FREEPDK45_CARD):
        self.logic = cryo_mosfet(logic_card)

    def _component_factor(self, speedup_77k: float, temperature_k: float) -> float:
        """Linear-in-T interpolation of a component's delay factor."""
        fraction = (T_ROOM - temperature_k) / (T_ROOM - T_LN2)
        speedup = 1.0 + (speedup_77k - 1.0) * fraction
        return 1.0 / speedup

    def timing(self, op: OperatingPoint = OP_ROOM) -> DramTiming:
        check_temperature(op.temperature_k)
        periphery = PERIPHERY_NS_300K * self.logic.gate_delay_factor(op)
        array = ARRAY_RC_NS_300K * self._component_factor(
            ARRAY_SPEEDUP_77K, op.temperature_k
        )
        sensing = SENSING_NS_300K * self._component_factor(
            SENSING_SPEEDUP_77K, op.temperature_k
        )
        return DramTiming(
            temperature_k=op.temperature_k,
            periphery_ns=periphery,
            array_rc_ns=array,
            sensing_ns=sensing,
        )

    def speedup(self, op: OperatingPoint) -> float:
        """Random-access speed-up at the operating point vs 300 K."""
        return self.timing(OP_ROOM).access_ns / self.timing(op).access_ns
