"""Wire-link model (the CACTI-NUCA role in the paper's toolchain).

The paper extends CACTI-NUCA to cryogenic temperatures to size and time
the NoC's global-wire links. Here the link is a repeated global wire with
CACTI-style energy-conscious buffers: these are *less* cryo-reactive than
the latency-optimal Fig. 5 repeaters (their sizing is driven by
energy-delay, and their drive improves ~2.0x at 77 K rather than 2.4x),
which reproduces the published 3.05x link speed-up at 77 K (Fig. 10)
versus the 3.38x of the latency-optimal global wire.

Links are priced at an :class:`~repro.tech.operating_point.OperatingPoint`;
the underlying repeater optimisations are memoized in the active
:class:`~repro.tech.context.TechContext`, so re-pricing the same hop at
the same point is a cache hit.

Anchors (Section 5.1): a 2 mm inter-router hop costs ~0.064 ns at 300 K,
so a 4 GHz cycle covers 4 hops at 300 K and 12 hops at 77 K.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tech.metal import FREEPDK45_STACK, WireTechnology
from repro.tech.mosfet import MOSFETCard
from repro.tech.operating_point import OP_ROOM, OperatingPoint
from repro.tech.repeater import RepeaterOptimizer

#: CACTI-style link buffers: industry-class transistors sized for
#: energy-delay, with a more conservative cryogenic drive gain.
NOC_LINK_CARD = MOSFETCard(
    name="noc_link_buffer",
    vdd_nominal_v=1.00,
    vth_nominal_v=0.30,
    overdrive_exponent_300=1.0,
    overdrive_exponent_77=0.80,
    drive_speedup_77=1.85,
    vth_shift_77=0.03,
)

#: Physical length of one inter-router hop on the 64-core die (mm).
HOP_LENGTH_MM = 2.0


@dataclass(frozen=True)
class LinkTiming:
    """Resolved timing of one wire link at one operating point."""

    length_mm: float
    temperature_k: float
    delay_ns: float
    n_repeaters: int

    def hops_per_cycle(self, clock_ghz: float) -> int:
        """Whole hops a signal covers within one clock at ``clock_ghz``."""
        if clock_ghz <= 0:
            raise ValueError("clock must be positive")
        per_hop_ns = self.delay_ns / (self.length_mm / HOP_LENGTH_MM)
        return max(int((1.0 / clock_ghz) / per_hop_ns), 1)


class WireLinkModel:
    """Latency of repeated global-wire links at an operating point."""

    def __init__(
        self,
        stack: WireTechnology = FREEPDK45_STACK,
        buffer_card: MOSFETCard = NOC_LINK_CARD,
    ):
        self._optimizer = RepeaterOptimizer(stack.layer("global"), buffer_card)

    def timing(self, length_mm: float, op: OperatingPoint = OP_ROOM) -> LinkTiming:
        """Optimise and time a link of ``length_mm`` at the given point."""
        if length_mm <= 0:
            raise ValueError("length must be positive")
        design = self._optimizer.optimize(length_mm * 1000.0, op)
        return LinkTiming(
            length_mm=length_mm,
            temperature_k=op.temperature_k,
            delay_ns=design.delay_ns,
            n_repeaters=design.n_repeaters,
        )

    def hop_delay_ns(self, op: OperatingPoint = OP_ROOM) -> float:
        """Delay of one standard 2 mm hop at the operating point."""
        return self.timing(HOP_LENGTH_MM, op).delay_ns

    def hops_per_cycle(self, op: OperatingPoint, clock_ghz: float = 4.0) -> int:
        """The paper's '4-hop/cycle at 300 K, 12-hop/cycle at 77 K' figure."""
        return self.timing(HOP_LENGTH_MM, op).hops_per_cycle(clock_ghz)

    def speedup(self, length_mm: float, op: OperatingPoint) -> float:
        """Link speed-up versus 300 K (the Fig. 10 validation quantity)."""
        base = self.timing(length_mm, OP_ROOM).delay_ns
        cold = self.timing(length_mm, op).delay_ns
        return base / cold
