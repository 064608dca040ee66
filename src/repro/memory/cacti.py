"""CACTI-like SRAM timing model with cryogenic device scaling.

The paper takes its cache latencies from CACTI-NUCA (300 K) and the
CryoCache work (77 K). This module rebuilds that layer: a cache's access
time is decomposed into device-bound and wire-bound components, each
evaluated through the same cryo models as everything else, so the
"caches get twice as fast at 77 K" input of Table 4 *emerges* from the
physics instead of being assumed:

    access = decode (logic)                         -- transistors
           + wordline + bitline (intra-bank wires)  -- local wires
           + sense + output mux (logic)             -- transistors
           + inter-bank routing (H-tree)            -- semi-global wires

Bank count is optimised per operating point: more banks shorten the
bitlines but lengthen the routing tree, exactly CACTI's trade-off.
Large caches are wire-dominated, which is why they benefit from cooling
far more than the 8 % the logic alone would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.tech.mosfet import FREEPDK45_CARD, MOSFETCard, cryo_mosfet
from repro.tech.operating_point import OP_CRYO, OP_ROOM, OperatingPoint
from repro.tech.wire import CryoWireModel

#: Silicon area per kilobyte of SRAM at the modelled node (mm^2/KB).
AREA_PER_KB_MM2 = 0.016

#: Decoder delay: per address bit, at 300 K / nominal voltage (ns).
DECODE_NS_PER_BIT = 0.030

#: Sense amplifier + output mux + latch (ns at 300 K nominal).
SENSE_NS = 0.25

#: Wordline/bitline load factor: cells hanging on intra-bank wires make
#: them slower than plain routing wire of the same length.
ARRAY_WIRE_LOAD = 2.6


@dataclass(frozen=True)
class CacheTiming:
    """Optimised timing of one cache at one operating point."""

    size_kb: int
    temperature_k: float
    n_banks: int
    decode_ns: float
    array_wire_ns: float
    sense_ns: float
    routing_ns: float

    @property
    def access_ns(self) -> float:
        return self.decode_ns + self.array_wire_ns + self.sense_ns + self.routing_ns

    @property
    def wire_fraction(self) -> float:
        return (self.array_wire_ns + self.routing_ns) / self.access_ns


class CactiModel:
    """SRAM access-time model over the cryogenic device substrate."""

    def __init__(
        self,
        wire_model: Optional[CryoWireModel] = None,
        logic_card: MOSFETCard = FREEPDK45_CARD,
    ):
        self.wires = wire_model if wire_model is not None else CryoWireModel()
        self.logic = cryo_mosfet(logic_card)

    # ------------------------------------------------------------------
    def _bank_geometry_um(self, size_kb: int, n_banks: int) -> float:
        """Edge length (um) of one square bank."""
        bank_area_mm2 = size_kb / n_banks * AREA_PER_KB_MM2
        return math.sqrt(bank_area_mm2) * 1000.0

    def _routing_length_um(self, size_kb: int, n_banks: int) -> float:
        """H-tree routing from the cache port to the farthest bank."""
        if n_banks == 1:
            return 0.0
        total_edge = math.sqrt(size_kb * AREA_PER_KB_MM2) * 1000.0
        # Port at the edge, tree spans half the macro per dimension.
        return total_edge * (1.0 + 0.5 * math.log2(n_banks) / 2.0)

    def timing_with_banks(
        self,
        size_kb: int,
        n_banks: int,
        op: OperatingPoint = OP_ROOM,
    ) -> CacheTiming:
        """Access time for an explicit banking choice."""
        if size_kb <= 0:
            raise ValueError("cache size must be positive")
        if n_banks < 1 or n_banks & (n_banks - 1):
            raise ValueError("bank count must be a positive power of two")
        if size_kb < n_banks:
            raise ValueError("banks cannot be smaller than 1 KB")

        gate = self.logic.gate_delay_factor(op)
        address_bits = math.log2(size_kb * 1024 / n_banks)
        decode = DECODE_NS_PER_BIT * address_bits * gate
        sense = SENSE_NS * gate

        bank_edge = self._bank_geometry_um(size_kb, n_banks)
        # Wordline spans the bank width; the bitline its height; the cell
        # load makes both slower than bare wire.
        array = (
            ARRAY_WIRE_LOAD
            * 2.0
            * self.wires.unrepeated_breakdown("local", bank_edge, op).wire_ns
        )
        routing_len = self._routing_length_um(size_kb, n_banks)
        routing = (
            self.wires.unrepeated_delay("semi_global", routing_len, op)
            if routing_len > 0
            else 0.0
        )
        return CacheTiming(
            size_kb=size_kb,
            temperature_k=op.temperature_k,
            n_banks=n_banks,
            decode_ns=decode,
            array_wire_ns=array,
            sense_ns=sense,
            routing_ns=routing,
        )

    def optimize(
        self,
        size_kb: int,
        op: OperatingPoint = OP_ROOM,
        max_banks: int = 64,
    ) -> CacheTiming:
        """Pick the latency-optimal bank count (CACTI's inner loop)."""
        best: Optional[CacheTiming] = None
        n_banks = 1
        while n_banks <= min(max_banks, size_kb):
            timing = self.timing_with_banks(size_kb, n_banks, op)
            if best is None or timing.access_ns < best.access_ns:
                best = timing
            n_banks *= 2
        assert best is not None
        return best

    def speedup(self, size_kb: int, op: OperatingPoint) -> float:
        """Access-time speed-up at the operating point vs 300 K.

        Both points re-optimise banking, mirroring the paper's
        temperature-optimal design methodology.
        """
        warm = self.optimize(size_kb, OP_ROOM).access_ns
        cold = self.optimize(size_kb, op).access_ns
        return warm / cold

    def table4_check(self) -> Tuple[float, float, float]:
        """(L1, L2, L3-slice) 77 K speed-ups for the Table 4 sizes."""
        return (
            self.speedup(32, OP_CRYO),
            self.speedup(256, OP_CRYO),
            self.speedup(1024, OP_CRYO),
        )
