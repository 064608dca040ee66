"""CryoWireModel: the wire-delay facade used by the architecture models.

This is the ``cryo-wire`` box of CC-Model (Fig. 6): given a metal-layer
specification it produces geometry-aware wire delays at any
:class:`~repro.tech.operating_point.OperatingPoint`, for both unrepeated
(logic-driven) and repeated wires, together with the transistor/wire
delay decomposition the critical-path analysis needs. Scalar unrepeated
breakdowns are memoized per ``(layer, driver card, length, op, load)``
in the active :class:`~repro.tech.context.TechContext`, and scalar
repeated wires share the repeater optimiser's memoization; the
``_batch`` methods compute on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence

import numpy as np

from repro.tech.batch import (
    OperatingPointBatch,
    OperatingPointBatchLike,
    as_operating_point_batch,
    broadcast_lengths,
)
from repro.tech.context import get_context
from repro.tech.metal import FREEPDK45_STACK, OHM_FF_TO_NS, MetalLayer, WireTechnology
from repro.tech.mosfet import (
    CryoMOSFET,
    FREEPDK45_CARD,
    INDUSTRY_2Z_CARD,
    MOSFETCard,
)
from repro.tech.operating_point import OP_ROOM, OperatingPoint
from repro.tech.repeater import RepeaterOptimizer

#: Fixed drive time of the logic gate launching an unrepeated wire, at
#: 300 K and nominal voltage (ns). Part of the 'transistor' component.
UNREPEATED_DRIVE_NS = 0.025

#: Receiver load on an unrepeated wire (fF).
UNREPEATED_LOAD_FF = 2.0

_DW = 0.38  # distributed-wire Elmore coefficient
_SW = 0.69


@dataclass(frozen=True)
class WireDelayBreakdown:
    """Delay of one wire split into transistor and wire components (ns)."""

    transistor_ns: float
    wire_ns: float

    @property
    def total_ns(self) -> float:
        return self.transistor_ns + self.wire_ns

    @property
    def wire_fraction(self) -> float:
        total = self.total_ns
        return self.wire_ns / total if total > 0 else 0.0


@dataclass(frozen=True)
class WireDelayBreakdownBatch:
    """Per-point wire-delay decompositions (the plural of
    :class:`WireDelayBreakdown`: same fields, array-valued columns).

    ``batch[i]`` yields the scalar :class:`WireDelayBreakdown` of point
    ``i``; for ``(k, n)`` columns (a column of lengths), ``batch[i, j]``
    is wire ``i`` at point ``j``.
    """

    transistor_ns: np.ndarray
    wire_ns: np.ndarray

    def __len__(self) -> int:
        return int(self.transistor_ns.shape[0])

    def __getitem__(self, index: int) -> WireDelayBreakdown:
        return WireDelayBreakdown(
            transistor_ns=float(self.transistor_ns[index]),
            wire_ns=float(self.wire_ns[index]),
        )

    def __iter__(self) -> Iterator[WireDelayBreakdown]:
        return (self[i] for i in range(len(self)))

    @property
    def total_ns(self) -> np.ndarray:
        return self.transistor_ns + self.wire_ns

    @property
    def wire_fraction(self) -> np.ndarray:
        total = self.total_ns
        # Zero-total points report fraction 0 (scalar parity) without
        # tripping pytest's RuntimeWarning-as-error on 0/0.
        return np.divide(
            self.wire_ns,
            total,
            out=np.zeros_like(total),
            where=total > 0,
        )


class CryoWireModel:
    """Evaluate wire delays at arbitrary operating points.

    Parameters
    ----------
    stack:
        Interconnect stack (defaults to the calibrated 45 nm stack).
    logic_card:
        MOSFET card for logic drivers of unrepeated wires and for
        repeaters on intra-core (local / semi-global) wires.
    repeater_card:
        MOSFET card for repeaters on global wires (the paper's industry
        2z-nm card).
    """

    def __init__(
        self,
        stack: WireTechnology = FREEPDK45_STACK,
        logic_card: MOSFETCard = FREEPDK45_CARD,
        repeater_card: MOSFETCard = INDUSTRY_2Z_CARD,
    ):
        self.stack = stack
        self.logic = CryoMOSFET(logic_card)
        self._optimizers: Dict[str, RepeaterOptimizer] = {}
        for name, layer in stack.layers.items():
            card = repeater_card if name == "global" else logic_card
            self._optimizers[name] = RepeaterOptimizer(layer, card)

    def layer(self, name: str) -> MetalLayer:
        return self.stack.layer(name)

    def optimizer(self, layer_name: str) -> RepeaterOptimizer:
        self.stack.layer(layer_name)  # raise on unknown layer
        return self._optimizers[layer_name]

    # ------------------------------------------------------------------
    # unrepeated (logic-driven) wires -- intra-core forwarding paths
    # ------------------------------------------------------------------
    def unrepeated_breakdown(
        self,
        layer_name: str,
        length_um: float,
        op: OperatingPoint = OP_ROOM,
        load_ff: float = UNREPEATED_LOAD_FF,
    ) -> WireDelayBreakdown:
        """Delay of a logic-driven, unrepeated wire, decomposed.

        The transistor component is the driving gate's intrinsic delay
        (scaled by the logic card); the wire component is the distributed
        RC flight time plus the wire-resistance/receiver-load term. Thin
        wrapper over the length-1 batch kernel.
        """
        if length_um < 0:
            raise ValueError("length must be non-negative")
        layer = self.stack.layer(layer_name)
        return get_context().memo(
            ("unrepeated", layer, self.logic.card, length_um, load_ff, op.key),
            lambda: self._unrepeated_breakdown_batch(
                layer,
                np.array([float(length_um)]),
                OperatingPointBatch.from_points([op]),
                load_ff,
            )[0],
        )

    def unrepeated_breakdown_batch(
        self,
        layer_name: str,
        lengths_um,
        op: OperatingPointBatchLike = None,
        load_ff: float = UNREPEATED_LOAD_FF,
    ) -> WireDelayBreakdownBatch:
        """Vectorized :meth:`unrepeated_breakdown` over lengths and a batch.

        Either side broadcasts from length 1; element ``i`` is
        bit-identical to ``unrepeated_breakdown(lengths[i], batch[i])``.
        A ``(k, 1)`` column of lengths prices ``k`` wires at every point:
        the columns are then ``(k, n)`` and element ``[i, j]`` is
        bit-identical to ``unrepeated_breakdown(lengths[i], batch[j])``.
        """
        batch = as_operating_point_batch(op)
        lengths = np.asarray(lengths_um, dtype=float)
        if lengths.ndim != 2 or lengths.shape[1] != 1:
            lengths, batch = broadcast_lengths(lengths, batch)
        if bool((lengths < 0).any()):
            raise ValueError("length must be non-negative")
        return self._unrepeated_breakdown_batch(
            self.stack.layer(layer_name), lengths, batch, load_ff
        )

    def _unrepeated_breakdown_batch(
        self,
        layer: MetalLayer,
        lengths_um: np.ndarray,
        batch: OperatingPointBatch,
        load_ff: float,
    ) -> WireDelayBreakdownBatch:
        drive = UNREPEATED_DRIVE_NS * self.logic.gate_delay_factor_batch(batch)
        r = layer.resistance_per_um_batch(batch)
        c = layer.capacitance_f_per_um
        flight = _DW * r * c * lengths_um**2 * OHM_FF_TO_NS
        load = _SW * r * lengths_um * load_ff * OHM_FF_TO_NS
        wire = flight + load
        return WireDelayBreakdownBatch(
            transistor_ns=np.broadcast_to(drive, wire.shape), wire_ns=wire
        )

    def unrepeated_delay(
        self, layer_name: str, length_um: float, op: OperatingPoint = OP_ROOM
    ) -> float:
        return self.unrepeated_breakdown(layer_name, length_um, op).total_ns

    def unrepeated_delay_batch(
        self,
        layer_name: str,
        lengths_um,
        op: OperatingPointBatchLike = None,
    ) -> np.ndarray:
        """Vectorized :meth:`unrepeated_delay` (total ns per point)."""
        return self.unrepeated_breakdown_batch(layer_name, lengths_um, op).total_ns

    def unrepeated_speedup(
        self, layer_name: str, length_um: float, op: OperatingPoint
    ) -> float:
        """Speed-up of an unrepeated wire at the operating point vs 300 K."""
        base = self.unrepeated_delay(layer_name, length_um, OP_ROOM)
        cold = self.unrepeated_delay(layer_name, length_um, op)
        return base / cold

    # ------------------------------------------------------------------
    # repeated wires -- NoC links, long buses
    # ------------------------------------------------------------------
    def repeated_delay(
        self, layer_name: str, length_um: float, op: OperatingPoint = OP_ROOM
    ) -> float:
        """Delay (ns) of a latency-optimally repeated wire."""
        return self.optimizer(layer_name).optimize(length_um, op).delay_ns

    def repeated_delay_batch(
        self,
        layer_name: str,
        lengths_um,
        op: OperatingPointBatchLike = None,
    ) -> np.ndarray:
        """Vectorized :meth:`repeated_delay` (optimally repeated, ns)."""
        return self.optimizer(layer_name).optimize_batch(lengths_um, op).delay_ns

    def repeated_speedup(
        self, layer_name: str, length_um: float, op: OperatingPoint
    ) -> float:
        return self.optimizer(layer_name).speedup(length_um, op)

    # ------------------------------------------------------------------
    # sweeps for the Fig. 5 analysis
    # ------------------------------------------------------------------
    def speedup_sweep(
        self,
        layer_name: str,
        lengths_um: Sequence[float],
        op: OperatingPoint,
        repeated: bool = False,
    ) -> Dict[float, float]:
        """Speed-up at the operating point for each length in the sweep.

        Evaluated through the batch kernels (one vectorized pass at the
        sweep point and one at 300 K); the per-length values are
        bit-identical to the scalar ``*_speedup`` methods.
        """
        lengths = list(lengths_um)
        if not lengths:
            return {}
        if repeated:
            base = self.repeated_delay_batch(layer_name, lengths, OP_ROOM)
            cold = self.repeated_delay_batch(layer_name, lengths, op)
        else:
            base = self.unrepeated_delay_batch(layer_name, lengths, OP_ROOM)
            cold = self.unrepeated_delay_batch(layer_name, lengths, op)
        speedups = base / cold
        return {
            length: float(speedups[i]) for i, length in enumerate(lengths)
        }
