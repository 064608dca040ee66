"""Latency-optimal repeater insertion for long wires.

Long wires are broken into ``n`` segments, each driven by a repeater of
size ``h`` (in units of a minimum inverter). Per-segment Elmore delay:

    t_seg = 0.69 * (R0/h) * (c*l + h*(Cg + Cp))     -- driver charging
          + 0.38 * r*l * c*l                        -- distributed wire RC
          + 0.69 * r*l * h*Cg                       -- wire charging next gate

with ``l = L/n``, wire parameters ``r`` (ohm/um) and ``c`` (fF/um) from
the metal layer at the evaluation operating point, and driver parameters
from a MOSFET card (the card's gate-delay factor scales ``R0``).

Closed forms give the optimum size ``h* = sqrt(R0*c / (r*Cg))`` and
repeater count ``n* = L * sqrt(0.38*r*c / (0.69*R0*(Cg+Cp)))``; the
optimizer evaluates the integer neighbours of ``n*`` (plus the unrepeated
case) and returns the best.

Evaluation points are :class:`~repro.tech.operating_point.OperatingPoint`
values, and scalar optimisation results are memoized per ``(layer, driver,
length, op)`` in the active :class:`~repro.tech.context.TechContext` -- the
figure sweeps re-price the same links.
:meth:`RepeaterOptimizer.optimize_batch` computes on every call.

Calibration: the driver constants below make a latency-optimal 2 mm
global-wire link cost ~0.064 ns at 300 K -- the CACTI-NUCA anchor the
paper quotes for its 4 GHz mesh (4 hops/cycle, Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.tech.batch import (
    OperatingPointBatch,
    OperatingPointBatchLike,
    as_operating_point_batch,
    broadcast_lengths,
)
from repro.tech.context import get_context
from repro.util.guards import (
    check_operating_point,
    check_operating_point_batch,
    validate_wire_geometry,
    validate_wire_geometry_batch,
)
from repro.tech.metal import OHM_FF_TO_NS, MetalLayer
from repro.tech.mosfet import CryoMOSFET, MOSFETCard, INDUSTRY_2Z_CARD
from repro.tech.operating_point import OP_ROOM, OperatingPoint

#: Minimum-size driver output resistance (ohm) at 300 K.
DRIVER_R0_OHM = 25_000.0
#: Minimum-size gate input capacitance (fF).
DRIVER_CG_FF = 0.25
#: Minimum-size driver parasitic output capacitance (fF).
DRIVER_CP_FF = 0.25

_SW = 0.69  # switching (step response to 50%) Elmore coefficient
_DW = 0.38  # distributed-wire Elmore coefficient


@dataclass(frozen=True)
class RepeaterDesign:
    """Result of optimising one wire at one operating point."""

    layer_name: str
    length_um: float
    temperature_k: float
    n_repeaters: int
    repeater_size: float
    delay_ns: float

    @property
    def is_repeated(self) -> bool:
        return self.n_repeaters > 1

    @property
    def delay_per_mm_ns(self) -> float:
        return self.delay_ns / (self.length_um / 1000.0)


@dataclass(frozen=True)
class RepeaterDesignBatch:
    """Results of optimising a batch of wires (the plural of
    :class:`RepeaterDesign`: same fields, array-valued columns).

    ``batch[i]`` yields the scalar :class:`RepeaterDesign` of point
    ``i`` — see the "scalar vs batch surface" convention in
    ``docs/ARCHITECTURE.md``.
    """

    layer_name: str
    length_um: np.ndarray
    temperature_k: np.ndarray
    n_repeaters: np.ndarray
    repeater_size: np.ndarray
    delay_ns: np.ndarray

    def __len__(self) -> int:
        return int(self.delay_ns.shape[0])

    def __getitem__(self, index: int) -> RepeaterDesign:
        return RepeaterDesign(
            layer_name=self.layer_name,
            length_um=float(self.length_um[index]),
            temperature_k=float(self.temperature_k[index]),
            n_repeaters=int(self.n_repeaters[index]),
            repeater_size=float(self.repeater_size[index]),
            delay_ns=float(self.delay_ns[index]),
        )

    def __iter__(self) -> Iterator[RepeaterDesign]:
        return (self[i] for i in range(len(self)))

    @property
    def is_repeated(self) -> np.ndarray:
        return self.n_repeaters > 1

    @property
    def delay_per_mm_ns(self) -> np.ndarray:
        return self.delay_ns / (self.length_um / 1000.0)


class RepeaterOptimizer:
    """Optimise repeater count and size for wires on one metal layer.

    Parameters
    ----------
    layer:
        The metal layer the wire runs on.
    driver_card:
        MOSFET card modelling the repeater transistors. The paper drives
        global (NoC) wires with an industry 2z-nm card; intra-core
        semi-global wires are repeated with standard cells from the logic
        library (use :data:`repro.tech.mosfet.FREEPDK45_CARD` there).
    """

    def __init__(
        self,
        layer: MetalLayer,
        driver_card: MOSFETCard = INDUSTRY_2Z_CARD,
        *,
        driver_r0_ohm: float = DRIVER_R0_OHM,
        driver_cg_ff: float = DRIVER_CG_FF,
        driver_cp_ff: float = DRIVER_CP_FF,
    ):
        self.layer = layer
        self.driver = CryoMOSFET(driver_card)
        self.driver_r0_ohm = driver_r0_ohm
        self.driver_cg_ff = driver_cg_ff
        self.driver_cp_ff = driver_cp_ff

    def _spec_key(self) -> tuple:
        """Value identity of this optimiser (for context memoization)."""
        return (
            self.layer,
            self.driver.card,
            self.driver_r0_ohm,
            self.driver_cg_ff,
            self.driver_cp_ff,
        )

    # ------------------------------------------------------------------
    def _driver_resistance(self, op: OperatingPoint) -> float:
        """Unit-driver output resistance at the operating point (ohm)."""
        return get_context().memo(
            ("driver_r", self.driver.card, self.driver_r0_ohm, op.key),
            lambda: self.driver_r0_ohm * self.driver.gate_delay_factor(op),
        )

    def _segment_delay_ns(
        self, r0: float, h: float, r: float, c: float, seg_len_um: float
    ) -> float:
        cg, cp = self.driver_cg_ff, self.driver_cp_ff
        wire_c = c * seg_len_um
        wire_r = r * seg_len_um
        driver = _SW * (r0 / h) * (wire_c + h * (cg + cp))
        distributed = _DW * wire_r * wire_c
        gate_charge = _SW * wire_r * h * cg
        return (driver + distributed + gate_charge) * OHM_FF_TO_NS

    def delay_with(
        self,
        length_um: float,
        n_repeaters: int,
        repeater_size: float,
        op: OperatingPoint = OP_ROOM,
    ) -> float:
        """Delay (ns) of the wire with an explicit repeater assignment."""
        if length_um <= 0:
            raise ValueError("length must be positive")
        if n_repeaters < 1:
            raise ValueError("need at least the source driver (n_repeaters >= 1)")
        if repeater_size < 1.0:
            raise ValueError("repeater size below minimum (1.0)")
        r0 = self._driver_resistance(op)
        r = self.layer.resistance_per_um(op)
        c = self.layer.capacitance_f_per_um
        seg = length_um / n_repeaters
        return n_repeaters * self._segment_delay_ns(r0, repeater_size, r, c, seg)

    def optimize(
        self, length_um: float, op: OperatingPoint = OP_ROOM
    ) -> RepeaterDesign:
        """Find the latency-optimal repeater count and size.

        ``n_repeaters == 1`` means a single driver at the source (an
        'unrepeated' wire in the paper's Fig. 5 terminology). Results
        are memoized per ``(layer, driver, length, op)``. Thin wrapper
        over the length-1 batch kernel (:meth:`optimize_batch` owns the
        formula).
        """
        if length_um <= 0:
            raise ValueError("length must be positive")
        op = check_operating_point(op, "repeater.optimize")
        validate_wire_geometry(
            length_um, layer_name=self.layer.name, site="repeater.geometry"
        )
        return get_context().memo(
            ("repeater_opt", *self._spec_key(), length_um, op.key),
            lambda: self._optimize_batch(
                np.array([float(length_um)]),
                OperatingPointBatch.from_points([op]),
            )[0],
        )

    def optimize_batch(
        self,
        lengths_um,
        op: OperatingPointBatchLike = None,
    ) -> RepeaterDesignBatch:
        """Vectorized :meth:`optimize` over a length grid and a batch.

        Either side broadcasts from length 1; element ``i`` is
        bit-identical to ``optimize(lengths[i], batch[i])``.
        """
        batch = check_operating_point_batch(
            as_operating_point_batch(op), "repeater.optimize"
        )
        lengths, batch = broadcast_lengths(lengths_um, batch)
        if bool((lengths <= 0).any()):
            raise ValueError("length must be positive")
        validate_wire_geometry_batch(
            lengths, layer_name=self.layer.name, site="repeater.geometry"
        )
        return self._optimize_batch(lengths, batch)

    def _optimize_batch(
        self, lengths_um: np.ndarray, batch: OperatingPointBatch
    ) -> RepeaterDesignBatch:
        r0 = self.driver_r0_ohm * self.driver.gate_delay_factor_batch(batch)
        r = self.layer.resistance_per_um_batch(batch)
        c = self.layer.capacitance_f_per_um
        cg, cp = self.driver_cg_ff, self.driver_cp_ff

        h_opt = np.maximum(1.0, np.sqrt(r0 * c / (r * cg)))
        n_cont = lengths_um * np.sqrt((_DW * r * c) / (_SW * r0 * (cg + cp)))
        # Candidate repeater counts, stacked in non-decreasing order so
        # np.argmin's first-minimum rule reproduces the scalar
        # optimizer's sorted-candidates / strict-improvement tie-break.
        candidates = np.stack(
            [
                np.ones_like(n_cont),
                np.maximum(1.0, np.floor(n_cont)),
                np.ceil(n_cont),
            ]
        )
        delays = candidates * self._segment_delay_ns(
            r0, h_opt, r, c, lengths_um / candidates
        )
        pick = np.argmin(delays, axis=0)
        cols = np.arange(lengths_um.shape[0])
        return RepeaterDesignBatch(
            layer_name=self.layer.name,
            length_um=lengths_um,
            temperature_k=batch.temperature_k,
            n_repeaters=candidates[pick, cols].astype(int),
            repeater_size=h_opt,
            delay_ns=delays[pick, cols],
        )

    def speedup(self, length_um: float, op: OperatingPoint) -> float:
        """Delay(300 K, nominal) / delay(at op): > 1 means faster cold.

        Both operating points are independently re-optimised, matching
        the paper's methodology of generating a temperature-optimal
        design rather than reusing the 300 K repeater placement.
        """
        base = self.optimize(length_um, OP_ROOM).delay_ns
        cold = self.optimize(length_um, op).delay_ns
        return base / cold
