"""Circuit-level wire simulation at temperature (the Fig. 10 methodology).

:class:`CircuitSimulator` builds RC ladders straight from the metal-layer
geometry and the temperature-dependent resistivity model, solves them
exactly, and reports delays. Repeated wires are simulated as a cascade of
independently solved segments plus the repeaters' intrinsic switching
delay -- the same treatment the paper's Hspice decks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from repro.circuits.elmore import elmore_t50_uniform
from repro.circuits.rc_line import RCLadder
from repro.tech.batch import (
    OperatingPointBatch,
    OperatingPointBatchLike,
    as_operating_point_batch,
    broadcast_lengths,
)
from repro.tech.metal import FREEPDK45_STACK, WireTechnology
from repro.tech.mosfet import CryoMOSFET, INDUSTRY_2Z_CARD, MOSFETCard
from repro.tech.operating_point import OP_ROOM, OperatingPoint
from repro.tech.repeater import (
    DRIVER_CG_FF,
    DRIVER_CP_FF,
    DRIVER_R0_OHM,
    RepeaterDesign,
    RepeaterDesignBatch,
)
from repro.util.guards import (
    check_operating_point,
    check_operating_point_batch,
    validate_wire_geometry,
    validate_wire_geometry_batch,
)

#: Default spatial discretisation of a wire segment.
DEFAULT_SECTIONS = 40


@dataclass(frozen=True)
class WireSimResult:
    """Outcome of a circuit-level wire simulation.

    ``degraded`` is True when any underlying ladder solve fell back to
    the single-pole Elmore estimate (see :class:`repro.circuits.rc_line.RCLadder`).
    """

    layer_name: str
    length_um: float
    temperature_k: float
    n_repeaters: int
    delay_ns: float
    degraded: bool = False


@dataclass(frozen=True)
class WireSimResultBatch:
    """Results of a batch wire estimate (the plural of
    :class:`WireSimResult`: same fields, array-valued columns).

    Produced by :meth:`CircuitSimulator.simulate_batch`, which uses the
    closed-form uniform-ladder Elmore estimate — an analytical path that
    never degrades, so ``degraded`` is a column of ``False``. ``batch[i]``
    yields the scalar :class:`WireSimResult` of point ``i``.
    """

    layer_name: str
    length_um: np.ndarray
    temperature_k: np.ndarray
    n_repeaters: np.ndarray
    delay_ns: np.ndarray
    degraded: np.ndarray

    def __len__(self) -> int:
        return int(self.delay_ns.shape[0])

    def __getitem__(self, index: int) -> WireSimResult:
        return WireSimResult(
            layer_name=self.layer_name,
            length_um=float(self.length_um[index]),
            temperature_k=float(self.temperature_k[index]),
            n_repeaters=int(self.n_repeaters[index]),
            delay_ns=float(self.delay_ns[index]),
            degraded=bool(self.degraded[index]),
        )

    def __iter__(self) -> Iterator[WireSimResult]:
        return (self[i] for i in range(len(self)))


class CircuitSimulator:
    """Transient simulation of (optionally repeated) on-chip wires."""

    def __init__(
        self,
        stack: WireTechnology = FREEPDK45_STACK,
        driver_card: MOSFETCard = INDUSTRY_2Z_CARD,
        *,
        driver_r0_ohm: float = DRIVER_R0_OHM,
        driver_cg_ff: float = DRIVER_CG_FF,
        driver_cp_ff: float = DRIVER_CP_FF,
        n_sections: int = DEFAULT_SECTIONS,
    ):
        if n_sections < 4:
            raise ValueError("n_sections too small for a distributed line")
        self.stack = stack
        self.driver = CryoMOSFET(driver_card)
        self.driver_r0_ohm = driver_r0_ohm
        self.driver_cg_ff = driver_cg_ff
        self.driver_cp_ff = driver_cp_ff
        self.n_sections = n_sections

    def _wire_rc(
        self, layer_name: str, length_um: float, op: OperatingPoint
    ) -> tuple[float, float]:
        layer = self.stack.layer(layer_name)
        total_r = layer.resistance_per_um(op) * length_um
        total_c = layer.capacitance_f_per_um * length_um * 1e-15  # F
        return total_r, total_c

    def simulate_driven_wire(
        self,
        layer_name: str,
        length_um: float,
        op: OperatingPoint = OP_ROOM,
        *,
        driver_r_ohm: float,
        load_c_f: float = 0.0,
    ) -> float:
        """t50 (ns) of one wire driven through ``driver_r_ohm``."""
        delay_ns, _ = self._driven_ladder(
            layer_name, length_um, op, driver_r_ohm=driver_r_ohm, load_c_f=load_c_f
        )
        return delay_ns

    def _driven_ladder(
        self,
        layer_name: str,
        length_um: float,
        op: OperatingPoint,
        *,
        driver_r_ohm: float,
        load_c_f: float,
    ) -> tuple[float, bool]:
        """``(t50_ns, degraded)`` of one driven wire segment."""
        if length_um <= 0:
            raise ValueError("length must be positive")
        op = check_operating_point(op, "circuit_sim.driven_wire")
        validate_wire_geometry(
            length_um, layer_name=layer_name, site="circuit_sim.geometry"
        )
        total_r, total_c = self._wire_rc(layer_name, length_um, op)
        n = self.n_sections
        sections = [(total_r / n, total_c / n)] * n
        ladder = RCLadder(driver_r_ohm, sections, load_c_f)
        return ladder.crossing_time(0.5) * 1e9, ladder.degraded

    def simulate_repeated_wire(
        self,
        layer_name: str,
        length_um: float,
        n_repeaters: int,
        repeater_size: float,
        op: OperatingPoint = OP_ROOM,
    ) -> WireSimResult:
        """Simulate a wire split into ``n_repeaters`` buffered segments.

        Each segment's ladder is solved exactly; the total adds the
        repeaters' intrinsic self-load switching delay (0.69 * R0 * Cp,
        size-independent).
        """
        if n_repeaters < 1:
            raise ValueError("need at least the source driver")
        delay_factor = self.driver.gate_delay_factor(op)
        r_unit = self.driver_r0_ohm * delay_factor
        r_drv = r_unit / repeater_size
        # The segment load: next repeater's input gate (final segment uses
        # the same receiver size, matching the analytical model).
        load_c = repeater_size * self.driver_cg_ff * 1e-15
        seg_len = length_um / n_repeaters
        seg_delay, degraded = self._driven_ladder(
            layer_name,
            seg_len,
            op,
            driver_r_ohm=r_drv,
            load_c_f=load_c,
        )
        intrinsic_ns = 0.69 * r_unit * self.driver_cp_ff * 1e-6  # ohm*fF -> ns
        total = n_repeaters * (seg_delay + intrinsic_ns)
        return WireSimResult(
            layer_name=layer_name,
            length_um=length_um,
            temperature_k=op.temperature_k,
            n_repeaters=n_repeaters,
            delay_ns=total,
            degraded=degraded,
        )

    def simulate_batch(
        self,
        layer_name: str,
        lengths_um,
        n_repeaters,
        repeater_size,
        op: OperatingPointBatchLike = None,
    ) -> WireSimResultBatch:
        """Estimate a batch of repeated wires in one vectorized pass.

        The per-segment ladder is evaluated with the closed-form uniform
        Elmore t50 (:func:`repro.circuits.elmore.elmore_t50_uniform`) at
        the simulator's ``n_sections`` discretisation, plus the
        repeaters' intrinsic switching delay — the analytical mirror of
        :meth:`simulate_repeated_wire`'s exact solve, within the Elmore
        estimate's accuracy. ``n_repeaters`` and ``repeater_size``
        broadcast against the length grid (pass arrays for per-point
        assignments, e.g. from a :class:`RepeaterDesignBatch`).
        """
        batch = check_operating_point_batch(
            as_operating_point_batch(op), "circuit_sim.driven_wire"
        )
        lengths, batch = broadcast_lengths(lengths_um, batch)
        if bool((lengths <= 0).any()):
            raise ValueError("length must be positive")
        validate_wire_geometry_batch(
            lengths, layer_name=layer_name, site="circuit_sim.geometry"
        )
        n = np.broadcast_to(np.asarray(n_repeaters, dtype=float), lengths.shape)
        size = np.broadcast_to(
            np.asarray(repeater_size, dtype=float), lengths.shape
        )
        if bool((n < 1).any()):
            raise ValueError("need at least the source driver")
        layer = self.stack.layer(layer_name)
        r_per_um = layer.resistance_per_um_batch(batch)
        delay_factor = self.driver.gate_delay_factor_batch(batch)
        r_unit = self.driver_r0_ohm * delay_factor
        r_drv = r_unit / size
        load_c = size * self.driver_cg_ff * 1e-15
        seg_len = lengths / n
        total_r = r_per_um * seg_len
        total_c = layer.capacitance_f_per_um * seg_len * 1e-15
        seg_t50_ns = (
            elmore_t50_uniform(r_drv, total_r, total_c, self.n_sections, load_c)
            * 1e9
        )
        intrinsic_ns = 0.69 * r_unit * self.driver_cp_ff * 1e-6  # ohm*fF -> ns
        return WireSimResultBatch(
            layer_name=layer_name,
            length_um=lengths,
            temperature_k=batch.temperature_k,
            n_repeaters=n.astype(int),
            delay_ns=n * (seg_t50_ns + intrinsic_ns),
            degraded=np.zeros(lengths.shape[0], dtype=bool),
        )

    def simulate_design(
        self, design: RepeaterDesign, op: Optional[OperatingPoint] = None
    ) -> WireSimResult:
        """Re-simulate a :class:`RepeaterDesign` at circuit level.

        This is the validation path (Fig. 10): the analytical optimiser
        proposes a design, and the transient solver measures it. With no
        operating point given, the design's own temperature is reused.
        """
        if op is None:
            op = OperatingPoint.at(design.temperature_k)
        return self.simulate_repeated_wire(
            design.layer_name,
            design.length_um,
            design.n_repeaters,
            design.repeater_size,
            op,
        )

    def simulate_design_batch(
        self,
        designs: RepeaterDesignBatch,
        op: OperatingPointBatchLike = None,
    ) -> WireSimResultBatch:
        """Re-estimate a whole :class:`RepeaterDesignBatch` at once.

        The batch validation path: the vectorized optimiser proposes
        designs, this prices them all with the closed-form Elmore
        estimate. With no operating point given, each design's own
        temperature is reused (matching :meth:`simulate_design`).
        """
        if op is None:
            op = OperatingPointBatch.from_grid(designs.temperature_k)
        return self.simulate_batch(
            designs.layer_name,
            designs.length_um,
            designs.n_repeaters,
            designs.repeater_size,
            op,
        )
