"""Metal-layer geometry and the 45 nm wire stack.

The paper classifies wires into three populations (Section 2.1):

* **local** wires -- thinnest, connect adjacent gates inside a unit;
* **semi-global** wires -- middle layers, connect microarchitectural units
  inside a core (the data-forwarding wires live here);
* **global** wires -- thickest, used by the NoC (inter-core wires).

Each :class:`MetalLayer` owns a calibrated :class:`CryoResistivityModel`
so that per-unit-length resistance can be evaluated at any temperature.
Capacitance per unit length is treated as temperature-independent (the
dielectric constant of the ILD barely moves between 77 K and 300 K).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.tech.batch import OperatingPointBatchLike, as_operating_point_batch
from repro.tech.context import get_context
from repro.tech.operating_point import OP_ROOM, OperatingPoint
from repro.tech.resistivity import CryoResistivityModel
from repro.util.guards import check_operating_point, check_operating_point_batch


@dataclass(frozen=True)
class MetalLayer:
    """One metal-layer population of the interconnect stack.

    Attributes
    ----------
    name:
        ``"local"``, ``"semi_global"`` or ``"global"``.
    width_um / thickness_um:
        Drawn wire cross-section.
    capacitance_f_per_um:
        Total (ground + coupling) capacitance per micron, in femtofarads.
    resistivity:
        Calibrated temperature-dependent resistivity model.
    """

    name: str
    width_um: float
    thickness_um: float
    capacitance_f_per_um: float
    resistivity: CryoResistivityModel

    def __post_init__(self) -> None:
        if min(self.width_um, self.thickness_um, self.capacitance_f_per_um) <= 0:
            raise ValueError(f"layer {self.name}: geometry must be positive")

    @property
    def cross_section_um2(self) -> float:
        return self.width_um * self.thickness_um

    def resistance_per_um(self, op: OperatingPoint = OP_ROOM) -> float:
        """Wire resistance per micron (ohm/um) at the operating point.

        Wires only care about the temperature component of ``op``.
        """
        temperature_k = check_operating_point(op, "metal.wire_resistance").temperature_k
        return get_context().memo(
            ("wire_r", self, temperature_k),
            lambda: float(self._resistance_per_um_raw([temperature_k])[0]),
        )

    def resistance_per_um_batch(
        self, op: OperatingPointBatchLike = None
    ) -> np.ndarray:
        """Vectorized :meth:`resistance_per_um` over an operating-point batch.

        Wires read only the temperature column.
        """
        batch = check_operating_point_batch(
            as_operating_point_batch(op), "metal.wire_resistance"
        )
        return self._resistance_per_um_raw(batch.temperature_k)

    def _resistance_per_um_raw(self, temperature_k) -> np.ndarray:
        return (
            self.resistivity.resistivity_batch(temperature_k)
            / self.cross_section_um2
        )

    def rc_per_um2(self, op: OperatingPoint = OP_ROOM) -> float:
        """Distributed RC product per squared micron (ohm*fF/um^2).

        Multiplying by a length squared (um^2) yields ohm*fF, which is
        1e-6 ns; callers convert with ``OHM_FF_TO_NS``.
        """
        return self.resistance_per_um(op) * self.capacitance_f_per_um

    def speedup_at(self, op: OperatingPoint) -> float:
        """Asymptotic RC-wire speed-up at the operating point vs 300 K.

        For a long wire whose delay is dominated by its own distributed
        RC, delay scales with resistivity, so the speed-up is simply the
        inverse resistivity ratio.
        """
        return 1.0 / self.resistivity.ratio_vs_room(op.temperature_k)

#: ohm * femtofarad expressed in nanoseconds.
OHM_FF_TO_NS = 1e-6


def _layer(
    name: str,
    width_um: float,
    thickness_um: float,
    capacitance_f_per_um: float,
    rho_300k_ohm_um: float,
    ratio_at_77k: float,
) -> MetalLayer:
    return MetalLayer(
        name=name,
        width_um=width_um,
        thickness_um=thickness_um,
        capacitance_f_per_um=capacitance_f_per_um,
        resistivity=CryoResistivityModel.from_cryo_ratio(rho_300k_ohm_um, ratio_at_77k),
    )


@dataclass(frozen=True)
class WireTechnology:
    """A named interconnect stack (collection of metal layers)."""

    name: str
    layers: Dict[str, MetalLayer] = field(default_factory=dict)

    def layer(self, name: str) -> MetalLayer:
        try:
            return self.layers[name]
        except KeyError:
            raise KeyError(
                f"unknown metal layer {name!r}; available: {sorted(self.layers)}"
            ) from None

    @property
    def local(self) -> MetalLayer:
        return self.layer("local")

    @property
    def semi_global(self) -> MetalLayer:
        return self.layer("semi_global")

    @property
    def global_(self) -> MetalLayer:
        return self.layer("global")


# Calibration notes (see DESIGN.md, "Calibration targets"):
# the 77 K resistivity ratios are pinned to the paper's measured maximum
# unrepeated wire speed-ups -- local 2.95x, semi-global 3.69x -- and to
# near-bulk behaviour for the thick global wires (the repeated 6.22 mm
# global wire reaches 3.38x once the 2.4x-faster cryogenic repeaters are
# factored in, which requires rho(77)/rho(300) ~= 0.21).
#
# The effective 300 K resistivities include the size effect: they rise
# above bulk copper (1.72e-2 ohm*um) as wires get narrower, following the
# Intel 45 nm measurements of Mistry et al. / Plombon et al.
FREEPDK45_STACK = WireTechnology(
    name="freepdk45",
    layers={
        "local": _layer(
            "local",
            width_um=0.070,
            thickness_um=0.140,
            capacitance_f_per_um=0.19,
            rho_300k_ohm_um=4.00e-2,
            ratio_at_77k=1.0 / 2.95,
        ),
        "semi_global": _layer(
            "semi_global",
            width_um=0.140,
            thickness_um=0.280,
            capacitance_f_per_um=0.195,
            rho_300k_ohm_um=2.80e-2,
            ratio_at_77k=1.0 / 3.69,
        ),
        "global": _layer(
            "global",
            width_um=0.400,
            thickness_um=0.800,
            capacitance_f_per_um=0.24,
            rho_300k_ohm_um=2.20e-2,
            ratio_at_77k=0.21,
        ),
    },
)
