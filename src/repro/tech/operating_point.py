"""The operating point: the one way to say *where* on the (T, V_dd, V_th)
surface a structure is being evaluated.

Every quantity in the physical-modeling stack -- transistor drive, wire
resistance, repeater placement, cache access time, router frequency --
is a function of the electrical operating point. This module is the
one home of :class:`OperatingPoint` and the named Table 3 / Table 4
points.

Every scalar model entry point takes exactly one ``op: OperatingPoint``,
defaulting to :data:`OP_ROOM`. No function outside this module and
:mod:`repro.tech.batch` may thread a loose ``temperature_k/vdd_v/vth_v``
parameter triple through its signature (``tools/check_op_signatures.py``
enforces this); :meth:`OperatingPoint.at` is where such a triple
becomes a point.

``vdd_v``/``vth_v`` may be ``None``, meaning "the nominal voltages of
whichever device card evaluates this point". :attr:`OperatingPoint.key`
is the hashable identity used by the memoized evaluation context
(:mod:`repro.tech.context`); it deliberately excludes ``name`` so that
two differently-labelled but electrically identical points share cache
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.tech.constants import T_LN2, T_ROOM


@dataclass(frozen=True)
class OperatingPoint:
    """Electrical operating point of a voltage/temperature domain."""

    name: str
    temperature_k: float
    vdd_v: Optional[float] = None
    vth_v: Optional[float] = None

    def __post_init__(self) -> None:
        if self.vdd_v is not None and self.vth_v is not None:
            if self.vdd_v <= self.vth_v:
                raise ValueError(f"{self.name}: Vdd must exceed Vth")

    @property
    def is_cryogenic(self) -> bool:
        return self.temperature_k < 200.0

    @property
    def key(self) -> Tuple[float, Optional[float], Optional[float]]:
        """Electrical identity -- the memoization key (name excluded)."""
        return (self.temperature_k, self.vdd_v, self.vth_v)

    @classmethod
    def at(
        cls,
        temperature_k: float,
        vdd_v: Optional[float] = None,
        vth_v: Optional[float] = None,
        name: Optional[str] = None,
    ) -> "OperatingPoint":
        """An auto-named point; voltages default to card-nominal."""
        if name is None:
            name = f"{temperature_k:g}K"
            if vdd_v is not None:
                name += f" Vdd={vdd_v:g}"
            if vth_v is not None:
                name += f" Vth={vth_v:g}"
        return cls(name=name, temperature_k=temperature_k, vdd_v=vdd_v, vth_v=vth_v)

    def with_temperature(self, temperature_k: float) -> "OperatingPoint":
        """The same voltages at another temperature (sweep helper)."""
        return replace(
            self, name=f"{self.name}@{temperature_k:g}K", temperature_k=temperature_k
        )


# ----------------------------------------------------------------------
# Named operating points of Table 3 / Table 4
# ----------------------------------------------------------------------

#: Bare 300 K at card-nominal voltages -- the default evaluation point
#: of every scalar model entry point.
OP_ROOM = OperatingPoint("300K", T_ROOM)

#: Bare 77 K at card-nominal voltages -- the cryogenic counterpart of
#: :data:`OP_ROOM` for temperature-only sweeps.
OP_CRYO = OperatingPoint("77K", T_LN2)

OP_300K_NOMINAL = OperatingPoint("300K nominal", T_ROOM, vdd_v=1.25, vth_v=0.47)
OP_77K_NOMINAL = OperatingPoint("77K nominal", T_LN2, vdd_v=1.25, vth_v=0.47)
OP_CHP = OperatingPoint("77K CHP voltage", T_LN2, vdd_v=0.75, vth_v=0.25)
OP_CRYOSP = OperatingPoint("77K CryoSP voltage", T_LN2, vdd_v=0.64, vth_v=0.25)
#: NoC / LLC shared voltage domain at 77 K (Table 4).
OP_NOC_77K = OperatingPoint("77K NoC voltage", T_LN2, vdd_v=0.55, vth_v=0.225)
OP_NOC_300K = OperatingPoint("300K NoC voltage", T_ROOM, vdd_v=1.0, vth_v=0.468)
