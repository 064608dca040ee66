"""Cryo-MOSFET: transistor drive and leakage versus temperature and voltage.

The CC-Model MOSFET layer answers two questions the architecture models
need:

1. **How much faster is logic at a given (T, V_dd, V_th)?** -- the
   :meth:`CryoMOSFET.delay_speedup` factor that scales every transistor
   delay in the pipeline and router models.
2. **How much does it leak?** -- the :meth:`CryoMOSFET.leakage_factor`
   that the power models use, and that explains *why* V_dd/V_th scaling is
   only feasible at 77 K (subthreshold swing scales with kT/q, so a low
   V_th that is catastrophic at 300 K leaks essentially nothing at 77 K).

Every evaluation point is an :class:`~repro.tech.operating_point.OperatingPoint`
(``vdd_v``/``vth_v`` of ``None`` mean the card's nominal voltages).
The scalar gate-delay and leakage factors are memoized per ``(card,
operating point)`` in the active :class:`~repro.tech.context.TechContext`;
their ``_batch`` siblings compute on every call.

The drive model is deliberately phenomenological:

    I_on(T, V) = D(T) * (V_dd - V_th_eff(T))^beta(T)
    gate delay ~ V_dd / I_on

``beta`` captures the degree of velocity saturation (strongly saturated
devices gain little from overdrive; at 77 K, with lower fields and higher
mobility, beta drops below one because series resistance dominates).
``D(T)`` is calibrated per model card:

* ``FREEPDK45_CARD`` (pipeline logic) reproduces the paper's measured
  **8 %** transistor speed-up at 77 K at nominal voltage, and -- combined
  with the published CryoCore voltage points -- a ~1.32x speed-up at
  (0.75 V, 0.25 V), matching the CHP-core frequency.
* ``INDUSTRY_2Z_CARD`` (repeater drivers; the paper's industry-provided
  2z-nm model card) reproduces a **2.4x** drive improvement at 77 K, which
  is what lifts the repeated 6.22 mm global wire to its published 3.38x
  speed-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.tech.batch import (
    OperatingPointBatch,
    OperatingPointBatchLike,
    as_operating_point_batch,
)
from repro.tech.constants import (
    BOLTZMANN_EV,
    T_LN2,
    T_ROOM,
    check_temperature_batch,
)
from repro.tech.context import get_context
from repro.util.guards import check_operating_point, check_operating_point_batch
from repro.tech.operating_point import OP_ROOM, OperatingPoint

#: Minimum allowed overdrive voltage; below this the drive model (built
#: for super-threshold operation) is meaningless.
MIN_OVERDRIVE_V = 0.05


@dataclass(frozen=True)
class MOSFETCard:
    """Calibration constants for one transistor population.

    ``drive_speedup_77`` and ``vth_shift_77`` are the two cryogenic
    anchors: the delay speed-up at 77 K at the card's nominal voltages,
    and the threshold-voltage rise when cooled to 77 K.
    """

    name: str
    vdd_nominal_v: float
    vth_nominal_v: float
    #: Overdrive exponent at 300 K (1.0 == fully velocity saturated).
    overdrive_exponent_300: float
    #: Overdrive exponent at 77 K (< 1: series-resistance limited).
    overdrive_exponent_77: float
    #: Target delay speed-up at 77 K, nominal voltages (calibration anchor).
    drive_speedup_77: float
    #: V_th increase when cooled from 300 K to 77 K (volts).
    vth_shift_77: float
    #: Subthreshold swing at 300 K (volts per decade of leakage).
    swing_300_v_per_decade: float = 0.100
    #: Subthreshold slope ideality; swing(T) = n * ln(10) * kT/q.
    ideality: float = 1.55

    def __post_init__(self) -> None:
        if self.vdd_nominal_v <= self.vth_nominal_v:
            raise ValueError(f"{self.name}: nominal Vdd must exceed nominal Vth")
        if self.drive_speedup_77 <= 0:
            raise ValueError(f"{self.name}: drive_speedup_77 must be positive")

    @property
    def nominal_op(self) -> OperatingPoint:
        """The card's (300 K, nominal V) calibration point."""
        return OperatingPoint.at(
            T_ROOM, self.vdd_nominal_v, self.vth_nominal_v, name=f"{self.name} nominal"
        )


def _lerp_to_cryo(value_300: float, value_77: float, temperature_k: float) -> float:
    """Linear interpolation in temperature between the two anchors.

    The paper's own temperature-sweep analysis (Fig. 27) assumes device
    speed varies linearly with temperature between 77 K and 300 K, so a
    linear blend of the calibrated anchor values is faithful. Above 300 K
    and below 77 K the blend extrapolates linearly (bounded by the model's
    validity range check).
    """
    fraction = (T_ROOM - temperature_k) / (T_ROOM - T_LN2)
    return value_300 + (value_77 - value_300) * fraction


class CryoMOSFET:
    """Evaluate drive and leakage for one :class:`MOSFETCard`."""

    def __init__(self, card: MOSFETCard):
        self.card = card
        # Solve D(77) so that delay_speedup(77K, nominal) == the anchor.
        ov = card.vdd_nominal_v - card.vth_nominal_v
        ov_cryo = ov - card.vth_shift_77
        if ov_cryo <= MIN_OVERDRIVE_V:
            raise ValueError(f"{card.name}: cryogenic overdrive collapses at nominal V")
        self._drive_gain_77 = (
            card.drive_speedup_77
            * ov**card.overdrive_exponent_300
            / ov_cryo**card.overdrive_exponent_77
        )
        nominal = OperatingPointBatch.from_points([card.nominal_op])
        self._i_on_nominal_300 = float(self._on_current_raw_batch(nominal)[0])
        self._leak_nominal_300 = float(self._leakage_raw_batch(nominal)[0])

    # ------------------------------------------------------------------
    # voltage resolution
    # ------------------------------------------------------------------
    def _vdd_batch(self, batch: OperatingPointBatch) -> np.ndarray:
        """The rail column with NaN ("card nominal") resolved."""
        return np.where(np.isnan(batch.vdd_v), self.card.vdd_nominal_v, batch.vdd_v)

    # ------------------------------------------------------------------
    # drive (the vectorized kernels; scalar methods are length-1 wrappers)
    # ------------------------------------------------------------------
    def effective_vth(self, op: OperatingPoint = OP_ROOM) -> float:
        """Threshold voltage at the operating point (V_th rises when cooled)."""
        return float(
            self._effective_vth_batch(OperatingPointBatch.from_points([op]))[0]
        )

    def effective_vth_batch(self, op: OperatingPointBatchLike = None) -> np.ndarray:
        """Vectorized :meth:`effective_vth` over an operating-point batch."""
        return self._effective_vth_batch(as_operating_point_batch(op))

    def _effective_vth_batch(self, batch: OperatingPointBatch) -> np.ndarray:
        t = check_temperature_batch(batch.temperature_k)
        base = np.where(np.isnan(batch.vth_v), self.card.vth_nominal_v, batch.vth_v)
        return base + _lerp_to_cryo(0.0, self.card.vth_shift_77, t)

    def _overdrive_batch(self, batch: OperatingPointBatch) -> np.ndarray:
        vdd = self._vdd_batch(batch)
        overdrive = vdd - self._effective_vth_batch(batch)
        bad = overdrive <= MIN_OVERDRIVE_V
        if bool(bad.any()):
            i = int(np.argmax(bad))
            raise ValueError(
                f"{self.card.name}: overdrive {overdrive[i]:.3f} V at "
                f"(T={batch.temperature_k[i]:g} K, Vdd={vdd[i]:g} V) is below "
                f"the {MIN_OVERDRIVE_V} V validity floor "
                f"(point {i} of {len(batch)} in the batch)"
            )
        return overdrive

    def _on_current_raw_batch(self, batch: OperatingPointBatch) -> np.ndarray:
        overdrive = self._overdrive_batch(batch)
        beta = _lerp_to_cryo(
            self.card.overdrive_exponent_300,
            self.card.overdrive_exponent_77,
            batch.temperature_k,
        )
        gain = _lerp_to_cryo(1.0, self._drive_gain_77, batch.temperature_k)
        return gain * overdrive**beta

    def on_current(self, op: OperatingPoint = OP_ROOM) -> float:
        """Drive current relative to the card's (300 K, nominal V) point."""
        return float(self.on_current_batch(OperatingPointBatch.from_points([op]))[0])

    def on_current_batch(self, op: OperatingPointBatchLike = None) -> np.ndarray:
        """Vectorized :meth:`on_current` over an operating-point batch."""
        batch = as_operating_point_batch(op)
        return self._on_current_raw_batch(batch) / self._i_on_nominal_300

    def gate_delay_factor(self, op: OperatingPoint = OP_ROOM) -> float:
        """Gate delay relative to (300 K, nominal V); < 1 means faster.

        Gate delay is C*V_dd/I_on; capacitance is treated as
        temperature-independent. Thin wrapper over the length-1 batch
        kernel (there is exactly one implementation of the formula);
        memoized per ``(card, op.key)`` as before.
        """
        op = check_operating_point(op, "mosfet.gate_delay")
        return get_context().memo(
            ("gate_delay", self.card, op.key),
            lambda: float(
                self._gate_delay_factor_batch(OperatingPointBatch.from_points([op]))[0]
            ),
        )

    def gate_delay_factor_batch(
        self, op: OperatingPointBatchLike = None
    ) -> np.ndarray:
        """Vectorized :meth:`gate_delay_factor` over an operating-point batch."""
        batch = check_operating_point_batch(
            as_operating_point_batch(op), "mosfet.gate_delay"
        )
        return self._gate_delay_factor_batch(batch)

    def _gate_delay_factor_batch(self, batch: OperatingPointBatch) -> np.ndarray:
        relative_vdd = self._vdd_batch(batch) / self.card.vdd_nominal_v
        return relative_vdd / (
            self._on_current_raw_batch(batch) / self._i_on_nominal_300
        )

    def delay_speedup(self, op: OperatingPoint = OP_ROOM) -> float:
        """Transistor speed-up versus (300 K, nominal V); > 1 means faster."""
        return 1.0 / self.gate_delay_factor(op)

    # ------------------------------------------------------------------
    # leakage
    # ------------------------------------------------------------------
    def subthreshold_swing(self, op: OperatingPoint = OP_ROOM) -> float:
        """Subthreshold swing in volts/decade; proportional to kT/q."""
        return float(
            self._subthreshold_swing_batch(OperatingPointBatch.from_points([op]))[0]
        )

    def _subthreshold_swing_batch(self, batch: OperatingPointBatch) -> np.ndarray:
        t = check_temperature_batch(batch.temperature_k)
        return self.card.ideality * math.log(10.0) * BOLTZMANN_EV * t

    def _leakage_raw_batch(self, batch: OperatingPointBatch) -> np.ndarray:
        vth = self._effective_vth_batch(batch)
        swing = self._subthreshold_swing_batch(batch)
        # I_leak ~ Vdd * 10^(-Vth / S(T)); the Vdd factor approximates DIBL
        # plus the linear dependence of leakage power on rail voltage.
        return self._vdd_batch(batch) * 10.0 ** (-vth / swing)

    def leakage_factor(self, op: OperatingPoint = OP_ROOM) -> float:
        """Leakage current relative to the card's (300 K, nominal V) point.

        At (77 K, V_dd=0.64, V_th=0.25) -- the CryoSP operating point --
        this evaluates to ~1e-6: the 'nearly eliminated leakage' that makes
        cryogenic voltage scaling possible. The same voltages at 300 K
        yield a factor in the hundreds, which is why the paper stresses
        that the scaling is *only* feasible at cryogenic temperatures.
        """
        op = check_operating_point(op, "mosfet.leakage")
        return get_context().memo(
            ("leakage", self.card, op.key),
            lambda: float(
                self._leakage_raw_batch(OperatingPointBatch.from_points([op]))[0]
            )
            / self._leak_nominal_300,
        )

    def leakage_factor_batch(self, op: OperatingPointBatchLike = None) -> np.ndarray:
        """Vectorized :meth:`leakage_factor` over an operating-point batch."""
        batch = check_operating_point_batch(
            as_operating_point_batch(op), "mosfet.leakage"
        )
        return self._leakage_raw_batch(batch) / self._leak_nominal_300


def cryo_mosfet(card: MOSFETCard) -> CryoMOSFET:
    """A shared :class:`CryoMOSFET` for ``card``, memoized per context.

    Construction solves the card's calibration anchors, so hot paths
    (e.g. :meth:`repro.noc.router.RouterModel.frequency_ghz`) should go
    through here instead of instantiating per call.
    """
    return get_context().memo(("mosfet", card), lambda: CryoMOSFET(card))


# ----------------------------------------------------------------------
# Model cards
# ----------------------------------------------------------------------

#: FreePDK 45 nm logic (pipeline and router transistors). The 1.08 anchor
#: is the paper's measured 8 % transistor speed-up at 77 K (Section 4.3).
FREEPDK45_CARD = MOSFETCard(
    name="freepdk45",
    vdd_nominal_v=1.25,
    vth_nominal_v=0.47,
    overdrive_exponent_300=1.0,
    overdrive_exponent_77=0.67,
    drive_speedup_77=1.08,
    vth_shift_77=0.03,
)

#: Industry 2z-nm card used for repeater drivers (Section 2.3). Its larger
#: cryogenic drive gain is what the repeated global-wire speed-up (3.38x)
#: implies on top of the resistivity drop.
INDUSTRY_2Z_CARD = MOSFETCard(
    name="industry_2z",
    vdd_nominal_v=1.00,
    vth_nominal_v=0.30,
    overdrive_exponent_300=1.0,
    overdrive_exponent_77=0.80,
    drive_speedup_77=2.40,
    vth_shift_77=0.03,
)

#: Cryo-optimized low-threshold device ("Optimized Cryo-CMOS Technology
#: with VTH<0.2V and Ion>1.2mA/um", arXiv:2411.03099): a process tuned
#: *for* 77 K operation rather than derated from a 300 K card — V_th
#: held below 0.2 V with a strong drive at a reduced rail. Deliberately
#: **not** the default anywhere: with so little threshold headroom,
#: moderate V_dd scaling walks straight into the drive model's overdrive
#: floor, so queries against this card are the ones that exercise the
#: guard layer (overdrive warnings, domain errors) under load.
CRYO_LOWVTH_CARD = MOSFETCard(
    name="cryo_lowvth",
    vdd_nominal_v=0.65,
    vth_nominal_v=0.18,
    overdrive_exponent_300=1.0,
    overdrive_exponent_77=0.75,
    drive_speedup_77=1.90,
    vth_shift_77=0.015,
    # A cryo-optimized junction keeps a steeper subthreshold slope, which
    # is what makes VTH<0.2V tolerable at 77 K in the first place.
    ideality=1.25,
)

#: Device cards addressable by name (the serve layer's query surface).
DEVICE_CARDS: dict = {
    card.name: card
    for card in (FREEPDK45_CARD, INDUSTRY_2Z_CARD, CRYO_LOWVTH_CARD)
}
