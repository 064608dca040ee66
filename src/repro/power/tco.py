"""Optimal-temperature search and a TCO/performance metric.

Section 7.4 closes with "finding the optimal temperature will be the
promising future work"; this module implements it. Two metrics are
provided:

* **performance/power** -- the Fig. 27 quantity, and
* **performance/TCO** -- total cost of ownership per unit performance,
  where TCO adds the paper's cost structure (Section 2.3): a recurring
  electricity bill dominated by the cooling power, plus amortised
  one-time costs (cryo-cooler capacity priced per watt of heat lifted,
  LN2 inventory) that the paper notes are comparatively small.

Performance interpolates linearly between the model-evaluated 300 K and
77 K endpoints (the paper's Section 7.4 assumption). Device power is
*not* linear in temperature -- voltage scaling makes it fall steeply as
soon as the leakage allows -- so the optimiser takes a device-power
function; :func:`default_device_power` evaluates the McPAT-like model at
the linearly interpolated (f, V_dd, V_th) operating point, exactly as
the Fig. 27 experiment does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.power.cooling import carnot_cooling_overhead
from repro.power.mcpat import CorePowerModel
from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.operating_point import OP_300K_NOMINAL, OP_CRYOSP, OperatingPoint
from repro.util.guards import warn

#: Amortised cryo-cooler capital per watt of lifted heat, expressed as a
#: fraction of the yearly electricity cost of that same watt. The paper
#: (citing Iwasa / ter Brake) treats this as small against the power bill.
COOLER_CAPEX_FACTOR = 0.15

#: Amortised LN2 inventory cost as a fraction of device power cost.
LN2_INVENTORY_FACTOR = 0.02


def _lerp(at_77: float, at_300: float, temperature_k: float) -> float:
    """Endpoint interpolation, *clamped* to the [77, 300] K anchors.

    The endpoints are model evaluations at 77 K and 300 K; outside them
    linear extrapolation of performance or rail voltages is fiction, so
    the value is clamped to the nearer endpoint and a structured
    :class:`~repro.util.guards.ModelWarning` goes through the guard
    layer instead of silently extrapolating.
    """
    if temperature_k < T_LN2 or temperature_k > T_ROOM:
        clamped = min(max(temperature_k, T_LN2), T_ROOM)
        warn(
            "tco.lerp",
            f"temperature {temperature_k:g} K outside the interpolated "
            f"[{T_LN2:g}, {T_ROOM:g}] K endpoints; clamped to "
            f"{clamped:g} K instead of extrapolating the endpoint values",
            op=(temperature_k, None, None),
        )
        temperature_k = clamped
    fraction = (T_ROOM - temperature_k) / (T_ROOM - T_LN2)
    return at_300 + (at_77 - at_300) * fraction


def default_device_power(temperature_k: float) -> float:
    """CryoSP-design device power at ``temperature_k``, rel. to 300 K.

    Frequency and voltages interpolate linearly between the 300 K
    baseline and the 77 K CryoSP points; the McPAT-like model prices the
    result (Fig. 27's methodology).
    """
    model = CorePowerModel()
    if temperature_k >= T_ROOM:
        return model.report(SKYLAKE_CONFIG, OP_300K_NOMINAL, 4.0).device_rel
    op = OperatingPoint(
        name=f"{temperature_k:.0f}K",
        temperature_k=temperature_k,
        vdd_v=_lerp(OP_CRYOSP.vdd_v, OP_300K_NOMINAL.vdd_v, temperature_k),
        vth_v=_lerp(OP_CRYOSP.vth_v, OP_300K_NOMINAL.vth_v, temperature_k),
    )
    frequency = _lerp(7.84, 4.0, temperature_k)
    return model.report(CRYO_CORE_CONFIG.deepened(3), op, frequency).device_rel


@dataclass(frozen=True)
class TemperaturePoint:
    """Metrics of the interpolated system at one temperature."""

    temperature_k: float
    performance_rel: float
    device_power_rel: float
    cooling_overhead: float

    @property
    def total_power_rel(self) -> float:
        """Wall-plug power, priced through the degenerate two-stage cryostat.

        Evaluates :meth:`repro.thermal.cryostat.Cryostat.two_stage` with this
        point's already-computed overhead; the ledger arithmetic is
        bit-identical to the historic ``(1 + CO) * P_dev`` closed form
        (enforced by ``tests/test_thermal.py``).
        """
        from repro.thermal.cryostat import Cryostat  # lazy: power <-> thermal

        return Cryostat.two_stage(
            self.temperature_k,
            self.device_power_rel,
            overhead=self.cooling_overhead,
        ).wall_plug_w()

    @property
    def perf_per_power(self) -> float:
        return self.performance_rel / self.total_power_rel

    @property
    def tco_rel(self) -> float:
        """Recurring power cost + amortised cooling capex + LN2."""
        cooling_power = self.device_power_rel * self.cooling_overhead
        capex = COOLER_CAPEX_FACTOR * cooling_power
        inventory = (
            LN2_INVENTORY_FACTOR * self.device_power_rel
            if self.temperature_k < T_ROOM
            else 0.0
        )
        return self.total_power_rel + capex + inventory

    @property
    def perf_per_tco(self) -> float:
        return self.performance_rel / self.tco_rel


def cryostat_tco_w(cryostat) -> float:
    """TCO rate of an arbitrary cryostat, in watt-equivalents.

    Generalizes :attr:`TemperaturePoint.tco_rel` from the degenerate
    two-stage world to any :class:`repro.thermal.cryostat.Cryostat`: the
    recurring wall-plug bill, plus amortised cryo-cooler capital priced
    against each stage's cooling power, plus LN2-class inventory priced
    against the device power parked below ambient.
    """
    ledger = cryostat.ledger()
    capex = COOLER_CAPEX_FACTOR * ledger.cooling_w
    inventory = LN2_INVENTORY_FACTOR * sum(
        s.device_w for s in ledger.stages if s.temperature_k < T_ROOM
    )
    return ledger.wall_plug_w + capex + inventory


class TemperatureOptimizer:
    """Search the operating-temperature axis for a metric's optimum."""

    def __init__(
        self,
        perf_300k: float,
        perf_77k: float,
        *,
        device_power_fn: Callable[[float], float] = default_device_power,
        carnot_fraction: float = 0.30,
    ):
        if min(perf_300k, perf_77k) <= 0:
            raise ValueError("endpoint performance must be positive")
        self.perf_300k = perf_300k
        self.perf_77k = perf_77k
        self.device_power_fn = device_power_fn
        self.carnot_fraction = carnot_fraction
        self._power_300k = device_power_fn(T_ROOM)
        if self._power_300k <= 0:
            raise ValueError("device power at 300 K must be positive")

    def point(self, temperature_k: float) -> TemperaturePoint:
        if not (T_LN2 <= temperature_k <= T_ROOM):
            raise ValueError(
                f"temperature {temperature_k} K outside the interpolated "
                f"range [{T_LN2}, {T_ROOM}] K"
            )
        overhead = (
            0.0
            if temperature_k >= T_ROOM
            else carnot_cooling_overhead(
                temperature_k, carnot_fraction=self.carnot_fraction
            )
        )
        return TemperaturePoint(
            temperature_k=temperature_k,
            performance_rel=_lerp(self.perf_77k, self.perf_300k, temperature_k)
            / self.perf_300k,
            device_power_rel=self.device_power_fn(temperature_k) / self._power_300k,
            cooling_overhead=overhead,
        )

    def sweep(
        self, temperatures: Optional[Sequence[float]] = None
    ) -> List[TemperaturePoint]:
        if temperatures is None:
            temperatures = [T_LN2 + 1.0 * i for i in range(int(T_ROOM - T_LN2) + 1)]
        return [self.point(t) for t in temperatures]

    def optimal(
        self,
        metric: Callable[[TemperaturePoint], float] = lambda p: p.perf_per_power,
        temperatures: Optional[Sequence[float]] = None,
    ) -> TemperaturePoint:
        """The temperature maximising ``metric`` over the sweep."""
        points = self.sweep(temperatures)
        return max(points, key=metric)
