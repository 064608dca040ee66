"""McPAT-like core power model with cryo-MOSFET leakage scaling.

Power is reported relative to the 300 K baseline core (Table 3's
convention). The structure mirrors McPAT integrated with cryo-MOSFET the
way Section 6.1.2 describes:

* dynamic power ~ C_switched * V_dd^2 * f * activity, where the switched
  capacitance follows the core's structural sizing (CryoCore's halved
  design is calibrated to its published 77.8 % power reduction) and
  superpipelining adds latch capacitance per extra stage;
* static power follows the cryo-MOSFET leakage factor -- at 300 K it is
  a fixed fraction of baseline power; at 77 K it all but vanishes, and
  *that* is what makes the V_dd/V_th scaling free;
* the cooling model converts device power into total power (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.pipeline.config import CoreConfig, SKYLAKE_CONFIG
from repro.power.cooling import CoolingModel
from repro.tech.batch import (
    OperatingPointBatch,
    OperatingPointBatchLike,
    as_operating_point_batch,
)
from repro.tech.mosfet import CryoMOSFET, FREEPDK45_CARD, MOSFETCard
from repro.tech.operating_point import OP_300K_NOMINAL, OperatingPoint

#: Reference frequency of the 300 K baseline core (GHz).
REFERENCE_FREQUENCY_GHZ = 4.0
#: Reference pipeline depth (latch count baseline).
REFERENCE_DEPTH = 14


@dataclass(frozen=True)
class CorePowerReport:
    """Power of one core design, relative to the 300 K baseline core."""

    design_name: str
    dynamic_rel: float
    static_rel: float
    cooling_rel: float

    @property
    def device_rel(self) -> float:
        return self.dynamic_rel + self.static_rel

    @property
    def total_rel(self) -> float:
        """Device plus cooling power (the Table 3 'Total power' row)."""
        return self.device_rel + self.cooling_rel


@dataclass(frozen=True, eq=False)
class CorePowerReportBatch:
    """Power of one core design at a batch of operating points (the
    plural of :class:`CorePowerReport`: same fields, array-valued
    columns).

    ``report[i]`` is the scalar :class:`CorePowerReport` of point ``i``,
    named after the point it was given.
    """

    config_name: str
    operating_points: Union[Sequence[OperatingPoint], OperatingPointBatch]
    dynamic_rel: np.ndarray
    static_rel: np.ndarray
    cooling_rel: np.ndarray

    def __len__(self) -> int:
        return int(self.dynamic_rel.shape[0])

    def __getitem__(self, index: int) -> CorePowerReport:
        return CorePowerReport(
            design_name=f"{self.config_name}@{self.operating_points[index].name}",
            dynamic_rel=float(self.dynamic_rel[index]),
            static_rel=float(self.static_rel[index]),
            cooling_rel=float(self.cooling_rel[index]),
        )

    @property
    def device_rel(self) -> np.ndarray:
        return self.dynamic_rel + self.static_rel

    @property
    def total_rel(self) -> np.ndarray:
        """Per-point :attr:`CorePowerReport.total_rel`."""
        return self.device_rel + self.cooling_rel


class CorePowerModel:
    """Relative core power at arbitrary (structure, operating point, f)."""

    #: Share of baseline core power that is dynamic at 300 K.
    DYNAMIC_FRACTION = 0.80
    STATIC_FRACTION = 0.20
    #: Added switched capacitance per extra pipeline stage (latches).
    LATCH_POWER_PER_STAGE = 0.077
    #: Superlinearity of switched capacitance versus structural sizing;
    #: calibrated so the CryoCore sizing cuts power by its published
    #: 77.8 % (core capacitance ratio 0.222).
    CAPACITANCE_EXPONENT = 2.2

    def __init__(self, logic_card: MOSFETCard = FREEPDK45_CARD):
        self.mosfet = CryoMOSFET(logic_card)
        self._vdd_ref = logic_card.vdd_nominal_v

    def capacitance_rel(self, config: CoreConfig) -> float:
        """Switched capacitance relative to the 8-issue baseline."""
        queue_mix = (
            config.load_queue / SKYLAKE_CONFIG.load_queue
            + config.store_queue / SKYLAKE_CONFIG.store_queue
            + config.issue_queue / SKYLAKE_CONFIG.issue_queue
            + config.rob_size / SKYLAKE_CONFIG.rob_size
            + config.int_regs / SKYLAKE_CONFIG.int_regs
            + config.fp_regs / SKYLAKE_CONFIG.fp_regs
        ) / 6.0
        mix = 0.5 * config.width_ratio + 0.5 * queue_mix
        latch = 1.0 + self.LATCH_POWER_PER_STAGE * max(
            config.pipeline_depth - REFERENCE_DEPTH, 0
        )
        return mix**self.CAPACITANCE_EXPONENT * latch

    def report_batch(
        self, config: CoreConfig, ops: OperatingPointBatchLike, frequency_ghz
    ) -> CorePowerReportBatch:
        """Full power accounting at many (operating point, frequency) pairs.

        ``ops`` is an :class:`~repro.tech.batch.OperatingPointBatch` or a
        sequence of :class:`OperatingPoint` (whose names the per-point
        reports keep); ``frequency_ghz`` is one frequency or one per
        point. A card-nominal ``vdd_v`` is the logic card's rail. This
        is the only implementation of the power formula; :meth:`report`,
        :meth:`dynamic_rel` and :meth:`static_rel` are its length-1
        views.
        """
        if isinstance(ops, OperatingPoint):
            ops = (ops,)
        batch = as_operating_point_batch(ops)
        points = ops if isinstance(ops, (list, tuple)) else batch
        frequency = np.asarray(frequency_ghz, dtype=float)
        if bool((frequency <= 0).any()):
            raise ValueError("frequency must be positive")
        capacitance = self.capacitance_rel(config)
        vdd = np.where(np.isnan(batch.vdd_v), self._vdd_ref, batch.vdd_v)
        v_ratio = vdd / self._vdd_ref
        f_ratio = frequency / REFERENCE_FREQUENCY_GHZ
        dynamic = self.DYNAMIC_FRACTION * capacitance * v_ratio**2 * f_ratio
        # Leaking width scales with the same structural mix as switched C.
        leak = self.mosfet.leakage_factor_batch(batch)
        static = self.STATIC_FRACTION * capacitance * leak
        device = dynamic + static
        if bool((device < 0).any()):
            raise ValueError("device power must be non-negative")
        temperatures, index = np.unique(batch.temperature_k, return_inverse=True)
        overhead = np.array(
            [CoolingModel(float(t)).overhead for t in temperatures]
        )[index]
        return CorePowerReportBatch(
            config_name=config.name,
            operating_points=points,
            dynamic_rel=dynamic,
            static_rel=static,
            cooling_rel=device * overhead,
        )

    def dynamic_rel(
        self, config: CoreConfig, op: OperatingPoint, frequency_ghz: float
    ) -> float:
        return float(self.report_batch(config, op, frequency_ghz).dynamic_rel[0])

    def static_rel(self, config: CoreConfig, op: OperatingPoint) -> float:
        # Static power does not depend on the clock.
        return float(
            self.report_batch(config, op, REFERENCE_FREQUENCY_GHZ).static_rel[0]
        )

    def report(
        self, config: CoreConfig, op: OperatingPoint, frequency_ghz: float
    ) -> CorePowerReport:
        """Full power accounting, normalised to the 300 K baseline core.

        The normalisation anchor is (SKYLAKE_CONFIG, 300 K nominal,
        4 GHz) whose report evaluates to device power 1.0 by
        construction.
        """
        return self.report_batch(config, op, frequency_ghz)[0]

    def baseline_report(self) -> CorePowerReport:
        """The normalisation anchor (should be exactly 1.0 device power)."""
        return self.report(SKYLAKE_CONFIG, OP_300K_NOMINAL, REFERENCE_FREQUENCY_GHZ)
