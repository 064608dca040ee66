"""V_dd/V_th optimisation under a total-power envelope.

CHP-core and CryoSP both pick their operating voltages "to maximize
frequency while maintaining the total power consumption lower than the
300 K baseline" (Section 4.5). The optimiser mechanises that: sweep a
(V_dd, V_th) grid, evaluate frequency with the pipeline model and total
power (device + cooling) with the McPAT-like model, and keep the fastest
feasible point.

The search is only meaningful at cryogenic temperatures: at 300 K the
leakage term explodes as V_th drops, and the optimiser correctly refuses
to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.pipeline.config import CoreConfig, OperatingPoint
from repro.pipeline.model import PipelineModel
from repro.power.mcpat import CorePowerModel, CorePowerReport


@dataclass(frozen=True)
class VoltageSearchResult:
    """Best feasible operating point found by the sweep."""

    operating_point: OperatingPoint
    frequency_ghz: float
    power: CorePowerReport
    evaluated_points: int

    @property
    def vdd_v(self) -> float:
        return self.operating_point.vdd_v

    @property
    def vth_v(self) -> float:
        return self.operating_point.vth_v


class VoltageOptimizer:
    """Grid search for the frequency-optimal (V_dd, V_th)."""

    def __init__(
        self,
        pipeline_model: PipelineModel,
        power_model: Optional[CorePowerModel] = None,
        *,
        vdd_grid_v: Optional[Sequence[float]] = None,
        vth_grid_v: Optional[Sequence[float]] = None,
    ):
        self.pipeline = pipeline_model
        self.power = power_model if power_model is not None else CorePowerModel()
        self.vdd_grid = (
            tuple(vdd_grid_v)
            if vdd_grid_v is not None
            else tuple(np.round(np.arange(0.50, 1.26, 0.01), 3))
        )
        # The V_th floor of 0.25 V is the minimum reliable threshold the
        # paper adopts for both CHP-core and CryoSP (Table 3); going
        # lower is electrically tempting at 77 K (leakage is gone) but
        # variability-limited in practice.
        self.vth_grid = (
            tuple(vth_grid_v)
            if vth_grid_v is not None
            else tuple(np.round(np.arange(0.25, 0.48, 0.025), 3))
        )

    def optimize(
        self,
        config: CoreConfig,
        temperature_k: float,
        total_power_budget: float = 1.0,
        *,
        min_overdrive_v: float = 0.15,
    ) -> VoltageSearchResult:
        """Fastest (V_dd, V_th) whose total power fits the budget.

        ``total_power_budget`` is relative to the 300 K baseline core's
        *total* power (device + cooling), i.e. 1.0 reproduces the
        paper's iso-power constraint.
        """
        if total_power_budget <= 0:
            raise ValueError("power budget must be positive")
        grid = [
            OperatingPoint(
                name=f"{temperature_k:.0f}K Vdd={vdd} Vth={vth}",
                temperature_k=temperature_k,
                vdd_v=vdd,
                vth_v=vth,
            )
            for vth in self.vth_grid
            for vdd in self.vdd_grid
            if vdd - vth >= min_overdrive_v
        ]
        # One batched pipeline evaluation prices the whole grid; power is
        # then checked point by point, keeping the first of equally fast
        # feasible points in grid order.
        frequencies = self.pipeline.evaluate_batch(config, grid).frequency_ghz
        best: Optional[Tuple[OperatingPoint, float, CorePowerReport]] = None
        for op, freq in zip(grid, frequencies.tolist()):
            power = self.power.report(config, op, freq)
            if power.total_rel > total_power_budget:
                continue
            if best is None or freq > best[1]:
                best = (op, freq, power)
        if best is None:
            raise RuntimeError(
                f"no feasible operating point at {temperature_k} K within "
                f"total power budget {total_power_budget}"
            )
        op, freq, power = best
        return VoltageSearchResult(
            operating_point=op,
            frequency_ghz=freq,
            power=power,
            evaluated_points=len(grid),
        )
