"""The CryoSP design-derivation chain (Section 4.5, Table 3).

Starting from the 300 K Skylake-like baseline, the designer applies the
paper's three optimisation steps and re-derives every Table 3 column:

1. **77 K Superpipeline** -- frontend superpipelining at 77 K, nominal
   voltage (frequency up ~61 %, small IPC cost, higher power);
2. **+ CryoCore** -- halve the issue width and shrink structures to cut
   power by ~78 % (the published CryoCore sizing);
3. **CryoSP** -- V_dd/V_th scaling to maximise frequency inside the
   300 K baseline's *total* power envelope (cooling included).

CHP-core (the prior state of the art: CryoCore sizing + voltage scaling,
no superpipelining) is derived with the same machinery for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.ipc import IPCModel
from repro.core.superpipeline import SuperpipelinePlan, SuperpipelineTransform
from repro.core.voltage import VoltageOptimizer
from repro.pipeline.config import CRYO_CORE_CONFIG, CoreConfig, SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel, PipelineReport
from repro.power.mcpat import CorePowerModel, CorePowerReport
from repro.tech.constants import T_LN2
from repro.tech.operating_point import OP_300K_NOMINAL, OP_77K_NOMINAL, OperatingPoint


@dataclass(frozen=True)
class CoreDesign:
    """One fully specified core design (a Table 3 column)."""

    name: str
    config: CoreConfig
    operating_point: OperatingPoint
    report: PipelineReport
    power: CorePowerReport
    ipc_relative: float

    @property
    def frequency_ghz(self) -> float:
        return self.report.frequency_ghz

    @property
    def pipeline_depth(self) -> int:
        return self.config.pipeline_depth

    @property
    def performance_proxy(self) -> float:
        """frequency x relative IPC -- the single-core performance score."""
        return self.frequency_ghz * self.ipc_relative


@dataclass(frozen=True)
class Table3:
    """The five designs of Table 3, in derivation order."""

    baseline_300k: CoreDesign
    superpipeline_77k: CoreDesign
    superpipeline_cryocore_77k: CoreDesign
    cryosp: CoreDesign
    chp_core: CoreDesign
    plan: SuperpipelinePlan

    def designs(self) -> Tuple[CoreDesign, ...]:
        return (
            self.baseline_300k,
            self.superpipeline_77k,
            self.superpipeline_cryocore_77k,
            self.cryosp,
            self.chp_core,
        )


class CryoSPDesigner:
    """Run the full Table 3 derivation."""

    def __init__(
        self,
        pipeline_model: Optional[PipelineModel] = None,
        ipc_model: Optional[IPCModel] = None,
        power_model: Optional[CorePowerModel] = None,
    ):
        self.pipeline = pipeline_model if pipeline_model is not None else PipelineModel()
        self.ipc = ipc_model if ipc_model is not None else IPCModel()
        self.power = power_model if power_model is not None else CorePowerModel()

    def _design(
        self,
        name: str,
        model: PipelineModel,
        config: CoreConfig,
        op: OperatingPoint,
    ) -> CoreDesign:
        report = model.evaluate(config, op)
        power = self.power.report(config, op, report.frequency_ghz)
        ipc = self.ipc.mean_relative_ipc(config, SKYLAKE_CONFIG)
        return CoreDesign(
            name=name,
            config=config,
            operating_point=op,
            report=report,
            power=power,
            ipc_relative=ipc,
        )

    def derive(self, power_budget: float = 1.0) -> Table3:
        """Derive all five Table 3 designs.

        ``power_budget`` is the total-power envelope (relative to the
        300 K baseline) that the voltage-scaled designs must respect.
        """
        baseline = self._design(
            "300K Baseline", self.pipeline, SKYLAKE_CONFIG, OP_300K_NOMINAL
        )

        # Step 1: frontend superpipelining at 77 K.
        transform = SuperpipelineTransform(self.pipeline)
        plan, sp_model, _ = transform.apply(SKYLAKE_CONFIG, OP_77K_NOMINAL)
        sp_config = SKYLAKE_CONFIG.deepened(plan.extra_stages, "skylake_8w_sp")
        superpipeline = self._design(
            "77K Superpipeline", sp_model, sp_config, OP_77K_NOMINAL
        )

        # Step 2: CryoCore structural sizing, same superpipelined stages.
        sized_config = CRYO_CORE_CONFIG.deepened(plan.extra_stages, "cryocore_4w_sp")
        sized = self._design(
            "77K Superpipeline+CryoCore", sp_model, sized_config, OP_77K_NOMINAL
        )

        # Step 3: voltage scaling inside the power envelope -> CryoSP.
        optimizer = VoltageOptimizer(sp_model, self.power)
        cryosp_point = optimizer.optimize(sized_config, T_LN2, power_budget)
        cryosp = self._design(
            "77K CryoSP", sp_model, sized_config, cryosp_point.operating_point
        )

        # Reference: CHP-core (no superpipelining, same method otherwise).
        chp_optimizer = VoltageOptimizer(self.pipeline, self.power)
        chp_point = chp_optimizer.optimize(CRYO_CORE_CONFIG, T_LN2, power_budget)
        chp = self._design(
            "CHP-core", self.pipeline, CRYO_CORE_CONFIG, chp_point.operating_point
        )

        return Table3(
            baseline_300k=baseline,
            superpipeline_77k=superpipeline,
            superpipeline_cryocore_77k=sized,
            cryosp=cryosp,
            chp_core=chp,
            plan=plan,
        )
