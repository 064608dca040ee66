"""Model-vs-measurement validation (Figs. 9 and 10).

Three validations, mirroring Section 3.2:

* **pipeline model** -- predicted 135 K core-frequency speed-up (45 nm
  model, ITRS-projected to the rig's node) vs. the measured 14 nm rig;
* **router model** -- same for the uncore domain on all three rigs;
* **wire-link model** -- analytic link delay vs. the distributed-RC
  transient solver (the in-repo Hspice), at the CryoBus link length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.circuits.simulator import CircuitSimulator
from repro.noc.link import NOC_LINK_CARD, WireLinkModel
from repro.noc.router import RouterModel
from repro.pipeline.config import SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.tech.constants import T_ROOM, T_VALIDATION
from repro.tech.operating_point import OP_ROOM, OperatingPoint
from repro.tech.repeater import RepeaterOptimizer
from repro.tech.metal import FREEPDK45_STACK
from repro.tech.scaling import project_speedup
from repro.validation.measurements import CpuRig, MeasurementCampaign, VALIDATION_RIGS


@dataclass(frozen=True)
class ModelValidation:
    """One model-vs-measurement comparison.

    ``degraded`` is True when a "measured" value came from a degraded
    (Elmore-fallback) circuit solve rather than the exact eigensolver —
    such a comparison bounds the model but does not validate it.
    """

    name: str
    predicted_speedup: float
    measured_speedup: float
    measured_lower: float
    measured_upper: float
    degraded: bool = False

    @property
    def error(self) -> float:
        """Relative error of the prediction against the measurement."""
        return abs(self.predicted_speedup - self.measured_speedup) / self.measured_speedup

def _nominal_op(temperature_k: float) -> OperatingPoint:
    return OperatingPoint(
        name=f"{temperature_k:.0f}K nominal", temperature_k=temperature_k,
        vdd_v=1.25, vth_v=0.47,
    )


def _model_component_speedups(temperature_k: float) -> Dict[str, float]:
    """Transistor and (semi-global) wire speed-ups from the device models."""
    op = OperatingPoint.at(temperature_k)
    model = PipelineModel()
    transistor = model.logic.delay_speedup(op)
    wire = model.wires.unrepeated_speedup("semi_global", 1686.0, op)
    return {"transistor": transistor, "wire": wire}


def validate_pipeline_model(
    rig: Optional[CpuRig] = None,
    temperature_k: float = T_VALIDATION,
    campaign: Optional[MeasurementCampaign] = None,
) -> ModelValidation:
    """Compare the pipeline model's 135 K speed-up to the 14 nm rig.

    The 45 nm model's prediction is projected to the rig's node with the
    ITRS wire/gate delay trends, exactly as Section 3.2.1 describes.
    """
    rig = rig if rig is not None else VALIDATION_RIGS[-1]  # 14 nm Skylake
    campaign = campaign if campaign is not None else MeasurementCampaign()

    model = PipelineModel()
    warm = model.evaluate(SKYLAKE_CONFIG, _nominal_op(T_ROOM))
    cold = model.evaluate(SKYLAKE_CONFIG, _nominal_op(temperature_k))
    speedup_45nm = cold.frequency_ghz / warm.frequency_ghz
    # The node projection re-mixes the frequency-setting stage, which at
    # cryogenic temperatures is the transistor-bound frontend stage.
    wire_fraction = cold.critical_stage.wire_fraction
    components = _model_component_speedups(temperature_k)
    projected = project_speedup(
        speedup_45nm,
        wire_fraction,
        rig.technology_nm,
        transistor_speedup=components["transistor"],
        wire_speedup=components["wire"],
    )

    measured = campaign.measured_speedup(rig, temperature_k, "core")
    return ModelValidation(
        name=f"pipeline@{rig.technology_nm}nm",
        predicted_speedup=projected,
        measured_speedup=measured["speedup"],
        measured_lower=measured["lower"],
        measured_upper=measured["upper"],
    )


def validate_router_model(
    rig: CpuRig,
    temperature_k: float = T_VALIDATION,
    campaign: Optional[MeasurementCampaign] = None,
) -> ModelValidation:
    """Compare the router model's uncore speed-up to one rig."""
    campaign = campaign if campaign is not None else MeasurementCampaign()
    router = RouterModel()
    speedup_45nm = router.speedup(OperatingPoint.at(temperature_k))
    components = _model_component_speedups(temperature_k)
    # Routers are logic-bound; project with the router's wire share.
    from repro.noc.router import ROUTER_WIRE_FRACTION

    projected = project_speedup(
        speedup_45nm,
        ROUTER_WIRE_FRACTION,
        rig.technology_nm,
        transistor_speedup=components["transistor"],
        wire_speedup=components["wire"],
    )
    measured = campaign.measured_speedup(rig, temperature_k, "uncore")
    return ModelValidation(
        name=f"router@{rig.technology_nm}nm",
        predicted_speedup=projected,
        measured_speedup=measured["speedup"],
        measured_lower=measured["lower"],
        measured_upper=measured["upper"],
    )


def validate_wire_link_model(
    length_mm: float = 6.0, temperature_k: float = 77.0
) -> ModelValidation:
    """Fig. 10: analytic link speed-up vs. the transient RC solver.

    Both the 300 K and 77 K link designs proposed by the analytic
    optimiser are re-simulated at circuit level; the speed-up ratio is
    the measured value.
    """
    op = OperatingPoint.at(temperature_k)
    links = WireLinkModel()
    predicted = links.speedup(length_mm, op)

    optimizer = RepeaterOptimizer(FREEPDK45_STACK.layer("global"), NOC_LINK_CARD)
    simulator = CircuitSimulator(driver_card=NOC_LINK_CARD)
    warm_design = optimizer.optimize(length_mm * 1000.0, OP_ROOM)
    cold_design = optimizer.optimize(length_mm * 1000.0, op)
    warm_sim = simulator.simulate_design(warm_design)
    cold_sim = simulator.simulate_design(cold_design)
    measured = warm_sim.delay_ns / cold_sim.delay_ns
    return ModelValidation(
        name=f"wire_link_{length_mm:g}mm",
        predicted_speedup=predicted,
        measured_speedup=measured,
        measured_lower=measured * 0.97,
        measured_upper=measured * 1.03,
        degraded=warm_sim.degraded or cold_sim.degraded,
    )
