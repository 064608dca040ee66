"""Robustness of the headline results to the calibration anchors.

A reproduction built on calibrated analytical models owes the reader an
answer to "what if your anchors are a little off?". This experiment
perturbs the most influential device anchors -- the semi-global wire's
77 K resistivity ratio and the logic transistor's 77 K speed-up -- and
re-derives the paper's two headline core numbers (the 77 K critical-path
reduction and the superpipelined frequency), plus the voltage-scaled
CryoSP frequency. The conclusions must survive every perturbation; the
tests pin that.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Sequence

from repro.core.superpipeline import SuperpipelineTransform
from repro.core.voltage import VoltageOptimizer
from repro.experiments.base import ExperimentResult
from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.pipeline.stages import StageKind
from repro.tech.constants import T_LN2
from repro.tech.metal import FREEPDK45_STACK, MetalLayer, WireTechnology
from repro.tech.mosfet import FREEPDK45_CARD
from repro.tech.operating_point import OP_300K_NOMINAL, OP_77K_NOMINAL
from repro.tech.resistivity import CryoResistivityModel
from repro.tech.wire import CryoWireModel


def _stack_with_semi_ratio(ratio_77k: float) -> WireTechnology:
    """The calibrated stack with a perturbed semi-global 77 K ratio."""
    base = FREEPDK45_STACK.layers["semi_global"]
    layers = dict(FREEPDK45_STACK.layers)
    layers["semi_global"] = MetalLayer(
        name=base.name,
        width_um=base.width_um,
        thickness_um=base.thickness_um,
        capacitance_f_per_um=base.capacitance_f_per_um,
        resistivity=CryoResistivityModel.from_cryo_ratio(
            base.resistivity.rho_300k_ohm_um, ratio_77k
        ),
    )
    return WireTechnology(name=f"perturbed_{ratio_77k:.3f}", layers=layers)


def _evaluate_variant(model: PipelineModel) -> dict:
    warm = model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
    cold = model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
    transform = SuperpipelineTransform(model)
    plan, sp_model, sp_report = transform.apply(SKYLAKE_CONFIG, OP_77K_NOMINAL)
    optimizer = VoltageOptimizer(sp_model)
    cryosp = optimizer.optimize(
        CRYO_CORE_CONFIG.deepened(plan.extra_stages), T_LN2, 1.0
    )
    return {
        "base_ghz": warm.frequency_ghz,
        "reduction_77k": 1.0 - cold.max_delay_ps / warm.max_delay_ps,
        "cold_critical_kind": cold.critical_stage.kind,
        "split_count": plan.extra_stages,
        "superpipeline_ghz": sp_report.frequency_ghz,
        "cryosp_ghz": cryosp.frequency_ghz,
    }


def run(
    wire_ratio_scales: Sequence[float] = (0.9, 1.0, 1.1),
    transistor_speedups: Sequence[float] = (1.05, 1.08, 1.12),
) -> ExperimentResult:
    """Perturb device anchors; re-derive the design chain each time."""
    result = ExperimentResult(
        experiment_id="robustness",
        title="Headline results under perturbed calibration anchors",
        headers=(
            "variant",
            "baseline_ghz",
            "reduction_77k",
            "frontend_critical_at_77k",
            "stages_split",
            "superpipeline_ghz",
            "cryosp_ghz",
        ),
    )

    def add(label: str, model: PipelineModel) -> None:
        values = _evaluate_variant(model)
        result.add_row(
            label,
            values["base_ghz"],
            values["reduction_77k"],
            values["cold_critical_kind"] is StageKind.FRONTEND,
            values["split_count"],
            values["superpipeline_ghz"],
            values["cryosp_ghz"],
        )

    nominal_ratio = 1.0 / 3.69
    for scale in wire_ratio_scales:
        stack = _stack_with_semi_ratio(nominal_ratio * scale)
        label = f"semi_ratio x{scale:g}"
        if scale == 1.0:
            label = "nominal"
        add(label, PipelineModel(wire_model=CryoWireModel(stack=stack)))

    for speedup in transistor_speedups:
        if speedup == FREEPDK45_CARD.drive_speedup_77:
            continue
        card = dc_replace(FREEPDK45_CARD, drive_speedup_77=speedup)
        add(
            f"transistor 77K x{speedup:g}",
            PipelineModel(
                wire_model=CryoWireModel(logic_card=card), logic_card=card
            ),
        )
    result.notes = (
        "Every variant must keep the qualitative story: the 77 K critical "
        "path is frontend-bound, exactly the three frontend stages split, "
        "and CryoSP clocks 1.8-2.1x the 300 K baseline."
    )
    return result
