"""Figs. 12-14: stage-wise critical-path delays of the BOOM pipeline.

* Fig. 12 -- the 300 K baseline: backend forwarding stages set the clock.
* Fig. 13 -- the same core at 77 K: backend delays collapse (wires), the
  transistor-bound frontend becomes critical, max delay falls only 19 %.
* Fig. 14 -- after frontend superpipelining at 77 K: max delay falls
  38 % vs. 300 K, clocking 6.4 GHz.

Delays are normalised to the 300 K maximum, as in the paper's plots.
"""

from __future__ import annotations

from repro.core.superpipeline import SuperpipelineTransform
from repro.experiments.base import ExperimentResult
from repro.pipeline.config import SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.tech.operating_point import OP_300K_NOMINAL, OP_77K_NOMINAL


def _stage_rows(result, report, norm, label):
    for stage in report.stages:
        result.add_row(
            label,
            stage.name,
            stage.kind.value,
            stage.transistor_ps / norm,
            stage.wire_ps / norm,
            stage.total_ps / norm,
        )


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig12_14",
        title="Stage-wise critical paths: 300 K, 77 K, superpipelined 77 K",
        headers=("case", "stage", "kind", "transistor", "wire", "total"),
        paper_reference={
            "reduction_77k": 0.19,
            "reduction_superpipelined": 0.38,
            "superpipeline_frequency_ghz": 6.4,
            "baseline_frequency_ghz": 4.0,
        },
    )
    model = PipelineModel()
    base_300 = model.evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
    base_77 = model.evaluate(SKYLAKE_CONFIG, OP_77K_NOMINAL)
    norm = base_300.max_delay_ps

    transform = SuperpipelineTransform(model)
    plan, _, sp_77 = transform.apply(SKYLAKE_CONFIG, OP_77K_NOMINAL)

    _stage_rows(result, base_300, norm, "fig12_300K")
    _stage_rows(result, base_77, norm, "fig13_77K")
    _stage_rows(result, sp_77, norm, "fig14_superpipelined_77K")

    result.notes = (
        f"300K critical: {base_300.critical_stage.name} "
        f"({base_300.frequency_ghz:.2f} GHz); "
        f"77K critical: {base_77.critical_stage.name} "
        f"(delay -{1 - base_77.max_delay_ps / norm:.1%}); "
        f"superpipelined critical: {sp_77.critical_stage.name} "
        f"({sp_77.frequency_ghz:.2f} GHz, delay "
        f"-{1 - sp_77.max_delay_ps / norm:.1%}); "
        f"split stages: {', '.join(plan.split_stage_names)}"
    )
    return result
