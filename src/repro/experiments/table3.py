"""Table 3: the CryoSP design-derivation chain.

Re-derives every column from the models: frequencies from the critical
path, relative IPC from the analytic core model, power from the
McPAT-like model with cooling.
"""

from __future__ import annotations

from repro.core.cryosp import CryoSPDesigner
from repro.experiments.base import ExperimentResult


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table3",
        title="Pipeline specification of the derived cores",
        headers=(
            "design",
            "frequency_ghz",
            "pipeline_depth",
            "issue_width",
            "ipc_relative",
            "core_power_rel",
            "total_power_rel",
            "vdd_v",
            "vth_v",
        ),
        paper_reference={
            "baseline_ghz": 4.0,
            "superpipeline_ghz": 6.4,
            "superpipeline_cryocore_ghz": 6.4,
            "cryosp_ghz": 7.84,
            "chp_ghz": 6.1,
            "superpipeline_ipc": 0.96,
            "cryocore_ipc": 0.90,
            "chp_ipc": 0.93,
            "superpipeline_core_power": 1.61,
            "cryocore_core_power": 0.3575,
            "cryosp_core_power": 0.093,
        },
    )
    table = CryoSPDesigner().derive()
    for design in table.designs():
        result.add_row(
            design.name,
            design.frequency_ghz,
            design.pipeline_depth,
            design.config.issue_width,
            design.ipc_relative,
            design.power.device_rel,
            design.power.total_rel,
            design.operating_point.vdd_v,
            design.operating_point.vth_v,
        )
    result.notes = (
        f"Superpipelined stages: {', '.join(table.plan.split_stage_names)}; "
        f"target latency {table.plan.target_latency_ps:.1f} ps; residual "
        f"(unsplittable) stages: {', '.join(table.plan.residual_stage_names)}"
    )
    return result
