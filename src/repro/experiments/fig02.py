"""Fig. 2: critical-path delay breakdown of the three slowest stages.

Writeback, execute bypass and data read from bypass carry the long
forwarding wires; the paper measures a 57.6 % average wire share of
their critical-path delay at 300 K.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.pipeline.config import SKYLAKE_CONFIG
from repro.pipeline.model import PipelineModel
from repro.pipeline.stages import FIG2_STAGES
from repro.tech.operating_point import OP_300K_NOMINAL


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig02",
        title="Critical-path breakdown of the forwarding-wire stages (300 K)",
        headers=("stage", "transistor_ps", "wire_ps", "total_ps", "wire_fraction"),
        paper_reference={"mean_wire_fraction": 0.576},
    )
    report = PipelineModel().evaluate(SKYLAKE_CONFIG, OP_300K_NOMINAL)
    fractions = []
    for name in FIG2_STAGES:
        stage = report.stage(name)
        fractions.append(stage.wire_fraction)
        result.add_row(
            name, stage.transistor_ps, stage.wire_ps, stage.total_ps, stage.wire_fraction
        )
    result.add_row(
        "mean", 0.0, 0.0, 0.0, sum(fractions) / len(fractions)
    )
    result.notes = (
        "Wire share includes the net drivers, as Design Compiler reports it."
    )
    return result
