"""Fig. 9: pipeline and router model validation at 135 K.

The models' projected frequency speed-ups are compared against the
(synthetic) LN2-rig measurements of the Table 2 machines. The paper
reports a pipeline prediction of 15.0 % vs. a 12.1 % measurement and a
maximum router error of 2.8 %.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.validation.measurements import MeasurementCampaign, VALIDATION_RIGS
from repro.validation.validate import validate_pipeline_model, validate_router_model


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig09",
        title="Pipeline and router model validation at 135 K",
        headers=(
            "model",
            "predicted_speedup",
            "measured_speedup",
            "measured_lower",
            "measured_upper",
            "error",
        ),
        paper_reference={
            "pipeline_predicted": 1.150,
            "pipeline_measured": 1.121,
            "router_max_error": 0.028,
        },
    )
    campaign = MeasurementCampaign()
    pipeline = validate_pipeline_model(campaign=campaign)
    result.add_row(
        pipeline.name,
        pipeline.predicted_speedup,
        pipeline.measured_speedup,
        pipeline.measured_lower,
        pipeline.measured_upper,
        pipeline.error,
    )
    for rig in VALIDATION_RIGS:
        router = validate_router_model(rig, campaign=campaign)
        result.add_row(
            router.name,
            router.predicted_speedup,
            router.measured_speedup,
            router.measured_lower,
            router.measured_upper,
            router.error,
        )
    result.notes = "Measurements are synthetic (see repro.validation.measurements)."
    return result
