"""Fig. 10: wire-link model validation against the circuit solver.

The 6 mm CryoBus link speeds up 3.05x at 77 K in the paper's model,
within 1.6 % of Hspice. Here the analytic link model is re-simulated
with the distributed-RC transient solver.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import ExperimentResult
from repro.validation.validate import validate_wire_link_model


def run(length_mm: Optional[float] = None) -> ExperimentResult:
    if length_mm is None:
        # The validated length is CryoBus's longest switch-to-switch
        # wire run: half an H-tree spine (3 hops x 2 mm = 6 mm).
        from repro.noc.bus import HOP_LENGTH_MM, HTree

        length_mm = HTree(64).longest_segment_run_hops() * HOP_LENGTH_MM
    result = ExperimentResult(
        experiment_id="fig10",
        title=f"{length_mm:g} mm wire-link model vs circuit-level simulation",
        headers=("quantity", "model", "circuit_sim", "error"),
        paper_reference={"link_speedup_77k": 3.05, "max_error": 0.016},
    )
    validation = validate_wire_link_model(length_mm=length_mm)
    result.add_row(
        "speedup_77k",
        validation.predicted_speedup,
        validation.measured_speedup,
        validation.error,
    )
    return result
