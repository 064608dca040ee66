"""Fig. 22: NoC power with voltage optimisation and cooling included.

CryoBus consumes 57.2 % less than 300 K Mesh, 40.5 % less than 77 K Mesh
and 30.7 % less than the 77 K shared bus: static power vanishes at 77 K,
V scaling cuts dynamic power, and dynamic link connection avoids
driving wire that the packet does not need.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.power.orion import (
    CRYOBUS_64_PROFILE,
    MESH_64_PROFILE,
    NocPowerModel,
    SHARED_BUS_64_PROFILE,
)
from repro.tech.operating_point import OP_NOC_300K, OP_NOC_77K


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig22",
        title="NoC power (relative to 300 K Mesh, cooling included)",
        headers=("design", "dynamic", "static", "cooling", "total"),
        paper_reference={
            "mesh_77k": 0.72,
            "shared_bus_77k": 0.617,
            "cryobus": 0.428,
        },
    )
    model = NocPowerModel()
    cases = (
        ("mesh_300K", MESH_64_PROFILE, OP_NOC_300K),
        ("mesh_77K", MESH_64_PROFILE, OP_NOC_77K),
        ("shared_bus_77K", SHARED_BUS_64_PROFILE, OP_NOC_77K),
        ("cryobus", CRYOBUS_64_PROFILE, OP_NOC_77K),
    )
    for name, profile, op in cases:
        report = model.report(profile, op)
        result.add_row(
            name, report.dynamic_rel, report.static_rel,
            report.cooling_rel, report.total_rel,
        )
    return result
