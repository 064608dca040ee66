"""Table 1: unit geometry and the forwarding-wire length."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.pipeline.floorplan import ALU_GEOMETRY, REGFILE_GEOMETRY, SKYLAKE_FLOORPLAN


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table1",
        title="Unit geometry and forwarding-wire length",
        headers=("item", "area_um2", "width_um", "height_um"),
        paper_reference={"forwarding_wire_um": 1686.0},
    )
    for unit in (ALU_GEOMETRY, REGFILE_GEOMETRY):
        result.add_row(unit.name, unit.area_um2, unit.width_um, unit.height_um)
    forwarding_8w = SKYLAKE_FLOORPLAN.forwarding_wire_length_um(SKYLAKE_CONFIG)
    forwarding_4w = SKYLAKE_FLOORPLAN.forwarding_wire_length_um(CRYO_CORE_CONFIG)
    result.add_row("forwarding_wire_8wide", 0.0, 0.0, forwarding_8w)
    result.add_row("forwarding_wire_cryocore", 0.0, 0.0, forwarding_4w)
    result.notes = (
        "8-wide: 8 ALUs + 180-entry register file (paper: 1686 um); the "
        "CryoCore sizing shortens the spine to ~900 um, part of why the "
        "narrow core clocks higher."
    )
    return result
