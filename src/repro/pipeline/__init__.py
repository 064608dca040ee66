"""Stage-wise critical-path model of a BOOM/Skylake-class pipeline.

This is the ``cryo-pipeline`` box of CC-Model extended with the paper's
inter-unit wire model (Section 3.1.2): every pipeline stage is a
(transistor delay, wire spec) pair, the wire spec is resolved against the
floorplan-derived wire length, and both components are re-evaluated at
any (temperature, V_dd, V_th) operating point through the device models.
"""

from repro.pipeline.config import (
    CHP_CORE_CONFIG,
    CRYO_CORE_CONFIG,
    SKYLAKE_CONFIG,
    CoreConfig,
    OperatingPoint,
    OP_300K_NOMINAL,
    OP_77K_NOMINAL,
    OP_CHP,
    OP_CRYOSP,
)
from repro.pipeline.floorplan import Floorplan, UnitGeometry, SKYLAKE_FLOORPLAN
from repro.pipeline.stages import (
    BOOM_STAGES,
    StageKind,
    StageSpec,
    WireSpec,
)
from repro.pipeline.model import (
    PipelineModel,
    PipelineReport,
    PipelineReportBatch,
    StageDelay,
)

__all__ = [
    "CoreConfig",
    "OperatingPoint",
    "SKYLAKE_CONFIG",
    "CRYO_CORE_CONFIG",
    "CHP_CORE_CONFIG",
    "OP_300K_NOMINAL",
    "OP_77K_NOMINAL",
    "OP_CHP",
    "OP_CRYOSP",
    "Floorplan",
    "UnitGeometry",
    "SKYLAKE_FLOORPLAN",
    "StageSpec",
    "StageKind",
    "WireSpec",
    "BOOM_STAGES",
    "PipelineModel",
    "PipelineReport",
    "PipelineReportBatch",
    "StageDelay",
]
