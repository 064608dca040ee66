"""Table 4: the evaluated system configurations.

Core clock frequencies here are the paper's published evaluation values
(4.0 / 6.1 / 7.84 GHz). The design chain in :mod:`repro.core` *re-derives*
those numbers from first principles (within a few percent); pinning the
evaluation to the published values keeps the system-level experiments
directly comparable to the paper's tables while the derivation is
validated separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.memory.cache import CacheDesign, MEMORY_300K, MEMORY_77K
from repro.memory.dram import DramDesign, DRAM_300K, DRAM_77K
from repro.pipeline.config import CRYO_CORE_CONFIG, CoreConfig, SKYLAKE_CONFIG
from repro.tech.operating_point import OP_NOC_300K, OP_NOC_77K, OperatingPoint


@dataclass(frozen=True)
class CoreSpec:
    """A core design as the system model consumes it."""

    name: str
    config: CoreConfig
    frequency_ghz: float

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError(f"{self.name}: frequency must be positive")


@dataclass(frozen=True)
class NocSpec:
    """An interconnect choice: fabric kind + operating point + protocol."""

    name: str
    kind: str  # "mesh" | "bus" | "cryobus" | "ideal"
    operating_point: OperatingPoint
    protocol: str  # "directory" | "snoop"
    router_cycles: int = 1
    interleave_ways: int = 1
    #: Core-side clock that times fabrics without their own clocked
    #: routers (buses, the ideal NoC): flit serialisation and bus
    #: transfers are charged against this clock. Matches the 4 GHz 300 K
    #: baseline core of Table 4.
    reference_clock_ghz: float = 4.0

    def __post_init__(self) -> None:
        if self.kind not in ("mesh", "bus", "cryobus", "htree_bus", "ideal"):
            raise ValueError(f"{self.name}: unknown fabric kind {self.kind!r}")
        if self.protocol not in ("directory", "snoop"):
            raise ValueError(f"{self.name}: unknown protocol {self.protocol!r}")
        if self.reference_clock_ghz <= 0:
            raise ValueError(f"{self.name}: reference clock must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """One full evaluated system (a Table 4 row)."""

    name: str
    core: CoreSpec
    noc: NocSpec
    caches: CacheDesign
    dram: DramDesign
    n_cores: int = 64

    def with_noc(self, noc: NocSpec, name: Optional[str] = None) -> "SystemConfig":
        return replace(self, noc=noc, name=name or f"{self.core.name} ({noc.name})")


# ----------------------------------------------------------------------
# Core specs (Table 4 'Core type' column)
# ----------------------------------------------------------------------
CORE_300K_BASELINE = CoreSpec("300K Baseline", SKYLAKE_CONFIG, 4.0)
CORE_CHP = CoreSpec("CHP-core", CRYO_CORE_CONFIG, 6.1)
CORE_CRYOSP = CoreSpec("CryoSP", CRYO_CORE_CONFIG.deepened(3, "cryosp_4w_sp"), 7.84)

# ----------------------------------------------------------------------
# NoC specs
# ----------------------------------------------------------------------
NOC_MESH_300K = NocSpec("300K Mesh", "mesh", OP_NOC_300K, "directory")
NOC_MESH_77K = NocSpec("77K Mesh", "mesh", OP_NOC_77K, "directory")
NOC_CRYOBUS = NocSpec("CryoBus", "cryobus", OP_NOC_77K, "snoop")
NOC_CRYOBUS_2WAY = NocSpec(
    "CryoBus 2-way", "cryobus", OP_NOC_77K, "snoop", interleave_ways=2
)
NOC_SHARED_BUS_300K = NocSpec("300K Shared bus", "bus", OP_NOC_300K, "snoop")
NOC_SHARED_BUS_77K = NocSpec("77K Shared bus", "bus", OP_NOC_77K, "snoop")
NOC_IDEAL = NocSpec("Ideal NoC", "ideal", OP_NOC_77K, "snoop")

# ----------------------------------------------------------------------
# The five evaluated systems (Table 4, Fig. 23) plus Section 7 variants
# ----------------------------------------------------------------------
BASELINE_300K_MESH = SystemConfig(
    "Baseline (300K, Mesh)", CORE_300K_BASELINE, NOC_MESH_300K, MEMORY_300K, DRAM_300K
)
CHP_77K_MESH = SystemConfig(
    "CHP-core (77K, Mesh)", CORE_CHP, NOC_MESH_77K, MEMORY_77K, DRAM_77K
)
CRYOSP_77K_MESH = SystemConfig(
    "CryoSP (77K, Mesh)", CORE_CRYOSP, NOC_MESH_77K, MEMORY_77K, DRAM_77K
)
CHP_77K_CRYOBUS = SystemConfig(
    "CHP-core (77K, CryoBus)", CORE_CHP, NOC_CRYOBUS, MEMORY_77K, DRAM_77K
)
CRYOSP_77K_CRYOBUS = SystemConfig(
    "CryoSP (77K, CryoBus)", CORE_CRYOSP, NOC_CRYOBUS, MEMORY_77K, DRAM_77K
)
CRYOSP_77K_CRYOBUS_2WAY = SystemConfig(
    "CryoSP (77K, CryoBus, 2-way)",
    CORE_CRYOSP,
    NOC_CRYOBUS_2WAY,
    MEMORY_77K,
    DRAM_77K,
)

#: Fig. 17's systems: 77 K memory with shared bus vs. mesh vs. ideal NoC.
CHP_77K_SHARED_BUS = SystemConfig(
    "CHP-core (77K, Shared bus)", CORE_CHP, NOC_SHARED_BUS_77K, MEMORY_77K, DRAM_77K
)
CHP_77K_IDEAL = SystemConfig(
    "CHP-core (77K, Ideal NoC)", CORE_CHP, NOC_IDEAL, MEMORY_77K, DRAM_77K
)

EVALUATION_SYSTEMS: Tuple[SystemConfig, ...] = (
    BASELINE_300K_MESH,
    CHP_77K_MESH,
    CRYOSP_77K_MESH,
    CHP_77K_CRYOBUS,
    CRYOSP_77K_CRYOBUS,
)

SYSTEMS_BY_NAME: Dict[str, SystemConfig] = {
    system.name: system
    for system in (
        *EVALUATION_SYSTEMS,
        CRYOSP_77K_CRYOBUS_2WAY,
        CHP_77K_SHARED_BUS,
        CHP_77K_IDEAL,
    )
}
