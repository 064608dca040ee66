"""Core configurations and operating points (Table 3 of the paper).

A :class:`CoreConfig` captures the *structural* parameters of a core
(issue width, queue and register-file sizes); an :class:`OperatingPoint`
captures the *electrical* ones (temperature, V_dd, V_th). The critical-
path model takes both, because structure sets wire lengths and logic
sizes while the operating point sets device speed.

:class:`OperatingPoint` and the named Table 3 / Table 4 points live in
:mod:`repro.tech.operating_point`: the whole physical stack speaks
them, not just the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CoreConfig:
    """Structural microarchitecture parameters of one core design."""

    name: str
    issue_width: int
    pipeline_depth: int
    load_queue: int
    store_queue: int
    issue_queue: int
    rob_size: int
    int_regs: int
    fp_regs: int

    #: Reference values of the 8-issue Skylake-like baseline; stage delay
    #: scaling laws are expressed relative to these.
    REF_WIDTH = 8
    REF_ISSUE_QUEUE = 97
    REF_LSQ = 72 + 56
    REF_ROB = 224
    REF_INT_REGS = 180
    REF_FP_REGS = 168

    def __post_init__(self) -> None:
        for field_name in (
            "issue_width",
            "pipeline_depth",
            "load_queue",
            "store_queue",
            "issue_queue",
            "rob_size",
            "int_regs",
            "fp_regs",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{self.name}: {field_name} must be positive")

    @property
    def width_ratio(self) -> float:
        return self.issue_width / self.REF_WIDTH

    @property
    def issue_queue_ratio(self) -> float:
        return self.issue_queue / self.REF_ISSUE_QUEUE

    @property
    def lsq_ratio(self) -> float:
        return (self.load_queue + self.store_queue) / self.REF_LSQ

    @property
    def int_reg_ratio(self) -> float:
        return self.int_regs / self.REF_INT_REGS

    @property
    def fp_reg_ratio(self) -> float:
        return self.fp_regs / self.REF_FP_REGS

    def deepened(self, extra_stages: int, name: str | None = None) -> "CoreConfig":
        """A copy with a deeper pipeline (superpipelining bookkeeping)."""
        if extra_stages < 0:
            raise ValueError("extra_stages must be non-negative")
        return replace(
            self,
            name=name or f"{self.name}+{extra_stages}stg",
            pipeline_depth=self.pipeline_depth + extra_stages,
        )


# ----------------------------------------------------------------------
# The named designs of Table 3
# ----------------------------------------------------------------------

#: 300 K Baseline: Intel Skylake-like 8-issue out-of-order core.
SKYLAKE_CONFIG = CoreConfig(
    name="skylake_8w",
    issue_width=8,
    pipeline_depth=14,
    load_queue=72,
    store_queue=56,
    issue_queue=97,
    rob_size=224,
    int_regs=180,
    fp_regs=168,
)

#: CryoCore sizing (Byun et al., ISCA 2020): halved width and shrunken
#: structures to cut power; used by both CHP-core and CryoSP.
CRYO_CORE_CONFIG = CoreConfig(
    name="cryocore_4w",
    issue_width=4,
    pipeline_depth=14,
    load_queue=24,
    store_queue=24,
    issue_queue=72,
    rob_size=96,
    int_regs=100,
    fp_regs=96,
)

#: CHP-core is structurally CryoCore (its gains come from V scaling).
CHP_CORE_CONFIG = CRYO_CORE_CONFIG
