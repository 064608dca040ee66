"""Cryogenic device substrate (the CC-Model device layer).

This package models the two device populations whose temperature behaviour
drives every result in the paper:

* **wires** — copper interconnect whose resistivity falls steeply with
  temperature (:mod:`repro.tech.resistivity`, :mod:`repro.tech.metal`,
  :mod:`repro.tech.wire`), and
* **transistors** — MOSFETs whose drive current improves only mildly at a
  fixed operating point but dramatically once V_dd/V_th scaling (enabled by
  the collapse of leakage at 77 K) is applied (:mod:`repro.tech.mosfet`).

:mod:`repro.tech.repeater` combines both to optimally buffer long wires,
and :mod:`repro.tech.scaling` provides the ITRS-style node projection used
in model validation.
"""

from repro.tech.constants import (
    T_CRYO,
    T_LN2,
    T_ROOM,
    BOLTZMANN_EV,
    DEBYE_TEMPERATURE_CU,
)
from repro.tech.context import (
    CacheStats,
    TechContext,
    clear_context,
    get_context,
    set_context,
    use_context,
)
from repro.tech.batch import (
    OperatingPointBatch,
    OperatingPointBatchLike,
    as_operating_point_batch,
)
from repro.tech.metal import MetalLayer, WireTechnology, FREEPDK45_STACK
from repro.tech.operating_point import (
    OP_300K_NOMINAL,
    OP_77K_NOMINAL,
    OP_CHP,
    OP_CRYO,
    OP_CRYOSP,
    OP_NOC_300K,
    OP_NOC_77K,
    OP_ROOM,
    OperatingPoint,
)
from repro.tech.resistivity import (
    bloch_gruneisen_ratio,
    bloch_gruneisen_ratio_batch,
    CryoResistivityModel,
)
from repro.tech.mosfet import (
    CryoMOSFET,
    MOSFETCard,
    CRYO_LOWVTH_CARD,
    DEVICE_CARDS,
    FREEPDK45_CARD,
    INDUSTRY_2Z_CARD,
    cryo_mosfet,
)
from repro.tech.repeater import RepeaterDesign, RepeaterDesignBatch, RepeaterOptimizer
from repro.tech.wire import CryoWireModel, WireDelayBreakdown, WireDelayBreakdownBatch
from repro.tech.scaling import ITRSNode, ITRS_ROADMAP, project_speedup

__all__ = [
    "T_ROOM",
    "T_LN2",
    "T_CRYO",
    "BOLTZMANN_EV",
    "DEBYE_TEMPERATURE_CU",
    "OperatingPoint",
    "OperatingPointBatch",
    "OperatingPointBatchLike",
    "as_operating_point_batch",
    "OP_ROOM",
    "OP_CRYO",
    "OP_300K_NOMINAL",
    "OP_77K_NOMINAL",
    "OP_CHP",
    "OP_CRYOSP",
    "OP_NOC_77K",
    "OP_NOC_300K",
    "TechContext",
    "CacheStats",
    "get_context",
    "set_context",
    "use_context",
    "clear_context",
    "cryo_mosfet",
    "MetalLayer",
    "WireTechnology",
    "FREEPDK45_STACK",
    "bloch_gruneisen_ratio",
    "bloch_gruneisen_ratio_batch",
    "CryoResistivityModel",
    "CryoMOSFET",
    "MOSFETCard",
    "CRYO_LOWVTH_CARD",
    "DEVICE_CARDS",
    "FREEPDK45_CARD",
    "INDUSTRY_2Z_CARD",
    "RepeaterDesign",
    "RepeaterDesignBatch",
    "RepeaterOptimizer",
    "CryoWireModel",
    "WireDelayBreakdown",
    "WireDelayBreakdownBatch",
    "ITRSNode",
    "ITRS_ROADMAP",
    "project_speedup",
]
