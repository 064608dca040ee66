"""Fig. 27: performance/power across operating temperatures.

Following Section 7.4: clock frequency and voltages scale linearly with
temperature between the 300 K baseline and the 77 K CryoSP points, the
cooling overhead follows a 30 %-of-Carnot refrigerator, and the system
design is Baseline (300K, Mesh) at 300 K and CryoSP (77K, CryoBus)
elsewhere. Because the cooling overhead grows much faster than the
(roughly linear) performance as temperature drops, performance/power
peaks near 100 K rather than at 77 K.
"""

from __future__ import annotations

import statistics
from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.memory.cache import CacheDesign, CacheLevelSpec, MEMORY_300K, MEMORY_77K
from repro.memory.dram import DramDesign, DRAM_300K, DRAM_77K
from repro.power.cooling import carnot_cooling_overhead
from repro.power.mcpat import CorePowerModel
from repro.system.config import (
    BASELINE_300K_MESH,
    CORE_CRYOSP,
    CoreSpec,
    NocSpec,
    SystemConfig,
)
from repro.system.multicore import MulticoreSystem
from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.operating_point import (
    OP_300K_NOMINAL,
    OP_CRYOSP,
    OP_NOC_300K,
    OP_NOC_77K,
    OperatingPoint,
)
from repro.workloads.profiles import SPEC2006

DEFAULT_TEMPS = (77.0, 100.0, 125.0, 150.0, 200.0, 250.0, 300.0)


def _lerp(at_77: float, at_300: float, temperature_k: float) -> float:
    fraction = (T_ROOM - temperature_k) / (T_ROOM - T_LN2)
    return at_300 + (at_77 - at_300) * fraction


def _memory_at(temperature_k: float) -> tuple[CacheDesign, DramDesign]:
    caches = CacheDesign(
        name=f"memory_{temperature_k:.0f}k",
        l1=CacheLevelSpec("l1", 32, _lerp(
            MEMORY_77K.l1.latency_cycles_at_4ghz,
            MEMORY_300K.l1.latency_cycles_at_4ghz, temperature_k)),
        l2=CacheLevelSpec("l2", 256, _lerp(
            MEMORY_77K.l2.latency_cycles_at_4ghz,
            MEMORY_300K.l2.latency_cycles_at_4ghz, temperature_k)),
        l3=CacheLevelSpec("l3_slice", 1024, _lerp(
            MEMORY_77K.l3.latency_cycles_at_4ghz,
            MEMORY_300K.l3.latency_cycles_at_4ghz, temperature_k)),
    )
    dram = DramDesign(
        name=f"dram_{temperature_k:.0f}k",
        random_access_ns=_lerp(
            DRAM_77K.random_access_ns, DRAM_300K.random_access_ns, temperature_k
        ),
    )
    return caches, dram


def _system_at(temperature_k: float) -> SystemConfig:
    if temperature_k >= T_ROOM:
        return BASELINE_300K_MESH
    caches, dram = _memory_at(temperature_k)
    core = CoreSpec(
        f"CryoSP@{temperature_k:.0f}K",
        CORE_CRYOSP.config,
        _lerp(CORE_CRYOSP.frequency_ghz, 4.0, temperature_k),
    )
    noc_op = OperatingPoint(
        name=f"{temperature_k:.0f}K NoC",
        temperature_k=temperature_k,
        vdd_v=_lerp(OP_NOC_77K.vdd_v, OP_NOC_300K.vdd_v, temperature_k),
        vth_v=_lerp(OP_NOC_77K.vth_v, OP_NOC_300K.vth_v, temperature_k),
    )
    noc = NocSpec(f"CryoBus@{temperature_k:.0f}K", "cryobus", noc_op, "snoop")
    return SystemConfig(
        f"CryoSP (CryoBus) @ {temperature_k:.0f}K", core, noc, caches, dram
    )


def run(temperatures: Sequence[float] = DEFAULT_TEMPS) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig27",
        title="Performance, power and perf/power vs temperature (SPEC)",
        headers=(
            "temperature_k",
            "frequency_ghz",
            "cooling_overhead",
            "device_power_rel",
            "total_power_rel",
            "performance_rel",
            "perf_per_power",
        ),
        paper_reference={"sweet_spot_k": 100.0},
        notes=(
            "Following Section 7.4, performance varies linearly with "
            "temperature between the model-evaluated 300 K and 77 K "
            "endpoints; cooling overhead follows 30 %-of-Carnot."
        ),
    )
    power_model = CorePowerModel()
    # Model-evaluated endpoints; the paper assumes linear behaviour
    # between them ("server performance almost linearly changes with
    # the temperature").
    perf_300 = statistics.mean(
        r.performance
        for r in MulticoreSystem(BASELINE_300K_MESH).evaluate_suite(SPEC2006).values()
    )
    perf_77 = statistics.mean(
        r.performance
        for r in MulticoreSystem(_system_at(T_LN2)).evaluate_suite(SPEC2006).values()
    )
    for temperature in sorted(temperatures, reverse=True):
        system = _system_at(temperature)
        perf = _lerp(perf_77, perf_300, temperature)

        if temperature >= T_ROOM:
            op = OP_300K_NOMINAL
        else:
            op = OperatingPoint(
                name=f"{temperature:.0f}K core",
                temperature_k=temperature,
                vdd_v=_lerp(OP_CRYOSP.vdd_v, OP_300K_NOMINAL.vdd_v, temperature),
                vth_v=_lerp(OP_CRYOSP.vth_v, OP_300K_NOMINAL.vth_v, temperature),
            )
        device = power_model.report(
            system.core.config, op, system.core.frequency_ghz
        ).device_rel
        overhead = carnot_cooling_overhead(temperature)
        total = device * (1.0 + overhead)
        result.add_row(
            temperature,
            system.core.frequency_ghz,
            overhead,
            device,
            total,
            perf / perf_300,
            (perf / perf_300) / total,
        )
    return result
