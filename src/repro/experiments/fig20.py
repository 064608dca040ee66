"""Fig. 20: broadcast-latency breakdown of the four bus designs.

Neither 77 K cooling alone (77 K shared bus: 3 cycles) nor topology
alone (300 K H-tree: 3 cycles) reaches the 1-cycle broadcast target;
only CryoBus -- H-tree topology *and* 77 K wires -- does. The extra
control cycle for the cross-link switches adds latency but overlaps
with the previous broadcast, so it does not hurt bandwidth.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.noc.bus import CryoBusDesign, HTreeBus300K, SharedBusDesign
from repro.noc.link import WireLinkModel
from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.operating_point import OP_NOC_300K, OP_NOC_77K, OperatingPoint

#: Broadcast cycles that cover every Fig. 18 workload without contention.
TARGET_BROADCAST_CYCLES = 1


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig20",
        title="Latency breakdown of shared-bus designs (cycles at 4 GHz)",
        headers=(
            "design",
            "temperature_k",
            "hops",
            "hops_per_cycle",
            "arbitration",
            "control",
            "broadcast",
            "total_latency",
            "meets_target",
        ),
        paper_reference={
            "bus_300k_broadcast": 8,
            "bus_77k_broadcast": 3,
            "htree_300k_broadcast": 3,
            "cryobus_broadcast": 1,
        },
    )
    links = WireLinkModel()
    cases = (
        ("shared_bus", SharedBusDesign(64), T_ROOM, OP_NOC_300K),
        ("shared_bus", SharedBusDesign(64), T_LN2, OP_NOC_77K),
        ("htree_bus", HTreeBus300K(64), T_ROOM, OP_NOC_300K),
        ("cryobus", CryoBusDesign(64), T_LN2, OP_NOC_77K),
    )
    for name, design, temperature, op in cases:
        hpc = links.hops_per_cycle(OperatingPoint.at(temperature))
        broadcast = design.broadcast_cycles(hpc)
        result.add_row(
            name,
            temperature,
            design.broadcast_hops_worst,
            hpc,
            design.arbitration_cycles,
            design.control_cycles,
            broadcast,
            design.zero_load_latency_cycles(hpc),
            broadcast <= TARGET_BROADCAST_CYCLES,
        )
    return result
