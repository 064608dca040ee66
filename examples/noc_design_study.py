#!/usr/bin/env python
"""NoC design study: pick an interconnect for a 64-core cryogenic CPU.

Uses the cycle-accurate simulator to sweep load-latency curves for every
Fig. 15 fabric at 300 K and 77 K, demonstrates the CryoBus dynamic link
connection mechanism, and prints the power bill for each candidate --
the full Section 5 design flow in one script.

Run:  python examples/noc_design_study.py
"""

from repro.noc.bus import CryoBusDesign, HTree, SharedBusDesign
from repro.noc.link import WireLinkModel
from repro.noc.simulator import NocSimulator
from repro.noc.topology import FlattenedButterfly, Mesh
from repro.noc.traffic import make_pattern
from repro.power.orion import (
    CRYOBUS_64_PROFILE,
    MESH_64_PROFILE,
    NocPowerModel,
    SHARED_BUS_64_PROFILE,
)
from repro.tech.operating_point import OP_CRYO, OP_NOC_300K, OP_NOC_77K, OP_ROOM
from repro.util.tables import format_table

RATES = (0.001, 0.003, 0.006, 0.010)


def sweep_load_latency() -> None:
    print("=== Load-latency sweep (uniform random, latency in cycles) ===")
    links = WireLinkModel()
    sim = NocSimulator(n_cycles=6000)
    pattern = make_pattern("uniform", 64)
    rows = []
    for temp_label, op in (("300K", OP_ROOM), ("77K", OP_CRYO)):
        hpc = links.hops_per_cycle(op)
        for rate in RATES:
            mesh = sim.simulate_router_network(
                Mesh(64), pattern, rate, hops_per_cycle=hpc
            )
            fb = sim.simulate_router_network(
                FlattenedButterfly(64), pattern, rate, hops_per_cycle=hpc
            )
            bus = sim.simulate_bus(
                SharedBusDesign(64), pattern, rate, hops_per_cycle=hpc
            )
            cryo = sim.simulate_bus(
                CryoBusDesign(64), pattern, rate, hops_per_cycle=hpc
            )
            rows.append(
                (
                    temp_label,
                    rate,
                    round(mesh.mean_latency_cycles, 1),
                    round(fb.mean_latency_cycles, 1),
                    round(min(bus.mean_latency_cycles, 9999), 1),
                    round(cryo.mean_latency_cycles, 1),
                    "yes" if bus.saturated else "no",
                )
            )
    print(
        format_table(
            ("temp", "rate/node", "mesh", "flat.butterfly", "shared_bus",
             "cryobus", "bus saturated"),
            rows,
        )
    )
    print()


def show_dynamic_link_connection() -> None:
    print("=== CryoBus dynamic link connection (Fig. 19 mechanism) ===")
    tree = HTree(64)
    for source in (0, 27, 63):
        directions = tree.link_directions(source)
        away = sum(1 for _ in directions)
        print(
            f"broadcast from core {source:2d}: {away} switch settings, "
            f"farthest core heard after {tree.broadcast_hops(source)} hops"
        )
    print(f"worst-case broadcast: {tree.worst_broadcast_hops()} hops "
          f"(linear bus: {SharedBusDesign(64).broadcast_hops_worst})")
    print()


def power_bill() -> None:
    print("=== Power bill (relative to 300 K mesh, cooling included) ===")
    model = NocPowerModel()
    rows = []
    for name, profile, op in (
        ("mesh @300K", MESH_64_PROFILE, OP_NOC_300K),
        ("mesh @77K", MESH_64_PROFILE, OP_NOC_77K),
        ("shared bus @77K", SHARED_BUS_64_PROFILE, OP_NOC_77K),
        ("CryoBus @77K", CRYOBUS_64_PROFILE, OP_NOC_77K),
    ):
        report = model.report(profile, op)
        rows.append(
            (name, round(report.dynamic_rel, 3), round(report.static_rel, 3),
             round(report.cooling_rel, 3), round(report.total_rel, 3))
        )
    print(format_table(("design", "dynamic", "static", "cooling", "total"), rows))


if __name__ == "__main__":
    sweep_load_latency()
    show_dynamic_link_connection()
    power_bill()
