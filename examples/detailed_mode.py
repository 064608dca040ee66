#!/usr/bin/env python
"""Detailed-mode engines cross-checking the analytic models.

Three levels of the stack are modelled twice in this repository -- once
analytically (fast, used by the experiment drivers) and once at cycle
level (slow, independent machinery). This script runs both sides of
each pair and prints the agreement:

1. core IPC: analytic interval model vs the cycle-level out-of-order
   scheduler on synthetic instruction streams;
2. NoC latency: M/D/1 analytic and packet-level simulation vs the
   flit-level wormhole/VC/credit simulator;
3. system IPC: closed-loop CPI stacks vs trace-driven execution through
   the functional coherence engines.

Run:  python examples/detailed_mode.py
"""

from repro.core.ipc import IPCModel
from repro.core.ooosim import OooCoreSimulator
from repro.noc.flitsim import FlitLevelSimulator
from repro.noc.simulator import NocSimulator
from repro.noc.topology import Mesh
from repro.noc.traffic import make_pattern
from repro.pipeline.config import CRYO_CORE_CONFIG, SKYLAKE_CONFIG
from repro.system.config import CHP_77K_MESH
from repro.system.multicore import MulticoreSystem
from repro.system.tracesim import TraceDrivenSimulator
from repro.util.tables import format_table
from repro.workloads.profiles import PARSEC_2_1, by_name


def core_level() -> None:
    print("=== 1. Core IPC: analytic vs cycle-level OoO scheduler ===")
    ipc_model = IPCModel()
    rows = []
    for profile in PARSEC_2_1[:6]:
        sim = OooCoreSimulator(CRYO_CORE_CONFIG)
        sim_rel = sim.relative_ipc(SKYLAKE_CONFIG, profile, 8000)
        analytic_rel = ipc_model.core_ipc(CRYO_CORE_CONFIG, profile) / (
            ipc_model.core_ipc(SKYLAKE_CONFIG, profile)
        )
        rows.append((profile.name, round(analytic_rel, 3), round(sim_rel, 3)))
    print("CryoCore sizing cost (relative IPC, 4-wide/96-ROB vs 8-wide/224-ROB):")
    print(format_table(("workload", "analytic", "cycle-level"), rows))
    print()


def noc_level() -> None:
    print("=== 2. NoC latency: packet-level vs flit-level (16-node mesh) ===")
    mesh = Mesh(16)
    pattern = make_pattern("uniform", 16)
    packet = NocSimulator(n_cycles=4000)
    flit = FlitLevelSimulator(mesh)
    rows = []
    for rate in (0.02, 0.10, 0.25):
        p = packet.simulate_router_network(mesh, pattern, rate)
        f = flit.simulate(pattern, rate, n_cycles=4000)
        rows.append(
            (rate, round(p.mean_latency_cycles, 2), round(f.mean_latency_cycles, 2))
        )
    print(format_table(("rate/node", "packet-level", "flit-level (VC+credits)"), rows))
    print()


def system_level() -> None:
    print("=== 3. System IPC: closed-loop analytic vs trace-driven ===")
    analytic = MulticoreSystem(CHP_77K_MESH)
    trace = TraceDrivenSimulator(CHP_77K_MESH, n_cores=16)
    rows = []
    for name in ("blackscholes", "ferret", "canneal", "streamcluster"):
        profile = by_name(name)
        a = analytic.evaluate(profile).ipc
        t = trace.run(profile, n_cycles=12000)
        rows.append(
            (
                name,
                round(a, 3),
                round(t.ipc, 3),
                t.protocol_stats.cache_to_cache,
                t.protocol_stats.invalidations,
            )
        )
    print(
        format_table(
            ("workload", "analytic IPC", "trace IPC", "c2c transfers",
             "invalidations"),
            rows,
        )
    )
    print("\nThe trace engine classifies every miss with the *functional* "
          "directory protocol -- no closed-form coherence assumptions.")


if __name__ == "__main__":
    core_level()
    noc_level()
    system_level()
