"""Fig. 17: system-level cost of the NoC at 77 K (mesh vs shared bus).

Both systems run 77 K-optimised memory; performance is normalised to an
ideal (zero-latency, snooping) NoC. The paper measures the 77 K mesh
43.3 % below ideal but the 77 K shared bus only 8.1 % below.
"""

from __future__ import annotations

import statistics

from repro.experiments.base import ExperimentResult
from repro.system.config import CHP_77K_IDEAL, CHP_77K_MESH, CHP_77K_SHARED_BUS
from repro.system.multicore import MulticoreSystem
from repro.workloads.profiles import PARSEC_2_1


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig17",
        title="77 K system performance vs ideal NoC (PARSEC)",
        headers=("workload", "mesh_77k", "shared_bus_77k"),
        paper_reference={"mesh_mean": 1 - 0.433, "shared_bus_mean": 1 - 0.081},
    )
    ideal = MulticoreSystem(CHP_77K_IDEAL).evaluate_suite(PARSEC_2_1)
    mesh = MulticoreSystem(CHP_77K_MESH).evaluate_suite(PARSEC_2_1)
    bus = MulticoreSystem(CHP_77K_SHARED_BUS).evaluate_suite(PARSEC_2_1)

    mesh_rel, bus_rel = [], []
    for profile in PARSEC_2_1:
        m = mesh[profile.name].performance / ideal[profile.name].performance
        b = bus[profile.name].performance / ideal[profile.name].performance
        mesh_rel.append(m)
        bus_rel.append(b)
        result.add_row(profile.name, m, b)
    result.add_row("mean", statistics.mean(mesh_rel), statistics.mean(bus_rel))
    return result
