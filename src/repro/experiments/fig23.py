"""Fig. 23: multi-thread PARSEC performance of the five Table 4 systems.

Normalised to CHP-core (77K, Mesh), the paper's headline numbers: the
full CryoWire system (CryoSP + CryoBus) averages 2.53x (up to 5.74x on
streamcluster) and beats the 300 K baseline by 3.82x.
"""

from __future__ import annotations

import statistics
from typing import Dict

from repro.experiments.base import ExperimentResult
from repro.system.config import EVALUATION_SYSTEMS
from repro.system.multicore import MulticoreSystem
from repro.workloads.profiles import PARSEC_2_1

REFERENCE_SYSTEM = "CHP-core (77K, Mesh)"


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig23",
        title="PARSEC performance, normalised to CHP-core (77K, Mesh)",
        headers=(
            "workload",
            "Baseline (300K, Mesh)",
            "CHP-core (77K, Mesh)",
            "CryoSP (77K, Mesh)",
            "CHP-core (77K, CryoBus)",
            "CryoSP (77K, CryoBus)",
        ),
        paper_reference={
            "cryosp_cryobus_mean": 2.53,
            "cryosp_cryobus_vs_300k": 3.82,
            "cryosp_mesh_mean": 1.161,
            "chp_cryobus_mean": 2.1,
            "streamcluster_cryosp_cryobus": 5.74,
            "streamcluster_chp_cryobus": 4.63,
        },
    )
    results: Dict[str, Dict[str, float]] = {}
    for system in EVALUATION_SYSTEMS:
        evaluated = MulticoreSystem(system).evaluate_suite(PARSEC_2_1)
        results[system.name] = {
            name: res.performance for name, res in evaluated.items()
        }
    reference = results[REFERENCE_SYSTEM]
    for profile in PARSEC_2_1:
        result.add_row(
            profile.name,
            *(
                results[system.name][profile.name] / reference[profile.name]
                for system in EVALUATION_SYSTEMS
            ),
        )
    result.add_row(
        "mean",
        *(
            statistics.mean(
                results[system.name][p.name] / reference[p.name] for p in PARSEC_2_1
            )
            for system in EVALUATION_SYSTEMS
        ),
    )
    return result
