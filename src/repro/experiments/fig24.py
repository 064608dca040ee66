"""Fig. 24: SPEC rate-64 with an aggressive stride prefetcher.

Section 7.1's stress scenario: 64 copies of each SPEC workload with an
inefficient prefetcher that fires even on cache hits. CryoBus still
beats the 300 K baseline 2.11x (and CHP-core by 37.2 %); the handful of
bandwidth-hungry workloads that saturate the single bus (cactusADM,
gcc, xalancbmk, libquantum) are fixed by 2-way address interleaving
(2.34x / 52 %).
"""

from __future__ import annotations

import statistics

from repro.experiments.base import ExperimentResult
from repro.system.config import (
    BASELINE_300K_MESH,
    CHP_77K_MESH,
    CRYOSP_77K_CRYOBUS,
    CRYOSP_77K_CRYOBUS_2WAY,
)
from repro.system.multicore import MulticoreSystem
from repro.workloads.prefetch import StridePrefetcher
from repro.workloads.profiles import SPEC2006, SPEC2017

SYSTEMS = (
    BASELINE_300K_MESH,
    CHP_77K_MESH,
    CRYOSP_77K_CRYOBUS,
    CRYOSP_77K_CRYOBUS_2WAY,
)

#: Workloads the paper singles out as bus-contention victims.
CONTENTION_WORKLOADS = ("cactusADM", "gcc", "xalancbmk", "libquantum")


def run(prefetcher: StridePrefetcher = StridePrefetcher()) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig24",
        title="SPEC 2006/2017 rate-64 with aggressive stride prefetcher",
        headers=(
            "workload",
            "suite",
            "Baseline (300K, Mesh)",
            "CHP-core (77K, Mesh)",
            "CryoSP (77K, CryoBus)",
            "CryoSP (77K, CryoBus, 2-way)",
        ),
        paper_reference={
            "cryobus_vs_300k": 2.11,
            "cryobus_vs_chp": 1.372,
            "cryobus_2way_vs_300k": 2.34,
            "cryobus_2way_vs_chp": 1.52,
        },
    )
    profiles = (*SPEC2006, *SPEC2017)
    evaluations = {
        system.name: MulticoreSystem(system).evaluate_suite(profiles, prefetcher)
        for system in SYSTEMS
    }
    baseline = evaluations[BASELINE_300K_MESH.name]
    for profile in profiles:
        result.add_row(
            profile.name,
            profile.suite,
            *(
                evaluations[s.name][profile.name].performance
                / baseline[profile.name].performance
                for s in SYSTEMS
            ),
        )
    result.add_row(
        "mean",
        "all",
        *(
            statistics.mean(
                evaluations[s.name][p.name].performance
                / baseline[p.name].performance
                for p in profiles
            )
            for s in SYSTEMS
        ),
    )
    return result
