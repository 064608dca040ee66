"""Fig. 3: normalized CPI stacks of PARSEC on the 64-core 300 K system.

The paper's headline motivation: the NoC (including coherence and
synchronisation traffic it carries) accounts for 45.6 % of CPI on
average and 76.6 % in the worst workload.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.system.config import BASELINE_300K_MESH
from repro.system.multicore import MulticoreSystem
from repro.workloads.profiles import PARSEC_2_1


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig03",
        title="Normalized CPI stacks, PARSEC 2.1 on Baseline (300K, Mesh)",
        headers=(
            "workload",
            "core",
            "branch",
            "private_cache",
            "noc",
            "shared_cache",
            "dram",
            "sync",
            "noc_plus_sync",
        ),
        paper_reference={"noc_fraction_mean": 0.456, "noc_fraction_max": 0.766},
    )
    system = MulticoreSystem(BASELINE_300K_MESH)
    noc_fracs = []
    for profile in PARSEC_2_1:
        fractions = system.evaluate(profile).cpi_stack.fractions()
        noc_sync = fractions["noc"] + fractions["sync"]
        noc_fracs.append(noc_sync)
        result.add_row(
            profile.name,
            fractions["core"],
            fractions["branch"],
            fractions["private_cache"],
            fractions["noc"],
            fractions["shared_cache"],
            fractions["dram"],
            fractions["sync"],
            noc_sync,
        )
    result.add_row(
        "mean", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, sum(noc_fracs) / len(noc_fracs)
    )
    result.notes = (
        "The paper's 'NoC' bucket covers interconnect time including the "
        "coherence and synchronisation traffic it carries; compare the "
        "noc_plus_sync column."
    )
    return result
