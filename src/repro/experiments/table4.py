"""Table 4: the evaluation setup, as configured in this repository."""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.system.config import SYSTEMS_BY_NAME


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table4",
        title="Evaluation setup (systems under test)",
        headers=(
            "system",
            "core",
            "core_ghz",
            "n_cores",
            "noc",
            "protocol",
            "noc_vdd",
            "noc_vth",
            "memory",
            "dram_ns",
        ),
    )
    for name in sorted(SYSTEMS_BY_NAME):
        system = SYSTEMS_BY_NAME[name]
        result.add_row(
            system.name,
            system.core.name,
            system.core.frequency_ghz,
            system.n_cores,
            system.noc.name,
            system.noc.protocol,
            system.noc.operating_point.vdd_v,
            system.noc.operating_point.vth_v,
            system.caches.name,
            system.dram.random_access_ns,
        )
    return result
