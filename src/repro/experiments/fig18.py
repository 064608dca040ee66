"""Fig. 18: shared-bus load-latency at 300 K / 77 K + workload ranges.

The cycle-accurate simulator sweeps injection rate for the conventional
shared bus at both temperatures; per-suite injection ranges come from
the closed-loop system model (slow systems inject less, exactly as the
paper's gem5 measurements would show). The paper's reading: the 300 K
bus saturates below even PARSEC's demand, the 77 K bus covers PARSEC
but not SPEC/CloudSuite.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.noc.bus import SharedBusDesign
from repro.noc.link import WireLinkModel
from repro.noc.measure import load_latency_curve
from repro.noc.simulator import NocSimulator
from repro.noc.traffic import make_pattern
from repro.system.config import CHP_77K_CRYOBUS
from repro.system.multicore import MulticoreSystem
from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.operating_point import OP_NOC_300K, OP_NOC_77K, OperatingPoint
from repro.workloads.profiles import ALL_SUITES

DEFAULT_RATES = (0.0005, 0.001, 0.0015, 0.002, 0.0025, 0.003, 0.004, 0.005)


def run(
    rates: Sequence[float] = DEFAULT_RATES, n_cycles: int = 8000
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig18",
        title="Shared-bus load-latency at 300 K and 77 K + suite ranges",
        headers=("series", "x", "y", "saturated"),
        paper_reference={
            "bus_300k_broadcast_cycles": 8,
            "bus_77k_broadcast_cycles": 3,
        },
    )
    bus = SharedBusDesign(64)
    links = WireLinkModel()
    sim = NocSimulator(n_cycles=n_cycles)
    pattern = make_pattern("uniform", 64)
    for label, temperature, op in (
        ("bus_300K", T_ROOM, OP_NOC_300K),
        ("bus_77K", T_LN2, OP_NOC_77K),
    ):
        hpc = links.hops_per_cycle(OperatingPoint.at(temperature))
        # Saturation-aware sweep: rates past the knee are synthesised
        # rather than simulated (their latency is a drain artefact).
        points = load_latency_curve(
            partial(sim.simulate_bus, bus, pattern, hops_per_cycle=hpc), rates
        )
        for point in points:
            result.add_row(
                label,
                point.injection_rate,
                point.capped_latency_cycles,
                point.saturated,
            )

    # Closed-loop per-suite injection ranges on a healthy 77 K system.
    # Pinned to the paper's CPU benchmark suites: the quantum-controller
    # kernels live on cryostat stages, not the shared multicore bus.
    system = MulticoreSystem(CHP_77K_CRYOBUS)
    cpu_suites = ("parsec", "spec2006", "spec2017", "cloudsuite")
    for suite in cpu_suites:
        profiles = ALL_SUITES[suite]
        rates_seen = [
            system.evaluate(profile).injection_rate_per_core for profile in profiles
        ]
        result.add_row(f"range_{suite}", min(rates_seen), max(rates_seen), False)
    return result
