"""Fig. 26: scaling beyond 64 cores -- the 256-core hybrid CryoBus.

Four CryoBus clusters behind a small global mesh (directory coherence
across clusters). The hybrid keeps the lowest latency of all 256-core
fabrics while scaling comparably; 2-way interleaving extends its
bandwidth further.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.noc.hybrid import HybridCryoBus
from repro.noc.latency import AnalyticNocModel
from repro.noc.measure import LATENCY_CAP
from repro.noc.link import WireLinkModel
from repro.noc.router import RouterModel
from repro.noc.topology import CMesh, FlattenedButterfly, Mesh
from repro.tech.operating_point import OP_CRYO, OP_NOC_77K

DEFAULT_RATES = (0.0005, 0.001, 0.002, 0.003, 0.005, 0.008)


def run(rates: Sequence[float] = DEFAULT_RATES) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig26",
        title="256-core load-latency: hybrid CryoBus vs router NoCs (77 K)",
        headers=("series", "rate_per_node", "latency_ref_cycles", "saturated"),
        paper_reference={},
        notes=(
            "Latency in reference 4 GHz cycles (comparable across fabric "
            "clocks). Router NoCs use realistic 3-cycle routers -- at 256 "
            "cores the high-radix flattened-butterfly/concentrated routers "
            "cannot close 1-cycle timing. Hybrid values use the analytic "
            "model, cross-checked against simulation in the tests."
        ),
    )
    op = OP_NOC_77K
    links = WireLinkModel()
    hpc = links.hops_per_cycle(OP_CRYO)
    ref_clock = 4.0

    for ways in (1, 2):
        hybrid = HybridCryoBus(interleave_ways=ways)
        label = "hybrid_cryobus" if ways == 1 else "hybrid_cryobus_2way"
        for rate in rates:
            latency = hybrid.mean_latency_cycles(rate * 256, hpc)
            saturated = latency == float("inf")
            result.add_row(label, rate, min(latency, LATENCY_CAP), saturated)

    for topo in (Mesh(256), CMesh(256, 4), FlattenedButterfly(256, 4)):
        model = AnalyticNocModel(
            topology=topo, op=op, router=RouterModel(pipeline_cycles=3),
        )
        for rate in rates:
            breakdown = model.one_way(rate * 256)
            saturated = breakdown.queueing_cycles == float("inf")
            result.add_row(
                topo.name, rate, min(breakdown.total_ns * ref_clock, LATENCY_CAP), saturated
            )
    return result
