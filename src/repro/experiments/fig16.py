"""Fig. 16: L3 hit/miss latency breakdown across NoCs at 300 K and 77 K.

At 77 K the cache and DRAM times collapse but router-based NoC latency
barely moves, so the NoC dominates L3 access time (up to 71.7 % of hit
latency for the 77 K mesh). The shared bus, being all wire, nearly
reaches the zero-NoC-latency line.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.memory.cache import MEMORY_300K, MEMORY_77K
from repro.memory.dram import DRAM_300K, DRAM_77K
from repro.memory.hierarchy import MemoryHierarchy
from repro.noc.bus import SharedBusDesign
from repro.noc.latency import AnalyticNocModel
from repro.noc.topology import CMesh, FlattenedButterfly, Mesh
from repro.tech.constants import T_LN2, T_ROOM
from repro.tech.operating_point import OP_NOC_300K, OP_NOC_77K


def _fabrics(temperature_k: float):
    op = OP_NOC_300K if temperature_k >= 200 else OP_NOC_77K
    common = dict(op=op)
    return (
        ("mesh", AnalyticNocModel(topology=Mesh(64), **common), "directory"),
        ("flattened_butterfly",
         AnalyticNocModel(topology=FlattenedButterfly(64), **common), "directory"),
        ("cmesh", AnalyticNocModel(topology=CMesh(64), **common), "directory"),
        ("shared_bus", AnalyticNocModel(bus=SharedBusDesign(64), **common), "snoop"),
    )


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig16",
        title="L3 hit/miss latency breakdown by NoC design and temperature",
        headers=(
            "noc",
            "temperature_k",
            "hit_noc_ns",
            "hit_cache_ns",
            "hit_total_ns",
            "hit_noc_fraction",
            "miss_noc_ns",
            "miss_dram_ns",
            "miss_total_ns",
            "miss_noc_fraction",
            "hit_norm_300k_mesh",
            "miss_norm_300k_mesh",
        ),
        paper_reference={
            "mesh77_hit_noc_fraction": 0.717,
            "mesh77_miss_noc_fraction": 0.404,
        },
    )
    norm_hit = norm_miss = None
    for temperature in (T_ROOM, T_LN2):
        caches = MEMORY_300K if temperature >= 200 else MEMORY_77K
        dram = DRAM_300K if temperature >= 200 else DRAM_77K
        for name, noc, protocol in _fabrics(temperature):
            hierarchy = MemoryHierarchy(caches, dram, noc, protocol)
            hit = hierarchy.l3_hit()
            miss = hierarchy.l3_miss()
            if norm_hit is None:  # first row is 300 K mesh by ordering
                norm_hit, norm_miss = hit.total_ns, miss.total_ns
            result.add_row(
                name,
                temperature,
                hit.noc_ns,
                hit.cache_ns,
                hit.total_ns,
                hit.noc_fraction,
                miss.noc_ns,
                miss.dram_ns,
                miss.total_ns,
                miss.noc_fraction,
                hit.total_ns / norm_hit,
                miss.total_ns / norm_miss,
            )
    return result
