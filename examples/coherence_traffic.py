#!/usr/bin/env python
"""Coherence traffic study: why snooping wins on a fast bus.

Drives the directory and snooping protocol engines with synthetic
traces generated from real workload profiles and compares the message
counts each needed -- the microscopic view behind CryoBus's Fig. 23
gains on sharing-heavy workloads.

Run:  python examples/coherence_traffic.py
"""

from repro.memory.coherence import DirectoryProtocol, SnoopingProtocol
from repro.util.tables import format_table
from repro.workloads.profiles import by_name
from repro.workloads.synthetic import SyntheticTraceGenerator

WORKLOADS = ("blackscholes", "ferret", "streamcluster")
N_CORES = 16
N_CYCLES = 30_000


def drive(protocol, profile):
    generator = SyntheticTraceGenerator(profile, n_cores=N_CORES, seed=profile.name)
    for request in generator.requests(N_CYCLES):
        if request.is_write:
            protocol.write(request.core, request.address)
        else:
            protocol.read(request.core, request.address)
        protocol.check_invariants(request.address)
    return protocol.stats


def main() -> None:
    rows = []
    for name in WORKLOADS:
        profile = by_name(name)
        directory = drive(DirectoryProtocol(N_CORES), profile)
        snoop = drive(SnoopingProtocol(N_CORES), profile)
        misses = max(directory.misses, 1)
        rows.append(
            (
                name,
                f"{profile.sharing_fraction:.0%}",
                directory.misses,
                round(directory.traversals / misses, 2),
                round(snoop.traversals / max(snoop.misses, 1), 2),
                directory.invalidations,
                snoop.invalidations,
                directory.cache_to_cache,
            )
        )
    print("Per-miss interconnect transfers, directory vs snooping "
          f"({N_CORES} cores, {N_CYCLES} cycles of synthetic trace):")
    print(
        format_table(
            (
                "workload",
                "sharing",
                "misses",
                "dir transfers/miss",
                "snoop transfers/miss",
                "dir invalidations",
                "snoop invalidations",
                "c2c transfers",
            ),
            rows,
        )
    )
    print("\nEvery protocol step was checked against the single-writer/"
          "multiple-reader invariant while the traces ran.")


if __name__ == "__main__":
    main()
