#!/usr/bin/env python
"""System IPC two ways: the closed-loop analytic CPI stacks the
experiment drivers use, and trace-driven execution through the
functional coherence engines (slow, independent machinery).

Run:  python examples/detailed_mode.py
"""

from repro.system.config import CHP_77K_MESH
from repro.system.multicore import MulticoreSystem
from repro.system.tracesim import TraceDrivenSimulator
from repro.util.tables import format_table
from repro.workloads.profiles import by_name


def system_level() -> None:
    print("=== System IPC: closed-loop analytic vs trace-driven ===")
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
    system_level()
