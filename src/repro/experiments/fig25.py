"""Fig. 25: load-latency under adversarial traffic patterns.

Uniform random is the friendliest pattern for router NoCs; transpose,
hotspot, bit-reverse and bursty traffic degrade them, while a broadcast
bus is pattern-indifferent -- CryoBus's curves barely move.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.base import ExperimentResult
from repro.experiments.fig21 import run as run_fig21

PATTERNS = ("transpose", "hotspot", "bit_reverse", "burst")
DEFAULT_RATES = (0.001, 0.002, 0.004, 0.006, 0.009)


def run(
    patterns: Sequence[str] = PATTERNS,
    rates: Sequence[float] = DEFAULT_RATES,
    n_cycles: int = 4000,
    stop_on_saturation: bool = True,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig25",
        title="Load-latency under transpose/hotspot/bit-reverse/burst",
        headers=("pattern", "series", "rate_per_node", "latency_cycles", "saturated"),
        paper_reference={},
        notes="CryoBus latency is pattern-independent; router NoCs degrade.",
    )
    for pattern in patterns:
        sub = run_fig21(
            rates=rates, n_cycles=n_cycles, pattern_name=pattern,
            include_routers=(1,), stop_on_saturation=stop_on_saturation,
        )
        for series, rate, latency, saturated in sub.rows:
            result.add_row(pattern, series, rate, latency, saturated)
    return result
