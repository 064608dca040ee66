"""Percentiles and sample summaries for the benchmark's metrics."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles the printout considers, highest first.
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of ``pct`` (a multiple of 0.1) among ``n``,
    in integer arithmetic so that e.g. p99.9 of 10000 is rank 9990."""
    return max(1, -(-round(pct * 10) * n // 1000))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(pct, len(values)) - 1]


def supported_percentile(n: int, min_beyond: int = 10) -> Optional[float]:
    """The highest of p99.9/p99/p95/p90/p50 with ``min_beyond`` samples above it.

    ``None`` when even the median has fewer than ``min_beyond`` samples
    beyond it (fewer than ``2 * min_beyond`` samples in all).
    """
    for pct in _PERCENTILES:
        if n - _rank(pct, n) >= min_beyond:
            return pct
    return None


def tail(values: Sequence[float], min_beyond: int = 10) -> Tuple[Optional[float], Optional[float], int]:
    """``(pct, value, n)``: the highest percentile the sample supports."""
    n = len(values)
    pct = supported_percentile(n, min_beyond)
    return pct, (percentile(values, pct) if pct is not None else None), n


def summarize(samples: Sequence[float]) -> Dict:
    """Raw samples with their median and inter-quartile range."""
    values: List[float] = list(samples)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "samples": values,
        "n": len(values),
        "median": statistics.median(values) if values else None,
        "iqr": iqr,
    }
