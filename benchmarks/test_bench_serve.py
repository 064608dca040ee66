"""Serve-layer load-test smoke (the micro-batching throughput pin).

Boots the server in-process twice via the load-test harness
(``tools/loadtest.py``) and prices the same closed-loop query stream —
fresh operating points, each carrying a global-wire repeater
optimisation — against a micro-batching server and a
batching-disabled twin. Its 16 closed-loop clients always keep a
backlog behind the running batch, so the batched side must coalesce
and must beat the twin by ``MIN_AB_SPEEDUP``. It records nothing:
end-to-end serve numbers are recorded by ``python -m benchmarks.e2e``.

The clients are threads of the server's own process, so they share its
interpreter lock and the ratio prices that contention as well as
coalescing; it is a floor, not a measurement of what batching is worth.
Ten runs of this test on a 2-vCPU AMD EPYC KVM guest (Python 3.11.7,
NumPy 2.4.6) read 1.51x to 1.76x (median 1.63x; batched 3667-3892 rps,
unbatched 2176-2472 rps, mean batch 5.2-5.3 points).

A short paced diurnal phase rides along to exercise the latency path
(p50/p99) and the warm-context hit rate without stretching the suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "tools"))

from loadtest import run_loadtest  # noqa: E402

#: Floor pinned by the issue: batched vs unbatched closed-loop throughput.
MIN_AB_SPEEDUP = 1.3


@pytest.mark.benchmark(group="serve")
def test_serve_loadtest_smoke(benchmark):
    report = benchmark.pedantic(
        run_loadtest,
        kwargs={
            "duration_s": 4.0,
            "clients": 8,
            "peak_rps": 120.0,
            "seed": 7,
            "ab": True,
        },
        rounds=1,
        iterations=1,
    )
    diurnal = report["diurnal"]
    ab = report["ab"]
    print()
    print(
        f"diurnal: {diurnal['completed']}/{diurnal['requests']} ok | "
        f"p50 {diurnal['p50_ms']:.1f} ms | p99 {diurnal['p99_ms']:.1f} ms | "
        f"{diurnal['throughput_rps']:.0f} rps | "
        f"coalescing {report['coalescing_rate']:.2f} | "
        f"ctx hit rate {report['cache_hit_rate']:.2f}"
    )
    print(
        f"A/B: batched {ab['batched_rps']:.0f} rps vs "
        f"unbatched {ab['unbatched_rps']:.0f} rps = {ab['speedup']:.2f}x "
        f"(mean batch {ab['batched_mean_batch']:.1f})"
    )

    assert diurnal["errors"] == 0, f"{diurnal['errors']} request(s) failed"
    assert diurnal["completed"] == diurnal["requests"]
    # The A/B phase's closed loop always builds a backlog, so its batched
    # side must coalesce...
    assert ab["batched_coalescing_rate"] > 0.0, "micro-batcher never coalesced"
    # ...and repeated grids must warm the shared context.
    assert report["cache_hit_rate"] > 0.0, "warm context never hit"
    assert ab["speedup"] >= MIN_AB_SPEEDUP, (
        f"micro-batching only worth {ab['speedup']:.2f}x "
        f"(pinned floor: {MIN_AB_SPEEDUP:g}x)"
    )
