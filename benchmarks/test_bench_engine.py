"""Engine overhead benchmarks: the failure handling must be free when
nothing faults.

Two hot paths matter:

* **warm-cache serving** — a fully-hit ``engine.run`` is a cache read
  plus digest verification per experiment; no driver and no timeout
  thread may run.
* **fault points** — ``fault_point`` sits on every driver invocation
  and cache write; with no plan installed it must be a dictionary
  lookup, nothing more.
"""

from __future__ import annotations

from repro.experiments.engine import ExecutionEngine
from repro.util.faults import FAULT_PLAN_ENV, fault_point, maybe_corrupt


def test_bench_engine_warm_cache_run(benchmark, tmp_path, monkeypatch):
    """Serve fig20 + table4 entirely from a warm, digest-verified cache."""
    monkeypatch.delenv("CRYOWIRE_NO_CACHE", raising=False)
    cache_dir = tmp_path / "cache"
    ExecutionEngine(jobs=1, cache_dir=cache_dir).run(["fig20", "table4"])

    def warm():
        return ExecutionEngine(jobs=1, cache_dir=cache_dir).run(
            ["fig20", "table4"]
        )

    outcome = benchmark(warm)
    assert {r.status for r in outcome.manifest.records} == {"hit"}


def test_bench_fault_point_no_plan(benchmark, monkeypatch):
    """1000 fault points with injection disabled (the production state)."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)

    def probe():
        for _ in range(1000):
            fault_point("driver.fig20")

    benchmark(probe)


def test_bench_maybe_corrupt_no_plan(benchmark, monkeypatch):
    """Pass 1 MiB through the cache-write corruption site, no plan."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    blob = b"x" * (1 << 20)

    def probe():
        return maybe_corrupt("cache.write", blob)

    assert benchmark(probe) is blob  # zero-copy when disabled
