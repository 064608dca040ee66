"""Chaos suite: deterministic fault injection against the execution engine.

Every test installs a seeded :class:`~repro.util.faults.FaultPlan` and
asserts one failure path of the engine end-to-end, with real experiment
drivers:

* a hung driver hits its wall-clock budget and becomes one ``timeout``
  record;
* a killed worker breaks the pool, every experiment it left unfinished
  becomes an ``error`` record, and ``resume`` completes them
  byte-identically;
* a corrupted cache entry is quarantined and recomputed;
* identical seeds replay identical fault sequences (and manifests).

Run serially (``pytest -m chaos``): the suite spawns real process
pools and kills real workers.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ERROR,
    FAILURE_STATUSES,
    HIT,
    MISS,
    SKIPPED,
    TIMEOUT,
    UNCACHED,
    ExecutionEngine,
    load_last_manifest,
)
from repro.experiments.registry import run_experiment
from repro.util import faults
from repro.util.faults import FatalFault, FaultInjector, FaultPlan, FaultSpec

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan leaks in or out of any chaos test."""
    faults.clear()
    yield
    faults.clear()


def _engine(tmp_path, **kwargs):
    return ExecutionEngine(cache_dir=tmp_path / "cache", **kwargs)


def _by_id(outcome):
    return {r.experiment_id: r for r in outcome.manifest.records}


class TestInjectorPlumbing:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("driver.*", faults.KILL, max_fires=2, delay_s=1.5),
                FaultSpec("cache.read", faults.CORRUPT, probability=0.25),
            ),
            seed=42,
            ledger_dir="/tmp/ledger",
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_var_carries_the_plan_across_processes(self, monkeypatch):
        plan = FaultPlan(specs=(FaultSpec("driver.x", faults.FATAL),), seed=3)
        # What a freshly spawned worker would see: only the env var.
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, plan.to_json())
        injector = faults.active()
        assert injector is not None
        assert injector.plan == plan
        with pytest.raises(FatalFault):
            injector.check("driver.x")

    def test_ledger_budget_is_shared_across_injectors(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec("driver.x", faults.FATAL, max_fires=1),),
            seed=3,
            ledger_dir=str(tmp_path),
        )
        first = FaultInjector(plan)
        with pytest.raises(FatalFault):
            first.check("driver.x")
        # A second injector (fresh "process") sees the spent budget.
        second = FaultInjector(plan)
        second.check("driver.x")  # must not raise

    def test_unmatched_site_never_fires(self):
        faults.install(
            FaultPlan(specs=(FaultSpec("driver.other", faults.FATAL),), seed=1)
        )
        faults.fault_point("driver.this")  # no match, no fault

    def test_no_plan_passes_data_through_uncopied(self):
        blob = b"x" * (1 << 20)
        assert faults.maybe_corrupt("cache.write", blob) is blob


class TestHangFaults:
    def test_hung_driver_is_one_timeout_record(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.table4", faults.HANG, delay_s=5.0),),
                seed=7,
            )
        )
        outcome = _engine(tmp_path, jobs=1, timeout_s=0.5).run(
            ["table4"], keep_going=True
        )
        [record] = outcome.manifest.records
        assert (record.experiment_id, record.status) == ("table4", TIMEOUT)
        assert "0.5s wall-clock budget" in record.error
        assert "table4" not in outcome.results


class TestWorkerCrashes:
    def test_worker_crash_mid_run_recovers_and_completes(self, tmp_path):
        """A killed worker fails what it left unfinished, one ``error``
        record each; ``resume`` re-runs exactly those, byte-identically."""
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.fig20", faults.KILL, max_fires=1),),
                seed=7,
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        ids = ["fig20", "fig03", "table4", "fig22"]
        engine = _engine(tmp_path, jobs=2)
        records = _by_id(engine.run(ids, keep_going=True))
        assert records["fig20"].status == ERROR
        assert "BrokenProcessPool" in records["fig20"].error
        assert {r.status for r in records.values()} <= {MISS, ERROR}
        failed = {eid for eid, r in records.items() if r.status == ERROR}

        resumed = engine.run(ids, resume=True)  # the kill budget is spent
        assert {eid: r.status for eid, r in _by_id(resumed).items()} == {
            eid: MISS if eid in failed else SKIPPED for eid in ids
        }
        for eid in ids:
            assert resumed.results[eid].to_json() == run_experiment(eid).to_json()


class TestCacheCorruption:
    def test_corrupted_entry_is_quarantined_and_recomputed(self, tmp_path):
        engine = _engine(tmp_path, jobs=1)
        cold = engine.run(["fig20"])
        assert _by_id(cold)["fig20"].status == MISS

        # Bit-flip + truncate the entry through the injector's mangler.
        entry = next(
            p
            for p in (tmp_path / "cache").glob("*.json")
            if p.name != "last_run.json"
        )
        entry.write_bytes(faults._mangle(entry.read_bytes()))

        engine2 = _engine(tmp_path, jobs=1)
        recomputed = engine2.run(["fig20"])
        assert _by_id(recomputed)["fig20"].status == MISS  # corrupt != hit
        assert engine2.cache.quarantined_count() == 1
        assert (
            recomputed.results["fig20"].to_text()
            == run_experiment("fig20").to_text()
        )

        warm = _engine(tmp_path, jobs=1).run(["fig20"])
        assert _by_id(warm)["fig20"].status == HIT

    def test_injected_write_corruption_heals_transparently(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("cache.write", faults.CORRUPT, max_fires=1),),
                seed=7,
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        _engine(tmp_path, jobs=1).run(["fig20"])  # writes a corrupt entry
        faults.clear()

        engine = _engine(tmp_path, jobs=1)
        healed = engine.run(["fig20"])
        assert _by_id(healed)["fig20"].status == MISS
        assert engine.cache.quarantined_count() == 1
        assert healed.results["fig20"].to_text() == run_experiment("fig20").to_text()


class TestDeterminism:
    def test_injector_replays_identically_under_a_seed(self):
        def sequence(plan):
            injector = FaultInjector(plan)
            decisions = []
            for trial in range(60):
                site = f"driver.site{trial % 5}"
                try:
                    injector.check(site)
                    decisions.append((site, "ok"))
                except FatalFault:
                    decisions.append((site, "fault"))
            return decisions

        def plan(seed):
            return FaultPlan(
                specs=(FaultSpec("driver.*", faults.FATAL, probability=0.4),),
                seed=seed,
            )

        first = sequence(plan(99))
        assert first == sequence(plan(99))
        assert {d for _, d in first} == {"ok", "fault"}  # a real mix
        assert first != sequence(plan(100))

    def test_identical_seed_gives_identical_manifest(self, tmp_path):
        ids = ["fig02", "fig03", "fig20", "fig22", "table1", "table4"]

        def run_once(tag):
            faults.install(
                FaultPlan(
                    specs=(FaultSpec("driver.*", faults.FATAL, probability=0.5),),
                    seed=1234,
                )
            )
            engine = _engine(tmp_path / tag, jobs=1, use_cache=False)
            outcome = engine.run(ids, keep_going=True)
            faults.clear()
            return [
                (r.experiment_id, r.status, r.error)
                for r in outcome.manifest.records
            ]

        first = run_once("a")
        second = run_once("b")
        assert first == second
        assert {status for _, status, _ in first} == {UNCACHED, ERROR}  # faults fired


class TestKeepGoingAndResume:
    """The acceptance scenario: kill + hang + fatal + cache corruption
    across >= 6 experiments, salvage with ``keep_going``, then a clean
    ``resume`` re-executes exactly what the cache cannot serve: the
    failures and the corrupted entry."""

    def test_keep_going_then_resume_reruns_only_failures(self, tmp_path):
        ids = ["fig02", "fig03", "fig20", "fig22", "table1", "table4"]
        plan = FaultPlan(
            specs=(
                FaultSpec("driver.fig20", faults.KILL, max_fires=1),
                FaultSpec("driver.table4", faults.HANG, max_fires=1, delay_s=8.0),
                FaultSpec("driver.table1", faults.FATAL),
                FaultSpec("cache.write", faults.CORRUPT, max_fires=1),
            ),
            seed=7,
            ledger_dir=str(tmp_path / "ledger"),
        )
        faults.install(plan)
        engine = _engine(tmp_path, jobs=2, timeout_s=3.0)
        outcome = engine.run(ids, keep_going=True)
        records = _by_id(outcome)

        failed = {eid for eid, r in records.items() if r.status in FAILURE_STATUSES}
        # The faulted drivers never complete. Which of the others the
        # dead worker takes down with it depends on timing.
        assert {"fig20", "table1", "table4"} <= failed
        own_fault = {"table1": "FatalFault", "table4": "ExperimentTimeout"}
        for eid in failed:
            assert records[eid].error.startswith(
                ("BrokenProcessPool", own_fault.get(eid, "BrokenProcessPool"))
            ), records[eid]
        for eid in set(ids) - failed:
            assert records[eid].status == MISS, records[eid]
            assert outcome.results[eid].to_json() == run_experiment(eid).to_json()
        assert failed.isdisjoint(outcome.results)
        # The first result written went through the corrupting write.
        corrupted = next(r.experiment_id for r in outcome.manifest.records
                         if r.status == MISS)

        faults.clear()
        resumed = engine.run(ids, resume=True)
        assert {eid: r.status for eid, r in _by_id(resumed).items()} == {
            eid: MISS if eid in failed | {corrupted} else SKIPPED for eid in ids
        }
        for eid in ids:
            assert resumed.results[eid].to_json() == run_experiment(eid).to_json()
        # The write-corrupted entry was detected while resuming and
        # quarantined rather than served.
        assert ResultCache(tmp_path / "cache").quarantined_count() == 1


class TestCliResumeAfterCrash:
    def test_cli_resume_after_keep_going_crash(self, capsys, tmp_path):
        """A --keep-going run that loses a worker must be resumable from
        the CLI: once the fault plan is gone, --resume re-runs only what
        the crash failed and prints every table."""
        from repro.experiments.cli import main

        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.fig20", faults.KILL),),  # unlimited
                seed=5,
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        rc = main(
            ["run", "fig20", "table1", "--jobs", "2", "--keep-going"]
            + cache_flags
        )
        assert rc == 1
        assert "failed: fig20 [error]: BrokenProcessPool" in capsys.readouterr().err
        crashed = load_last_manifest(tmp_path / "c")
        n_failed = crashed.n_failures
        assert n_failed in (1, 2)  # table1 may have died with the worker

        faults.clear()
        rc = main(["run", "fig20", "table1", "--jobs", "2", "--resume"]
                  + cache_flags)
        assert rc == 0
        out = capsys.readouterr().out
        assert "cryobus" in out and "forwarding_wire_8wide" in out
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert f"{n_failed} misses" in out
        assert f"skipped {2 - n_failed}" in out
