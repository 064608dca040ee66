"""Chaos suite: deterministic fault injection against the execution engine.

Every test installs a seeded :class:`~repro.util.faults.FaultPlan` and
asserts a specific recovery path of the engine end-to-end, with real
experiment drivers:

* a transient raise succeeds on retry, with the attempt recorded;
* a hung driver hits its wall-clock budget and is retried;
* a killed worker breaks the pool, the in-flight experiments are
  re-run isolated, and the run still completes correctly;
* a driver that keeps crashing workers is quarantined instead of
  wedging the fleet;
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
    HIT,
    MISS,
    QUARANTINED,
    SKIPPED,
    ExecutionEngine,
    ExperimentExecutionError,
)
from repro.experiments.registry import run_experiment
from repro.util import faults
from repro.util.faults import FaultInjector, FaultPlan, FaultSpec, TransientFault

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _clean_faults():
    """No plan leaks in or out of any chaos test."""
    faults.clear()
    yield
    faults.clear()


def _engine(tmp_path, **kwargs):
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
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
        plan = FaultPlan(specs=(FaultSpec("driver.x", faults.TRANSIENT),), seed=3)
        # What a freshly spawned worker would see: only the env var.
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, plan.to_json())
        injector = faults.active()
        assert injector is not None
        assert injector.plan == plan
        with pytest.raises(TransientFault):
            injector.check("driver.x")

    def test_ledger_budget_is_shared_across_injectors(self, tmp_path):
        plan = FaultPlan(
            specs=(FaultSpec("driver.x", faults.TRANSIENT, max_fires=1),),
            seed=3,
            ledger_dir=str(tmp_path),
        )
        first = FaultInjector(plan)
        with pytest.raises(TransientFault):
            first.check("driver.x")
        # A second injector (fresh "process") sees the spent budget.
        second = FaultInjector(plan)
        second.check("driver.x")  # must not raise

    def test_unmatched_site_never_fires(self):
        faults.install(
            FaultPlan(specs=(FaultSpec("driver.other", faults.FATAL),), seed=1)
        )
        faults.fault_point("driver.this")  # no match, no fault


class TestTransientFaults:
    def test_transient_raise_succeeds_on_retry(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.fig20", faults.TRANSIENT, max_fires=1),),
                seed=7,
            )
        )
        outcome = _engine(tmp_path, jobs=1, retries=2).run(["fig20"])
        record = _by_id(outcome)["fig20"]
        assert record.status == MISS
        assert record.attempts == 2
        assert outcome.results["fig20"].to_text() == run_experiment("fig20").to_text()
        assert outcome.manifest.n_retries == 1

    def test_transient_without_retry_budget_fails(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.fig20", faults.TRANSIENT, max_fires=1),),
                seed=7,
            )
        )
        with pytest.raises(ExperimentExecutionError) as excinfo:
            _engine(tmp_path, jobs=1, retries=0).run(["fig20"])
        record = _by_id(excinfo.value.outcome)["fig20"]
        assert record.status == ERROR
        assert "injected transient fault" in record.error
        assert record.attempts == 1


class TestHangFaults:
    def test_hung_driver_times_out_and_is_retried(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(
                    FaultSpec(
                        "driver.table4", faults.HANG, max_fires=1, delay_s=5.0
                    ),
                ),
                seed=7,
            )
        )
        outcome = _engine(tmp_path, jobs=1, retries=1, timeout_s=1.0).run(["table4"])
        record = _by_id(outcome)["table4"]
        assert record.status == MISS
        assert record.attempts == 2
        assert (
            outcome.results["table4"].to_text() == run_experiment("table4").to_text()
        )

    def test_hang_exhausting_retries_is_a_timeout(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.table4", faults.HANG, delay_s=5.0),),
                seed=7,
            )
        )
        outcome = _engine(tmp_path, jobs=1, retries=1, timeout_s=0.5).run(
            ["table4"], keep_going=True
        )
        record = _by_id(outcome)["table4"]
        assert record.status == "timeout"
        assert record.attempts == 2
        assert "table4" not in outcome.results


class TestWorkerCrashes:
    def test_worker_crash_mid_run_recovers_and_completes(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.fig20", faults.KILL, max_fires=1),),
                seed=7,
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        ids = ["fig20", "fig03", "table4", "fig22"]
        outcome = _engine(tmp_path, jobs=2, retries=1).run(ids)
        records = _by_id(outcome)
        assert all(records[eid].status == MISS for eid in ids)
        assert records["fig20"].attempts >= 2  # crashed once, re-ran isolated
        for eid in ids:
            assert outcome.results[eid].to_text() == run_experiment(eid).to_text()

    def test_poison_driver_is_quarantined(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.fig20", faults.KILL),),  # unlimited
                seed=7,
                ledger_dir=str(tmp_path / "ledger"),
            )
        )
        ids = ["fig20", "fig03", "table4"]
        outcome = _engine(tmp_path, jobs=2, retries=1, crash_strikes=2).run(
            ids, keep_going=True
        )
        records = _by_id(outcome)
        assert records["fig20"].status == QUARANTINED
        assert "quarantined after 2 worker crash(es)" in records["fig20"].error
        assert records["fig03"].status == MISS
        assert records["table4"].status == MISS
        assert "fig20" not in outcome.results
        assert outcome.manifest.n_quarantined == 1


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
                except TransientFault:
                    decisions.append((site, "fault"))
            return decisions

        def plan(seed):
            return FaultPlan(
                specs=(FaultSpec("driver.*", faults.TRANSIENT, probability=0.4),),
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
                    specs=(
                        FaultSpec("driver.*", faults.TRANSIENT, probability=0.5),
                    ),
                    seed=1234,
                )
            )
            engine = _engine(tmp_path / tag, jobs=1, use_cache=False, retries=3)
            outcome = engine.run(ids, keep_going=True)
            faults.clear()
            return [
                (r.experiment_id, r.status, r.attempts, r.error)
                for r in outcome.manifest.records
            ]

        first = run_once("a")
        second = run_once("b")
        assert first == second
        assert sum(attempts for _, _, attempts, _ in first) > len(ids)  # faults fired


class TestKeepGoingAndResume:
    """The acceptance scenario: kill + hang + transient + fatal + cache
    corruption across >= 6 experiments, salvage with ``keep_going``,
    then ``resume`` re-executes only the failure."""

    def test_keep_going_then_resume_reruns_only_failures(self, tmp_path):
        ids = ["fig02", "fig03", "fig20", "fig22", "table1", "table4"]
        plan = FaultPlan(
            specs=(
                FaultSpec("driver.fig20", faults.KILL, max_fires=1),
                FaultSpec("driver.table4", faults.HANG, max_fires=1, delay_s=8.0),
                FaultSpec("driver.fig03", faults.TRANSIENT, max_fires=1),
                FaultSpec("driver.table1", faults.FATAL),  # never recovers
                FaultSpec("cache.write", faults.CORRUPT, max_fires=1),
            ),
            seed=7,
            ledger_dir=str(tmp_path / "ledger"),
        )
        faults.install(plan)
        engine = _engine(tmp_path, jobs=2, retries=2, timeout_s=3.0)
        outcome = engine.run(ids, keep_going=True)
        records = _by_id(outcome)

        survivors = [eid for eid in ids if eid != "table1"]
        for eid in survivors:
            assert records[eid].status == MISS, records[eid]
            assert outcome.results[eid].to_text() == run_experiment(eid).to_text()
        assert records["table1"].status == ERROR
        assert "injected fatal fault" in records["table1"].error
        # >= rather than ==: a retry in flight when the crash broke the
        # pool is discarded and re-submitted, inflating the count by one.
        assert records["fig20"].attempts >= 2  # crashed, recovered
        assert records["fig03"].attempts >= 2  # transient, retried
        assert records["table4"].attempts >= 2  # hung, timed out, retried
        assert "table1" not in outcome.results

        # Follow-up --resume run: only the failed experiment re-executes.
        resumed = engine.run(ids, keep_going=True, resume=True)
        resumed_records = _by_id(resumed)
        for eid in survivors:
            assert resumed_records[eid].status == SKIPPED
            assert resumed_records[eid].attempts == 0
        assert resumed_records["table1"].status == ERROR  # fatal is forever
        assert resumed_records["table1"].attempts >= 1

        # The write-corrupted entry was detected while resuming and
        # quarantined rather than served.
        assert ResultCache(tmp_path / "cache").quarantined_count() == 1


class TestCliResumeAfterQuarantine:
    def test_cli_resume_after_keep_going_quarantine(self, capsys, tmp_path):
        """A --keep-going run whose record set ends with a quarantined
        experiment must be resumable from the CLI: once the fault plan
        is gone, --resume re-runs only the quarantined loser."""
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
        captured = capsys.readouterr()
        assert "quarantined" in captured.err
        assert "forwarding_wire_8wide" in captured.out  # table1 salvaged

        faults.clear()
        rc = main(["run", "fig20", "table1", "--jobs", "2", "--resume"]
                  + cache_flags)
        assert rc == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert "skipped 1" in out  # table1 kept; fig20 re-ran clean
        assert "quarantined 0" in out
