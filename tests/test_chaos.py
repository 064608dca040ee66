"""Chaos suite: deterministic fault injection against the execution engine.

Each test provokes one failure path of the engine end-to-end, with real
experiment drivers. Failures inside a pool worker come from a
:class:`~repro.util.faults.FaultPlan` striking ``driver.<id>`` sites; a
corrupt cache entry comes from bad bytes written into its file:

* a hung driver hits its wall-clock budget and becomes one ``timeout``
  record;
* a killed worker breaks the pool, every experiment it left unfinished
  becomes an ``error`` record, and a plain rerun completes them
  byte-identically;
* a corrupted cache entry is quarantined and recomputed;
* the same plan gives the same manifest.

Run serially (``pytest -m chaos``): the suite spawns real process
pools and kills real workers.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.engine import (
    ERROR,
    FAILURE_STATUSES,
    HIT,
    MISS,
    TIMEOUT,
    UNCACHED,
    ExecutionEngine,
    ExperimentExecutionError,
    load_last_manifest,
)
from repro.experiments.registry import run_experiment
from repro.util import faults
from repro.util.faults import FatalFault, FaultPlan, FaultSpec

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


def _failed_run(engine, ids):
    """Run ``ids`` expecting failures; the partial outcome the error carries."""
    with pytest.raises(ExperimentExecutionError) as excinfo:
        engine.run(ids)
    return excinfo.value.outcome


def _corrupt(entry):
    """Bit-flip the leading byte of a cache entry and truncate it."""
    raw = entry.read_bytes()
    entry.write_bytes(bytes([raw[0] ^ 0xFF]) + raw[1 : len(raw) // 2])


def _entries(cache_dir):
    return [p for p in cache_dir.glob("*.json") if p.name != "last_run.json"]


class TestInjectorPlumbing:
    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            specs=(
                FaultSpec("driver.fig20", faults.KILL),
                FaultSpec("driver.table4", faults.HANG, delay_s=1.5),
            )
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_var_carries_the_plan_across_processes(self, monkeypatch):
        plan = FaultPlan(specs=(FaultSpec("driver.x", faults.FATAL),))
        # What a freshly spawned worker would see: only the env var.
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, plan.to_json())
        assert faults.active() == plan
        with pytest.raises(FatalFault):
            faults.fault_point("driver.x")

    def test_unmatched_site_never_fires(self):
        faults.install(
            FaultPlan(
                specs=(
                    FaultSpec("driver.other", faults.FATAL),
                    FaultSpec("driver.*", faults.FATAL),  # no globs
                )
            )
        )
        faults.fault_point("driver.this")  # no match, no fault


class TestHangFaults:
    def test_hung_driver_is_one_timeout_record(self, tmp_path):
        faults.install(
            FaultPlan(
                specs=(FaultSpec("driver.table4", faults.HANG, delay_s=5.0),)
            )
        )
        outcome = _failed_run(_engine(tmp_path, jobs=1, timeout_s=0.5), ["table4"])
        [record] = outcome.manifest.records
        assert (record.experiment_id, record.status) == ("table4", TIMEOUT)
        assert "0.5s wall-clock budget" in record.error
        assert "table4" not in outcome.results


class TestWorkerCrashes:
    def test_worker_crash_mid_run_recovers_and_completes(self, tmp_path):
        """A killed worker fails what it left unfinished, one ``error``
        record each; a plain rerun re-runs exactly those, byte-identically."""
        faults.install(FaultPlan(specs=(FaultSpec("driver.fig20", faults.KILL),)))
        ids = ["fig20", "fig03", "table4", "fig22"]
        engine = _engine(tmp_path, jobs=2)
        records = _by_id(_failed_run(engine, ids))
        assert records["fig20"].status == ERROR
        assert "BrokenProcessPool" in records["fig20"].error
        assert {r.status for r in records.values()} <= {MISS, ERROR}
        failed = {eid for eid, r in records.items() if r.status == ERROR}

        faults.clear()
        resumed = engine.run(ids)
        assert {eid: r.status for eid, r in _by_id(resumed).items()} == {
            eid: MISS if eid in failed else HIT for eid in ids
        }
        for eid in ids:
            assert resumed.results[eid].to_json() == run_experiment(eid).to_json()


class TestCacheCorruption:
    def test_corrupted_entry_is_quarantined_and_recomputed(self, tmp_path):
        engine = _engine(tmp_path, jobs=1)
        cold = engine.run(["fig20"])
        assert _by_id(cold)["fig20"].status == MISS

        [entry] = _entries(tmp_path / "cache")
        _corrupt(entry)

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


class TestDeterminism:
    def test_identical_seed_gives_identical_manifest(self, tmp_path):
        """The same plan, run twice, gives the same manifest."""
        ids = ["fig02", "fig03", "fig20", "fig22", "table1", "table4"]

        def run_once(tag):
            faults.install(
                FaultPlan(
                    specs=tuple(
                        FaultSpec(f"driver.{eid}", faults.FATAL)
                        for eid in ("fig03", "fig22", "table1")
                    )
                )
            )
            engine = _engine(tmp_path / tag, jobs=1, use_cache=False)
            outcome = _failed_run(engine, ids)
            faults.clear()
            return [
                (r.experiment_id, r.status, r.error)
                for r in outcome.manifest.records
            ]

        first = run_once("a")
        second = run_once("b")
        assert first == second
        assert {status for _, status, _ in first} == {UNCACHED, ERROR}  # faults fired


class TestFailedRunThenRerun:
    """The acceptance scenario: kill + hang + fatal across >= 6
    experiments, salvage the partial outcome, corrupt one cache entry on
    disk, then a plain rerun re-executes exactly what the cache
    cannot serve: the failures and the corrupted entry."""

    def test_rerun_recomputes_only_failures(self, tmp_path):
        ids = ["fig02", "fig03", "fig20", "fig22", "table1", "table4"]
        plan = FaultPlan(
            specs=(
                FaultSpec("driver.fig20", faults.KILL),
                FaultSpec("driver.table4", faults.HANG, delay_s=8.0),
                FaultSpec("driver.table1", faults.FATAL),
            )
        )
        faults.install(plan)
        engine = _engine(tmp_path, jobs=2, timeout_s=3.0)
        outcome = _failed_run(engine, ids)
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
        # Corrupt the entry of the first result written.
        corrupted = next(r.experiment_id for r in outcome.manifest.records
                         if r.status == MISS)
        _corrupt(next(
            p for p in _entries(tmp_path / "cache")
            if json.loads(p.read_bytes())["experiment_id"] == corrupted
        ))

        faults.clear()
        resumed = engine.run(ids)
        assert {eid: r.status for eid, r in _by_id(resumed).items()} == {
            eid: MISS if eid in failed | {corrupted} else HIT for eid in ids
        }
        for eid in ids:
            assert resumed.results[eid].to_json() == run_experiment(eid).to_json()
        # The corrupted entry was detected on the rerun and
        # quarantined rather than served.
        assert ResultCache(tmp_path / "cache").quarantined_count() == 1


class TestCliRerunAfterCrash:
    def test_cli_rerun_after_a_worker_crash(self, capsys, tmp_path):
        """A CLI run that loses a worker prints what completed and exits
        1; once the fault plan is gone, a plain rerun re-runs only what
        the crash failed and prints every table."""
        from repro.experiments.cli import main

        faults.install(FaultPlan(specs=(FaultSpec("driver.fig20", faults.KILL),)))
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        rc = main(["run", "fig20", "table1", "--jobs", "2"] + cache_flags)
        assert rc == 1
        assert "failed: fig20 [error]: BrokenProcessPool" in capsys.readouterr().err
        crashed = load_last_manifest(tmp_path / "c")
        n_failed = crashed.n_failures
        assert n_failed in (1, 2)  # table1 may have died with the worker

        faults.clear()
        rc = main(["run", "fig20", "table1", "--jobs", "2"] + cache_flags)
        assert rc == 0
        out = capsys.readouterr().out
        assert "cryobus" in out and "forwarding_wire_8wide" in out
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert f"{2 - n_failed} hits, {n_failed} misses" in out
