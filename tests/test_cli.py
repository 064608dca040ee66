"""The ``cryowire`` CLI."""

import threading
import time

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.cli import main
from repro.experiments.engine import load_last_manifest
from repro.experiments.registry import EXPERIMENTS

#: While set, :func:`_slow_probe` outlives any short budget.
_BE_SLOW = threading.Event()


def _boom() -> ExperimentResult:
    raise RuntimeError("injected CLI failure")


def _slow_probe() -> ExperimentResult:
    if _BE_SLOW.is_set():
        time.sleep(5.0)
    result = ExperimentResult("_cli_rerun_tmo", "slow probe", ("x",))
    result.add_row(1.0)
    return result


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(EXPERIMENTS)


class TestRun:
    def test_runs_a_fast_experiment(self, capsys):
        assert main(["run", "fig20"]) == 0
        out = capsys.readouterr().out
        assert "cryobus" in out
        assert "broadcast" in out

    def test_run_table(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "forwarding_wire_8wide" in out

    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReport:
    def test_report_prints_anchor_summary(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "paper vs measured" in out
        assert "median |diff|" in out
        assert "CryoSP frequency" in out
        assert "±6%" in out and "deviation:" in out

    def test_report_fails_on_a_planted_breach(self, capsys, monkeypatch):
        from repro.experiments import report

        fig02 = report.ANCHORS[0]
        drifted = fig02._replace(
            measure=lambda r: 1.07 * r.paper_reference[fig02.key]
        )
        monkeypatch.setattr(report, "ANCHORS", (drifted,))
        assert main(["report"]) == 1
        out = capsys.readouterr().out
        assert "FAIL fig02 forwarding-stage wire share: +7.0% outside ±6%" in out


class TestFaultToleranceFlags:
    def test_failure_salvages_the_rest_and_fails(
        self, capsys, tmp_path, register_driver
    ):
        register_driver("_cli_boom_strict", _boom)
        rc = main(
            ["run", "_cli_boom_strict", "fig20", "--cache-dir", str(tmp_path / "c")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "cryobus" in captured.out  # fig20 still emitted
        assert "experiment(s) failed" in captured.err

    def test_keep_going_reports_failures_on_stderr(
        self, capsys, tmp_path, register_driver
    ):
        register_driver("_cli_boom_keep", _boom)
        rc = main(
            ["run", "_cli_boom_keep", "fig20", "--cache-dir", str(tmp_path / "c")]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "cryobus" in captured.out
        assert "failed: _cli_boom_keep" in captured.err

    def test_resume_skips_completed(self, capsys, tmp_path):
        """A plain rerun serves what completed from the cache."""
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20", "table1"] + cache_flags) == 0
        assert main(["run", "fig20", "table1"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        assert "2 hits, 0 misses" in capsys.readouterr().out

    def test_stats_reports_cache_and_quarantine(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert "timeouts 0" in out
        assert "cache: 1 entries, 0 quarantined" in out

    def test_rejects_negative_jobs_and_timeout(self):
        with pytest.raises(SystemExit):
            main(["run", "fig20", "--jobs", "-1"])
        # A budget is a finite number of seconds: ``inf`` overflows the
        # wait on the driver thread and ``nan`` would disable the budget.
        for timeout in ("-2", "inf", "nan"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "fig20", "--timeout", timeout])
            assert excinfo.value.code == 2, timeout


class TestRerunAfterFailures:
    @pytest.mark.parametrize("damage", ["truncate", "delete", "no-cache"])
    def test_rerun_recomputes_what_the_cache_cannot_serve(
        self, capsys, tmp_path, damage
    ):
        """A rerun skips a completed experiment only while the cache
        still serves its result; anything else re-runs, and every table
        is printed."""
        ids = ["fig20", "table4"]
        flags = ["--cache-dir", str(tmp_path / "c")]
        if damage == "no-cache":
            flags.append("--no-cache")
        assert main(["run", *ids] + flags) == 0
        full = capsys.readouterr().out
        entries = sorted((tmp_path / "c").glob("*.json"))
        entries = [p for p in entries if p.name != "last_run.json"]
        if damage == "truncate":
            entries[0].write_bytes(entries[0].read_bytes()[:20])
        elif damage == "delete":
            entries[0].unlink()

        assert main(["run", *ids] + flags) == 0
        assert capsys.readouterr().out == full
        statuses = sorted(
            r.status for r in load_last_manifest(tmp_path / "c").records
        )
        if damage == "no-cache":
            assert statuses == ["uncached", "uncached"]
        else:
            assert statuses == ["hit", "miss"]

    def test_rerun_after_a_timeout_recomputes_only_the_loser(
        self, capsys, tmp_path, register_driver
    ):
        """After a run that ends with a timeout record, a plain rerun
        re-runs the timed-out experiment and serves the completed one
        from the cache."""
        register_driver("_cli_rerun_tmo", _slow_probe)
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        _BE_SLOW.set()
        try:
            rc = main(
                ["run", "_cli_rerun_tmo", "fig20", "--timeout", "0.3"]
                + cache_flags
            )
        finally:
            _BE_SLOW.clear()  # the flake clears; the rerun must finish the job
        assert rc == 1
        assert "timeout" in capsys.readouterr().err

        rc = main(["run", "_cli_rerun_tmo", "fig20"] + cache_flags)
        assert rc == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert "1 hits, 1 misses" in out  # fig20 kept, the loser re-ran
        assert "timeouts 0" in out
