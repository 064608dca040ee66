"""The ``cryowire`` CLI."""

import pytest

from repro.experiments.cli import main
from repro.experiments.engine import load_last_manifest
from repro.experiments.registry import EXPERIMENTS


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


class TestFaultToleranceFlags:
    def _register_boom(self, experiment_id):
        from repro.experiments.registry import _SPECS, experiment

        @experiment(experiment_id)
        def boom():
            raise RuntimeError("injected CLI failure")

        return lambda: _SPECS.pop(experiment_id, None)

    def test_failure_without_keep_going_salvages_and_fails(
        self, capsys, tmp_path
    ):
        cleanup = self._register_boom("_cli_boom_strict")
        try:
            rc = main(
                ["run", "_cli_boom_strict", "fig20",
                 "--cache-dir", str(tmp_path / "c")]
            )
            assert rc == 1
            captured = capsys.readouterr()
            assert "cryobus" in captured.out  # fig20 still emitted
            assert "experiment(s) failed" in captured.err
        finally:
            cleanup()

    def test_keep_going_reports_failures_on_stderr(self, capsys, tmp_path):
        cleanup = self._register_boom("_cli_boom_keep")
        try:
            rc = main(
                ["run", "_cli_boom_keep", "fig20", "--keep-going",
                 "--cache-dir", str(tmp_path / "c")]
            )
            assert rc == 1
            captured = capsys.readouterr()
            assert "cryobus" in captured.out
            assert "failed: _cli_boom_keep" in captured.err
        finally:
            cleanup()

    def test_resume_skips_completed(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20", "table1"] + cache_flags) == 0
        assert main(["run", "fig20", "table1", "--resume"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        assert "skipped 2" in capsys.readouterr().out

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
        with pytest.raises(SystemExit):
            main(["run", "fig20", "--timeout", "-2"])


class TestResumeAfterFailures:
    @pytest.mark.parametrize("damage", ["truncate", "delete", "no-cache"])
    def test_resume_reruns_what_the_cache_cannot_serve(
        self, capsys, tmp_path, damage
    ):
        """--resume skips a completed experiment only while the cache
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

        assert main(["run", *ids, "--resume"] + flags) == 0
        assert capsys.readouterr().out == full
        statuses = sorted(
            r.status for r in load_last_manifest(tmp_path / "c").records
        )
        if damage == "no-cache":
            assert statuses == ["uncached", "uncached"]
        else:
            assert statuses == ["miss", "skipped"]

    def test_resume_after_keep_going_timeout_reruns_only_the_loser(
        self, capsys, tmp_path
    ):
        """A --keep-going run that ends with a timeout record must be
        resumable: the timed-out experiment re-runs, the completed one
        is skipped."""
        import time as _time

        from repro.experiments.registry import _SPECS, experiment

        flag = tmp_path / "be-slow"
        flag.write_text("1")

        @experiment("_cli_resume_tmo")
        def _sleeper():
            if flag.exists():
                _time.sleep(5.0)
            from repro.experiments.base import ExperimentResult

            result = ExperimentResult("_cli_resume_tmo", "slow probe", ("x",))
            result.add_row(1.0)
            return result

        cache_flags = ["--cache-dir", str(tmp_path / "c")]
        try:
            rc = main(
                ["run", "_cli_resume_tmo", "fig20", "--timeout", "0.3",
                 "--keep-going"] + cache_flags
            )
            assert rc == 1
            err = capsys.readouterr().err
            assert "timeout" in err

            flag.unlink()  # the flake clears; the resume must finish the job
            rc = main(
                ["run", "_cli_resume_tmo", "fig20", "--resume"] + cache_flags
            )
            assert rc == 0
            capsys.readouterr()
            assert main(["stats"] + cache_flags) == 0
            out = capsys.readouterr().out
            assert "skipped 1" in out  # fig20 kept, the loser re-ran
            assert "timeouts 0" in out
        finally:
            _SPECS.pop("_cli_resume_tmo", None)
