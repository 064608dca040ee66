"""The execution engine: result round-trips, the content-addressed
cache, parallel-vs-serial equivalence and the new CLI surface."""

import importlib.util
import json
import logging
import os
import time
from pathlib import Path

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import ResultCache, payload_digest
from repro.experiments.cli import main
from repro.experiments.engine import (
    DEFAULT_TIMEOUT_S,
    ExecutionEngine,
    ExperimentExecutionError,
    RunManifest,
    load_last_manifest,
    run_experiments,
)
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    _SPECS,
    experiment,
    get_spec,
    run_experiment,
)


def _sample_result() -> ExperimentResult:
    result = ExperimentResult(
        "x", "title", ("k", "v", "flag"), paper_reference={"anchor": 1.5}
    )
    result.add_row("one", 2.5, True)
    result.add_row("two", 3, False)
    result.notes = "a note"
    return result


class TestResultRoundTrip:
    def test_from_json_inverts_to_json(self):
        result = _sample_result()
        assert ExperimentResult.from_json(result.to_json()) == result

    def test_from_dict_normalizes_lists_to_tuples(self):
        result = _sample_result()
        data = json.loads(result.to_json())  # rows decode as lists
        assert all(isinstance(row, list) for row in data["rows"])
        revived = ExperimentResult.from_dict(data)
        assert all(isinstance(row, tuple) for row in revived.rows)
        assert isinstance(revived.headers, tuple)
        assert revived == result

    def test_to_dict_detaches_containers(self):
        result = _sample_result()
        data = result.to_dict()
        data["rows"].append(["three", 4, True])
        data["paper_reference"]["other"] = 9.0
        assert len(result.rows) == 2
        assert result.paper_reference == {"anchor": 1.5}

    def test_real_experiment_round_trips(self):
        result = run_experiment("fig20")
        assert ExperimentResult.from_json(result.to_json()) == result


class TestDescriptiveKeyErrors:
    def test_row_by_missing_header(self):
        result = _sample_result()
        with pytest.raises(KeyError, match="no column 'nope'"):
            result.row_by("nope", "one")

    def test_lookup_missing_key_header(self):
        result = _sample_result()
        with pytest.raises(KeyError, match="no column 'nope'"):
            result.lookup("nope", "one", "v")

    def test_lookup_missing_value_header(self):
        result = _sample_result()
        with pytest.raises(KeyError, match="no column 'nope'"):
            result.lookup("k", "one", "nope")


def _spec_from_file(path: Path) -> ExperimentSpec:
    spec = importlib.util.spec_from_file_location("fake_experiment_mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return ExperimentSpec("fake", module.run)


FAKE_MODULE = """\
from repro.experiments.base import ExperimentResult


def run(scale=1.0):
    result = ExperimentResult("fake", "fake", ("k", "v"))
    result.add_row("one", scale)
    return result
"""


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = _sample_result()
        cache.put("abc123", result)
        assert cache.get("abc123") == result
        assert cache.get("missing") is None
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("abc123", _sample_result())
        (tmp_path / "cache" / "abc123.json").write_text("{not json")
        assert cache.get("abc123") is None
        # The bad entry was moved aside, not left to fail on every read.
        assert not (tmp_path / "cache" / "abc123.json").exists()
        assert (tmp_path / "cache" / "corrupt" / "abc123.json").exists()
        assert cache.quarantined_count() == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put("abc123", _sample_result())
        path.write_bytes(path.read_bytes()[:25])  # torn write survivor
        assert cache.get("abc123") is None
        assert cache.quarantined_count() == 1

    def test_tampered_payload_fails_digest_check(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put("abc123", _sample_result())
        payload = json.loads(path.read_text())
        payload["result"]["rows"][0][1] = 99.0  # silent bit-rot / hand edit
        path.write_text(json.dumps(payload))
        assert cache.get("abc123") is None
        assert cache.quarantined_count() == 1

    def test_old_schema_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "cache" / "abc123.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"result": _sample_result().to_dict()}))
        assert cache.get("abc123") is None
        assert cache.quarantined_count() == 1

    def test_key_changes_with_kwargs(self, tmp_path):
        source = tmp_path / "fake_experiment.py"
        source.write_text(FAKE_MODULE)
        spec = _spec_from_file(source)
        cache = ResultCache(tmp_path / "cache")
        base = cache.key_for(spec, {})
        assert cache.key_for(spec, {}) == base  # stable
        assert cache.key_for(spec, {"scale": 2.0}) != base
        assert cache.key_for(spec, {"scale": 3.0}) != cache.key_for(
            spec, {"scale": 2.0}
        )

    def test_key_changes_when_source_changes(self, tmp_path):
        source = tmp_path / "fake_experiment.py"
        source.write_text(FAKE_MODULE)
        spec = _spec_from_file(source)
        before = ResultCache(tmp_path / "cache").key_for(spec, {})
        source.write_text(FAKE_MODULE + "\n# edited\n")
        after = ResultCache(tmp_path / "cache").key_for(spec, {})
        assert before != after

    def test_unpicklable_kwargs_are_uncacheable(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.is_cacheable({"n_cycles": 100, "rates": (0.1, 0.2)})
        assert not cache.is_cacheable({"obj": object()})

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("a", _sample_result())
        cache.put("b", _sample_result())
        assert cache.clear() == 2
        assert cache.entry_count() == 0

    def test_clear_purges_quarantine(self, tmp_path):
        """Quarantined corpses must not outlive ``clear`` — a cleared
        cache that still carries corrupt/ files reports stale
        ``quarantined_count`` forever."""
        cache = ResultCache(tmp_path / "cache")
        cache.put("good", _sample_result())
        cache.put("bad", _sample_result())
        (tmp_path / "cache" / "bad.json").write_text("{not json")
        assert cache.get("bad") is None  # quarantines bad.json
        assert cache.quarantined_count() == 1
        assert cache.clear() == 2  # the live entry plus the quarantined one
        assert cache.entry_count() == 0
        assert cache.quarantined_count() == 0
        assert not list((tmp_path / "cache" / "corrupt").glob("*.json"))

    def test_put_fsyncs_before_publishing(self, tmp_path, monkeypatch):
        """``put`` must flush to disk *before* the atomic rename makes
        the entry visible — otherwise a power cut can publish a torn
        entry under its final name."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            events.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        cache = ResultCache(tmp_path / "cache")
        cache.put("abc123", _sample_result())
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")


class TestEngine:
    def test_cold_then_warm(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        cold = engine.run(["fig20", "table1"])
        assert {r.status for r in cold.manifest.records} == {"miss"}
        warm = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache").run(
            ["fig20", "table1"]
        )
        assert {r.status for r in warm.manifest.records} == {"hit"}
        assert warm.manifest.hit_rate == 1.0
        for eid in ("fig20", "table1"):
            assert warm.results[eid].to_text() == cold.results[eid].to_text()

    def test_kwargs_key_the_cache(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        engine.run(["fig10"], kwargs_by_id={"fig10": {"length_mm": 5.0}})
        other = engine.run(["fig10"], kwargs_by_id={"fig10": {"length_mm": 4.0}})
        assert other.manifest.records[0].status == "miss"
        again = engine.run(["fig10"], kwargs_by_id={"fig10": {"length_mm": 5.0}})
        assert again.manifest.records[0].status == "hit"

    def test_no_cache_mode(self, tmp_path):
        engine = ExecutionEngine(
            jobs=1, use_cache=False, cache_dir=tmp_path / "cache"
        )
        first = engine.run(["fig20"])
        second = engine.run(["fig20"])
        statuses = [r.status for r in first.manifest.records + second.manifest.records]
        assert statuses == ["uncached", "uncached"]
        assert engine.cache.entry_count() == 0

    def test_no_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRYOWIRE_NO_CACHE", "1")
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        assert not engine.use_cache

    def test_manifest_written_and_loadable(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        outcome = engine.run(["fig20"])
        loaded = RunManifest.load(engine.cache.manifest_path)
        assert loaded.to_dict() == outcome.manifest.to_dict()
        assert "fig20" in loaded.summary()

    def test_schedule_puts_slow_experiments_first(self):
        order = ExecutionEngine.schedule(["fig02", "fig18", "table1", "fig21"])
        assert order == ["fig18", "fig21", "fig02", "table1"]
        assert get_spec("fig18").cost == "slow"
        assert get_spec("fig02").cost == "fast"

    def test_failures_recorded_then_raised(self, tmp_path):
        @experiment("_engine_test_boom")
        def boom():
            raise RuntimeError("kaput")

        try:
            engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
            with pytest.raises(ExperimentExecutionError, match="kaput"):
                engine.run(["_engine_test_boom", "fig20"])
            manifest = RunManifest.load(engine.cache.manifest_path)
            by_id = {r.experiment_id: r.status for r in manifest.records}
            assert by_id["_engine_test_boom"] == "error"
            assert by_id["fig20"] == "miss"  # failure does not stop the rest
        finally:
            _SPECS.pop("_engine_test_boom", None)

    def test_error_attaches_partial_outcome(self, tmp_path):
        @experiment("_engine_test_salvage_boom")
        def boom():
            raise RuntimeError("kaput")

        try:
            engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
            with pytest.raises(ExperimentExecutionError) as excinfo:
                engine.run(["_engine_test_salvage_boom", "fig20"])
            outcome = excinfo.value.outcome
            assert outcome is not None
            # Completed work is salvageable from the exception.
            assert outcome.results["fig20"].to_text() == run_experiment(
                "fig20"
            ).to_text()
            assert [r.experiment_id for r in outcome.failures] == [
                "_engine_test_salvage_boom"
            ]
        finally:
            _SPECS.pop("_engine_test_salvage_boom", None)

    def test_keep_going_returns_partial_outcome(self, tmp_path):
        @experiment("_engine_test_keep_going_boom")
        def boom():
            raise RuntimeError("kaput")

        try:
            engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
            outcome = engine.run(
                ["_engine_test_keep_going_boom", "fig20"], keep_going=True
            )
            assert "fig20" in outcome.results
            assert "_engine_test_keep_going_boom" not in outcome.results
            assert len(outcome.failures) == 1
        finally:
            _SPECS.pop("_engine_test_keep_going_boom", None)

    def test_pool_failure_records_real_wall_and_pid(self, tmp_path):
        @experiment("_engine_test_pool_boom")
        def boom():
            time.sleep(0.05)
            raise RuntimeError("pool kaput")

        try:
            engine = ExecutionEngine(jobs=2, cache_dir=tmp_path / "cache")
            outcome = engine.run(
                ["_engine_test_pool_boom", "fig20"], keep_going=True
            )
            record = {
                r.experiment_id: r for r in outcome.manifest.records
            }["_engine_test_pool_boom"]
            assert record.status == "error"
            assert "pool kaput" in record.error
            assert record.wall_time_s >= 0.05  # not the old 0.0 placeholder
            assert record.worker_pid not in (0, os.getpid())  # the worker's pid
        finally:
            _SPECS.pop("_engine_test_pool_boom", None)

    def test_timeout_resolution_order(self):
        fast = get_spec("fig20")
        slow = get_spec("fig18")
        engine = ExecutionEngine(jobs=1)
        assert engine._timeout_for(fast) == DEFAULT_TIMEOUT_S["fast"]
        assert engine._timeout_for(slow) == DEFAULT_TIMEOUT_S["slow"]
        assert ExecutionEngine(jobs=1, timeout_s=5.0)._timeout_for(fast) == 5.0
        assert ExecutionEngine(jobs=1, timeout_s=0)._timeout_for(fast) is None

    def test_resume_skips_completed_experiments(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        engine.run(["fig20", "table1"])
        resumed = engine.run(["fig20", "table1"], resume=True)
        assert {r.status for r in resumed.manifest.records} == {"skipped"}
        # Results still served (from cache) so callers can render them.
        assert resumed.results["fig20"].to_text() == run_experiment(
            "fig20"
        ).to_text()

    def test_run_one_uses_cache(self, tmp_path):
        engine = ExecutionEngine(jobs=1, cache_dir=tmp_path / "cache")
        first = engine.run_one("fig20")
        assert engine.cache.entry_count() == 1
        assert engine.run_one("fig20") == first

    def test_parallel_matches_serial_on_subset(self, tmp_path):
        ids = ["fig20", "fig22", "fig03", "table1", "table4"]
        parallel = run_experiments(
            ids, jobs=2, use_cache=False, cache_dir=tmp_path / "cache"
        )
        for eid in ids:
            assert parallel.results[eid].to_text() == run_experiment(eid).to_text()
        pids = {r.worker_pid for r in parallel.manifest.records}
        assert len(pids) > 1  # really ran in worker processes


#: One ``payload_digest`` per experiment at default kwargs: the digest
#: the result cache stores, over rows, notes and guard warnings alike.
GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "experiments.json"


@pytest.mark.slow
class TestFullSuiteParallelAndWarmCache:
    """The acceptance property: ``cryowire all --jobs 4`` equals serial
    ``cryowire all`` byte-for-byte, every result matches its golden
    digest, and a warm rerun is >= 90% hits."""

    def test_all_parallel_vs_serial_and_warm_rerun(self, tmp_path):
        ids = sorted(EXPERIMENTS)
        cache_dir = tmp_path / "cache"
        cold = ExecutionEngine(jobs=4, cache_dir=cache_dir).run(ids)
        serial_tables = {eid: run_experiment(eid).to_text() for eid in ids}
        for eid in ids:
            assert cold.results[eid].to_text() == serial_tables[eid]

        golden = json.loads(GOLDEN_DIGESTS.read_text())
        digests = {eid: payload_digest(cold.results[eid].to_dict()) for eid in ids}
        changed = sorted(
            f"{eid}: {digests.get(eid)}"
            for eid in set(golden) | set(digests)
            if golden.get(eid) != digests.get(eid)
        )
        assert not changed, "\n".join(
            ["outputs differ from tests/golden/experiments.json:", *changed]
        )

        warm = ExecutionEngine(jobs=4, cache_dir=cache_dir).run(ids)
        for eid in ids:
            assert warm.results[eid].to_text() == serial_tables[eid]
        manifest = RunManifest.load(cache_dir / "last_run.json")
        assert len(manifest.records) == len(ids)
        assert manifest.hit_rate >= 0.9


class TestLoadLastManifest:
    def test_missing_manifest_is_quiet(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.experiments.engine"):
            assert load_last_manifest(tmp_path / "never-ran") is None
        assert not caplog.records  # "no manifest yet" is not warning-worthy

    @pytest.mark.parametrize(
        "body",
        ["{truncated", "[]", '"x"', '{"records": null}', '{"records": [1]}'],
        ids=["truncated", "list", "string", "null-records", "int-record"],
    )
    def test_unreadable_manifest_warns(self, tmp_path, caplog, body):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "last_run.json").write_text(body)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.engine"):
            assert load_last_manifest(cache_dir) is None
        assert any(
            "unreadable run manifest" in record.getMessage()
            for record in caplog.records
        )
        # --resume treats an unreadable manifest as "nothing done yet".
        outcome = ExecutionEngine(jobs=1, cache_dir=cache_dir).run(
            ["table1"], resume=True
        )
        assert [r.status for r in outcome.manifest.records] == ["miss"]

    @pytest.mark.parametrize(
        "legacy",
        [
            {
                "schema": 4,
                "jobs": 1,
                "shards": 2,
                "records": [
                    {"experiment_id": "fig20", "status": "miss", "shard": 1,
                     "attempts": 2, "leaked_threads": 1},
                    {"experiment_id": "table1", "status": "miss", "shard": 0},
                    {"experiment_id": "fig03", "status": "quarantined",
                     "attempts": 2},
                ],
            },
            {
                "schema": 5,
                "jobs": 2,
                "totals": {"retries": 1, "quarantined": 1, "leaked_threads": 1},
                "records": [
                    {"experiment_id": "fig20", "status": "miss", "attempts": 2,
                     "leaked_threads": 1},
                    {"experiment_id": "table1", "status": "miss", "attempts": 1},
                    {"experiment_id": "fig03", "status": "quarantined",
                     "attempts": 2},
                ],
            },
        ],
        ids=["schema4", "schema5"],
    )
    def test_old_manifest_with_retired_keys_drives_resume(self, tmp_path, legacy):
        """Older manifests carry keys this engine no longer writes: the
        ``shards`` count and ``shard`` index (schema 4), per-record
        ``attempts`` and ``leaked_threads``, ``retries`` totals and the
        ``quarantined`` status. The keys are ignored on read, and a
        record whose status is not a completion is a plain cache hit."""
        ids = ["fig20", "table1", "fig03"]
        cache_dir = tmp_path / "cache"
        ExecutionEngine(jobs=1, cache_dir=cache_dir).run(ids)
        (cache_dir / "last_run.json").write_text(json.dumps(legacy))

        manifest = load_last_manifest(cache_dir)
        assert [(r.experiment_id, r.status) for r in manifest.records] == [
            ("fig20", "miss"),
            ("table1", "miss"),
            ("fig03", "quarantined"),
        ]
        assert manifest.records[0].to_dict() == {
            "experiment_id": "fig20",
            "status": "miss",
            "wall_time_s": 0.0,
            "worker_pid": 0,
            "error": "",
            "warnings": [],
        }
        outcome = ExecutionEngine(jobs=1, cache_dir=cache_dir).run(
            ids, resume=True
        )
        assert {r.experiment_id: r.status for r in outcome.manifest.records} == {
            "fig20": "skipped",
            "table1": "skipped",
            "fig03": "hit",
        }


class TestCliFlags:
    def test_run_multiple_ids(self, capsys):
        assert main(["run", "fig20", "table4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "fig20" in out and "table4" in out

    def test_run_json_format(self, capsys):
        assert main(["run", "fig20", "--format", "json", "--no-cache"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "fig20"
        assert ExperimentResult.from_dict(data).lookup(
            "design", "cryobus", "broadcast"
        ) == 1

    def test_run_csv_format(self, capsys):
        assert main(["run", "table4", "--format", "csv", "--no-cache"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("system,")

    def test_output_dir_writes_one_artifact_per_experiment(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "artifacts"
        assert (
            main(
                ["run", "fig20", "table4", "--format", "json",
                 "--output", str(out_dir), "--cache-dir", str(tmp_path / "c")]
            )
            == 0
        )
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "fig20.json",
            "table4.json",
        ]
        payload = json.loads((out_dir / "fig20.json").read_text())
        assert payload["experiment_id"] == "fig20"

    def test_parallel_run_prints_identical_output(self, capsys, tmp_path):
        flags = ["--cache-dir", str(tmp_path / "c")]
        assert main(["run", "fig20", "fig22", "--no-cache"] + flags) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "fig20", "fig22", "--jobs", "2", "--no-cache"] + flags) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_stats_after_run(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["run", "fig20"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        out = capsys.readouterr().out
        assert "fig20" in out and "hit rate" in out

    def test_stats_without_manifest(self, capsys, tmp_path):
        assert main(["stats", "--cache-dir", str(tmp_path / "empty")]) == 1
        assert "no run manifest" in capsys.readouterr().out

    def test_warm_cli_rerun_hits(self, capsys, tmp_path):
        cache_flags = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["run", "fig20", "table1"] + cache_flags) == 0
        assert main(["run", "fig20", "table1"] + cache_flags) == 0
        capsys.readouterr()
        assert main(["stats"] + cache_flags) == 0
        assert "2 hits" in capsys.readouterr().out
