"""Concurrent-writer safety of the on-disk result cache.

Two ``cryowire run``/``all``/``report`` processes pointed at one cache
dir put results into it at once — including the *same* key, when both
compute the same experiment — and a ``clear()`` or a ``corrupt/``
quarantine move can race any ``put``. The contract:

* concurrent same-key writers are last-writer-wins, and the surviving
  entry is always complete and digest-valid (atomic temp-file +
  ``os.replace`` publication, no torn reads);
* ``put`` tolerates the cache directory being yanked out from under it
  by a concurrent ``corrupt/`` quarantine move or ``clear()`` (the
  write is retried once);
* a ``put`` right after a quarantine move repopulates the key.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.cache import CORRUPT_DIR_NAME, ResultCache

_KEY = "a" * 64  # a syntactically plausible content-address


def _result(value: float) -> ExperimentResult:
    result = ExperimentResult("_cc_exp", "concurrency probe", ("x",))
    result.add_row(value)
    return result


def _put_worker(cache_dir: str, value: float, barrier) -> None:
    """One writer process: wait at the barrier, then race the put."""
    cache = ResultCache(cache_dir)
    barrier.wait()
    for _ in range(20):
        cache.put(_KEY, _result(value))


class TestConcurrentWriters:
    def test_racing_same_key_writers_leave_a_digest_valid_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        context = multiprocessing.get_context("fork")
        n_writers = 4
        barrier = context.Barrier(n_writers)
        processes = [
            context.Process(
                target=_put_worker, args=(str(cache_dir), float(i), barrier)
            )
            for i in range(n_writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=30)
            assert process.exitcode == 0

        # Last writer wins — and whoever won, the entry must verify.
        survivor = ResultCache(cache_dir).get(_KEY)
        assert survivor is not None
        assert survivor.rows[0][0] in {float(i) for i in range(n_writers)}
        # Nothing was quarantined: every observable state was a complete
        # entry (the losers' bytes were fully replaced, never mixed).
        corrupt_dir = cache_dir / CORRUPT_DIR_NAME
        assert not corrupt_dir.is_dir() or not list(corrupt_dir.iterdir())
        # No leaked temp files from the losing writers either.
        assert not list(cache_dir.glob(".*.tmp"))

    def test_put_retries_when_directory_vanishes_mid_write(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        real_replace = os.replace
        failures = {"left": 1}

        def flaky_replace(src, dst):
            if failures["left"]:
                failures["left"] -= 1
                # What a concurrent clear()/quarantine move produces: the
                # destination directory is gone when the rename lands.
                raise FileNotFoundError(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        path = cache.put(_KEY, _result(7.0))
        assert path.is_file()
        got = cache.get(_KEY)
        assert got is not None and got.rows[0][0] == 7.0

    def test_put_gives_up_after_persistent_vanishing(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")

        def always_gone(src, dst):
            raise FileNotFoundError(dst)

        monkeypatch.setattr(os, "replace", always_gone)
        with pytest.raises(FileNotFoundError):
            cache.put(_KEY, _result(1.0))

    def test_put_repopulates_a_quarantined_key(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(_KEY, _result(1.0))
        # Corrupt the entry on disk; the next read quarantines it.
        entry = cache.cache_dir / f"{_KEY}.json"
        entry.write_text("definitely not json")
        assert cache.get(_KEY) is None
        assert (cache.cache_dir / CORRUPT_DIR_NAME / entry.name).is_file()
        # A fresh put right after the quarantine move must land cleanly.
        cache.put(_KEY, _result(2.0))
        got = cache.get(_KEY)
        assert got is not None and got.rows[0][0] == 2.0

    def test_entries_stay_well_formed_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(_KEY, _result(3.0))
        payload = json.loads(path.read_text())
        assert payload["result"]["rows"] == [[3.0]]
