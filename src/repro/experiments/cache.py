"""Content-addressed on-disk cache for :class:`ExperimentResult`.

A cached entry is keyed by everything that could change the result:

* the experiment id,
* the canonicalized kwargs of the run,
* the ``repro`` package version,
* a SHA-256 digest of the experiment's driver module source file,
* a SHA-256 digest of every ``*.py`` file in the ``repro`` package.

The last two make invalidation automatic: editing ``fig23.py`` changes
its source digest, and editing any module a driver reaches (say
``noc/bus.py``) changes the package digest, so the stale results
silently miss and are recomputed. The package digest is computed once
per :class:`ResultCache`. Entries are JSON files named by key under the
cache directory (``$CRYOWIRE_CACHE_DIR``, else ``$XDG_CACHE_HOME/
cryowire``, else ``~/.cache/cryowire``); writes go through a temp file +
``os.replace`` so concurrent workers never observe torn entries.

Crash safety: every entry embeds a SHA-256 digest of its own result
payload, and :meth:`ResultCache.get` verifies the schema and the digest
on every read. An entry that is truncated, hand-edited, bit-flipped or
written by an older schema is treated as a *miss* — it is moved into
``<cache>/corrupt/`` (quarantined for post-mortem, never re-read) and
the experiment is simply recomputed. A machine losing power mid-write
therefore costs one recomputation, never a wrong table or a crash.

Runs whose kwargs are not plain JSON data (e.g. a prefetcher object) are
*uncacheable*: their canonical form would embed unstable ``repr`` text,
so the engine simply computes them every time.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union

import repro
from repro import __version__
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import ExperimentSpec
from repro.util.digest import (
    canonical_json,
    file_digest,
    is_plain_data,
    sha256_hex,
    tree_digest,
)

_LOG = logging.getLogger(__name__)

#: Environment variable overriding the cache location.
CACHE_DIR_ENV = "CRYOWIRE_CACHE_DIR"

#: File (inside the cache dir) holding the manifest of the last run.
MANIFEST_NAME = "last_run.json"

#: Subdirectory quarantining entries that failed verification on read.
CORRUPT_DIR_NAME = "corrupt"

#: Entry schema version; bumping it invalidates (quarantines) old entries.
ENTRY_SCHEMA = 2


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "cryowire"


def payload_digest(result_dict: Dict) -> str:
    """Integrity digest embedded in (and verified against) each entry."""
    return sha256_hex(canonical_json(result_dict))


class CacheIntegrityError(ValueError):
    """An entry failed schema or digest verification (internal signal)."""


class ResultCache:
    """Maps content keys to serialized ``ExperimentResult``s on disk."""

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self._source_digests: Dict[str, str] = {}  # path -> digest, per-instance
        self._package_digest: Optional[str] = None

    # -- keys ---------------------------------------------------------------

    def is_cacheable(self, kwargs: Dict) -> bool:
        return is_plain_data(kwargs)

    def _module_digest(self, spec: ExperimentSpec) -> str:
        path = spec.source_file
        if path is None:
            return "no-source"
        digest = self._source_digests.get(path)
        if digest is None:
            digest = file_digest(path)
            self._source_digests[path] = digest
        return digest

    def key_for(self, spec: ExperimentSpec, kwargs: Dict) -> str:
        """Content key: id + canonical kwargs + version + source digests."""
        if self._package_digest is None:
            self._package_digest = tree_digest(Path(repro.__file__).parent)
        material = canonical_json(
            {
                "experiment_id": spec.experiment_id,
                "kwargs": kwargs,
                "version": __version__,
                "source_digest": self._module_digest(spec),
                "package_digest": self._package_digest,
            }
        )
        return sha256_hex(material)

    # -- entries ------------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    @staticmethod
    def _verify(payload: Dict) -> ExperimentResult:
        """Decode an entry, or raise :class:`CacheIntegrityError`."""
        if not isinstance(payload, dict):
            raise CacheIntegrityError("entry is not a JSON object")
        missing = {"schema", "result", "digest"} - set(payload)
        if missing:
            raise CacheIntegrityError(f"entry missing fields {sorted(missing)}")
        if payload["schema"] != ENTRY_SCHEMA:
            raise CacheIntegrityError(
                f"entry schema {payload['schema']!r} != {ENTRY_SCHEMA}"
            )
        if payload_digest(payload["result"]) != payload["digest"]:
            raise CacheIntegrityError("payload digest mismatch")
        return ExperimentResult.from_dict(payload["result"])

    def get(self, key: str) -> Optional[ExperimentResult]:
        """The verified cached result for ``key``, or ``None``.

        Corrupt or truncated entries — anything failing JSON decoding,
        the schema check, or the embedded payload digest — are
        quarantined under ``corrupt/`` and reported as a miss.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(raw.decode("utf-8", errors="strict"))
            return self._verify(payload)
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, exc)
            return None

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move a bad entry aside so it is never re-read (best effort)."""
        target = self.cache_dir / CORRUPT_DIR_NAME / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(str(path), str(target))
            _LOG.warning(
                "quarantined corrupt cache entry %s -> %s (%s)",
                path.name,
                target.parent.name,
                reason,
            )
        except OSError:
            pass

    def put(self, key: str, result: ExperimentResult) -> Path:
        """Atomically persist ``result`` under ``key``.

        Safe against concurrent writers of the *same* key (two
        ``cryowire run``/``all``/``report`` processes sharing one cache
        dir put identical results): each writer publishes a complete,
        digest-valid entry via its own temp file and an atomic
        ``os.replace``, so the last writer wins and no reader ever
        observes a torn entry. Also tolerates a concurrent ``corrupt/``
        quarantine move (or cache ``clear()``) yanking the cache
        directory or the temp file out from under the rename: the write
        is retried once from scratch.
        """
        result_dict = result.to_dict()
        payload = {
            "schema": ENTRY_SCHEMA,
            "version": __version__,
            "experiment_id": result.experiment_id,
            "result": result_dict,
            "digest": payload_digest(result_dict),
        }
        raw = json.dumps(payload).encode("utf-8")
        path = self._entry_path(key)
        last_error: Optional[OSError] = None
        for _attempt in range(2):
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.cache_dir), prefix=f".{key[:12]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(raw)
                    handle.flush()
                    # The crash-safety story depends on the entry's bytes
                    # being durable *before* the rename publishes the path:
                    # os.replace is atomic in the namespace, not on disk.
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
                return path
            except FileNotFoundError as exc:
                # A concurrent quarantine/clear removed the directory (or
                # our temp file) between mkstemp and the rename; re-create
                # and retry once before giving up.
                last_error = exc
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        raise last_error  # type: ignore[misc]  # both attempts failed

    def clear(self) -> int:
        """Delete every cache entry, including the ``corrupt/``
        quarantine; returns how many files were removed.

        Purging the quarantine matters for long-lived owners: a cleared
        cache should report ``quarantined_count() == 0``, not carry the
        previous epoch's post-mortems forward forever.
        """
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.json"):
                if path.name == MANIFEST_NAME:
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        corrupt_dir = self.cache_dir / CORRUPT_DIR_NAME
        if corrupt_dir.is_dir():
            for path in corrupt_dir.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def entry_count(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(
            1 for p in self.cache_dir.glob("*.json") if p.name != MANIFEST_NAME
        )

    def quarantined_count(self) -> int:
        """How many corrupt entries have been moved aside so far."""
        corrupt_dir = self.cache_dir / CORRUPT_DIR_NAME
        if not corrupt_dir.is_dir():
            return 0
        return sum(1 for p in corrupt_dir.glob("*.json"))

    @property
    def manifest_path(self) -> Path:
        return self.cache_dir / MANIFEST_NAME
